package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runcache"
	"repro/internal/units"
)

// tinySpecText is a 4-run campaign (2 iterations × cubic/solo) small enough
// for end-to-end execution in unit tests.
const tinySpecText = `
[campaign]
name = unit-e2e
seed = 7
iterations = 2
scale = 0.02
shards = 2

[grid]
systems = stadia
ccas = cubic, solo
capacities = 25mbit
queue_mults = 2
`

func openCache(t *testing.T) *runcache.Cache {
	t.Helper()
	c, err := runcache.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runTiny executes the tiny campaign in-process in a fresh directory and
// returns the result.
func runTiny(t *testing.T, dir string, cache *runcache.Cache) *Result {
	t.Helper()
	sp := parseSpec(t, tinySpecText)
	res, err := Run(context.Background(), sp, Options{Dir: dir, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func readRunlog(t *testing.T, path string) []obs.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestCampaignEndToEndMatchesSweep(t *testing.T) {
	res := runTiny(t, t.TempDir(), openCache(t))
	if res.Snapshot.Done != 4 || res.Snapshot.Total != 4 {
		t.Fatalf("done/total = %d/%d, want 4/4", res.Snapshot.Done, res.Snapshot.Total)
	}

	// The same four runs through the classic sweep path.
	var sweepLog bytes.Buffer
	experiment.RunSweep(context.Background(), experiment.SweepConfig{
		Systems:    []gamestream.System{gamestream.Stadia},
		CCAs:       []string{"cubic", ""},
		Capacities: []units.Rate{units.Mbps(25)},
		QueueMults: []float64{2},
		Iterations: 2,
		Timeline:   metrics.PaperTimeline.Scale(0.02),
		BaseSeed:   7,
		Progress:   obs.NewJSONL(&sweepLog),
		Workers:    2,
	})
	want, err := obs.ReadJSONL(&sweepLog)
	if err != nil {
		t.Fatal(err)
	}
	got := readRunlog(t, res.RunlogPath)
	if len(got) != len(want) {
		t.Fatalf("runlog has %d records, sweep produced %d", len(got), len(want))
	}
	normalize := func(recs []obs.Record) {
		for i := range recs {
			recs[i] = canonicalRecord(recs[i])
		}
		sort.Slice(recs, func(i, j int) bool {
			if recs[i].Cond != recs[j].Cond {
				return recs[i].Cond < recs[j].Cond
			}
			return recs[i].Seed < recs[j].Seed
		})
	}
	normalize(got)
	normalize(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("campaign records differ from sweep records for the same grid")
	}
}

// TestShardLogFilesRecordsByJobIndex feeds the shard runlog sink its
// completions out of order, as parallel cells deliver them, and requires
// the runlog in job order with the wall-clock fields scrubbed.
func TestShardLogFilesRecordsByJobIndex(t *testing.T) {
	var l shardLog
	l.SweepStart(5)
	for _, i := range []int{3, 0, 4, 2, 1} {
		l.RunDone(obs.Update{Index: i, Record: &obs.Record{
			Cond: fmt.Sprintf("cond-%d", i), Iteration: i, Cached: i%2 == 0,
			Engine: obs.EngineStats{Events: uint64(10 * i), WallSeconds: 1},
		}})
	}
	l.SweepDone(false, 0)
	if l.err != nil {
		t.Fatal(l.err)
	}
	recs, err := obs.ReadJSONL(bytes.NewReader(l.bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("%d records, want 5", len(recs))
	}
	for i, r := range recs {
		want := canonicalRecord(obs.Record{
			Cond: fmt.Sprintf("cond-%d", i), Iteration: i,
			Engine: obs.EngineStats{Events: uint64(10 * i)},
		})
		if !reflect.DeepEqual(r, want) {
			t.Errorf("line %d: %+v, want %+v", i, r, want)
		}
	}
}

// TestCampaignRunlogInCellOrder checks the merged runlog end to end: its
// records follow the campaign's cell order, whatever order each shard's
// parallel runs completed in.
func TestCampaignRunlogInCellOrder(t *testing.T) {
	res := runTiny(t, t.TempDir(), openCache(t))
	got := readRunlog(t, res.RunlogPath)
	cells := res.Spec.Cells()
	if len(got) != len(cells) {
		t.Fatalf("runlog has %d records, campaign has %d cells", len(got), len(cells))
	}
	for i, c := range cells {
		if r := got[i]; r.Cond != c.Cond.String() || r.Seed != c.Seed || r.Iteration != c.Iter {
			t.Errorf("record %d is %s seed %d iteration %d, want cell %s seed %d iteration %d",
				i, r.Cond, r.Seed, r.Iteration, c.Cond, c.Seed, c.Iter)
		}
	}
}

func TestCampaignDetByteIdenticalAcrossRuns(t *testing.T) {
	// Two executions from scratch — separate directories, separate caches —
	// must publish byte-identical deterministic telemetry and runlogs.
	res1 := runTiny(t, t.TempDir(), openCache(t))
	res2 := runTiny(t, t.TempDir(), openCache(t))
	if !bytes.Equal(res1.Det, res2.Det) {
		t.Fatal("deterministic JSON differs across executions")
	}
	log1, err := os.ReadFile(res1.RunlogPath)
	if err != nil {
		t.Fatal(err)
	}
	log2, err := os.ReadFile(res2.RunlogPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(log1, log2) {
		t.Fatal("merged runlog differs across executions")
	}
	// And the published det file matches the in-memory result.
	onDisk, err := os.ReadFile(res1.DetPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimRight(onDisk, "\n"), res1.Det) {
		t.Fatal("merged.det.json does not match the returned bytes")
	}
}

func TestCampaignResumeExecutesOnlyMissing(t *testing.T) {
	dir := t.TempDir()
	cache := openCache(t)
	sp := parseSpec(t, tinySpecText)

	// Execute only shard 0, as a worker that then stops.
	m, sp2, err := Init(dir, sp, false)
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{Dir: dir, Manifest: m, Spec: sp2, Cache: cache, Owner: "w0"}
	cells := sp2.Cells()
	start, end := sp2.ShardRange(0)
	if err := w.runShard(context.Background(), 0, cells[start:end], nil, DefaultLease); err != nil {
		t.Fatal(err)
	}
	if !ShardDone(dir, 0) || ShardDone(dir, 1) {
		t.Fatal("setup: want exactly shard 0 done")
	}

	// A second Run without -resume must refuse the initialised directory.
	if _, err := Run(context.Background(), sp, Options{Dir: dir, Cache: cache}); err == nil {
		t.Fatal("re-init without resume accepted")
	}

	// Resume completes only the missing shard and merges.
	res, err := Run(context.Background(), sp, Options{Dir: dir, Cache: cache, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardsRun != 1 {
		t.Fatalf("resume executed %d shards, want 1", res.ShardsRun)
	}

	// The merged output is byte-identical to an uninterrupted run.
	ref := runTiny(t, t.TempDir(), openCache(t))
	if !bytes.Equal(res.Det, ref.Det) {
		t.Fatal("resumed campaign deterministic JSON differs from uninterrupted run")
	}
}

// TestResumeIgnoresJSONShardSnapshots: a campaign directory written in an
// older snapshot layout still resumes — one from when snapshots were
// indented JSON (shard-NNNN.snap.json, merged.snap.json), and one whose
// binary shard files open with the gssnap-v1 magic. The old files are not
// done markers, so every shard re-publishes from the run cache, and the
// merge writes the same merged.det.json.
func TestResumeIgnoresJSONShardSnapshots(t *testing.T) {
	// Each case rewrites a finished directory's snapshots in an old layout.
	cases := map[string]func(t *testing.T, dir string, ref *Result){
		"json": func(t *testing.T, dir string, ref *Result) {
			oldJSON := func(snap *obs.Snapshot, name string) {
				data, err := json.MarshalIndent(snap, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < ref.Manifest.Shards; i++ {
				snap, err := obs.ReadSnapshot(SnapPath(dir, i))
				if err != nil {
					t.Fatal(err)
				}
				oldJSON(snap, fmt.Sprintf("shard-%04d.snap.json", i))
				if err := os.Remove(SnapPath(dir, i)); err != nil {
					t.Fatal(err)
				}
			}
			oldJSON(ref.Snapshot, "merged.snap.json")
			if err := os.Remove(ref.SnapPath); err != nil {
				t.Fatal(err)
			}
		},
		"gssnap-v1": func(t *testing.T, dir string, ref *Result) {
			for i := 0; i < ref.Manifest.Shards; i++ {
				data, err := os.ReadFile(SnapPath(dir, i))
				if err != nil {
					t.Fatal(err)
				}
				old := append([]byte("gssnap-v1\n"), data[len("gssnap-v2\n"):]...)
				if err := os.WriteFile(SnapPath(dir, i), old, 0o644); err != nil {
					t.Fatal(err)
				}
				if ShardDone(dir, i) {
					t.Fatalf("shard %d with the v1 magic counts as done", i)
				}
			}
		},
	}
	for name, stale := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cache := openCache(t)
			ref := runTiny(t, dir, cache)
			refDet, err := os.ReadFile(ref.DetPath)
			if err != nil {
				t.Fatal(err)
			}
			stale(t, dir, ref)

			before := cache.Stats()
			res, err := Run(context.Background(), nil, Options{Dir: dir, Cache: cache, Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.ShardsRun != ref.Manifest.Shards {
				t.Fatalf("resume executed %d shards, want all %d", res.ShardsRun, ref.Manifest.Shards)
			}
			if d := cache.Stats().Sub(before); d.Misses != 0 || d.Hits != uint64(ref.Manifest.Total) {
				t.Fatalf("resume cache activity %+v, want %d hits and no misses", d, ref.Manifest.Total)
			}
			det, err := os.ReadFile(res.DetPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(det, refDet) {
				t.Fatal("merged.det.json differs after resuming a directory of old-layout snapshots")
			}
		})
	}
}

func TestWorkerStealsExpiredClaim(t *testing.T) {
	dir := t.TempDir()
	sp := parseSpec(t, tinySpecText)
	m, sp, err := Init(dir, sp, false)
	if err != nil {
		t.Fatal(err)
	}
	// A dead worker holds shard 0 with an expired lease.
	if _, ok, err := runcache.AcquireClaim(ClaimPath(dir, 0), "dead", -time.Second); err != nil || !ok {
		t.Fatalf("seed claim: ok=%v err=%v", ok, err)
	}
	w := &Worker{Dir: dir, Manifest: m, Spec: sp, Cache: openCache(t), Owner: "alive", Poll: 10 * time.Millisecond}
	n, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != m.Shards {
		t.Fatalf("worker ran %d shards, want %d (steal failed?)", n, m.Shards)
	}
}

// TestWorkerStealsTornClaim: a shard whose claim file holds garbage (a
// torn write from outside) is stolen and published, not an error that
// stops every resume of the campaign.
func TestWorkerStealsTornClaim(t *testing.T) {
	dir := t.TempDir()
	m, sp, err := Init(dir, parseSpec(t, tinySpecText), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ClaimPath(dir, 1), []byte(`{"owner":"x","pi`), 0o644); err != nil {
		t.Fatal(err)
	}
	w := &Worker{Dir: dir, Manifest: m, Spec: sp, Cache: openCache(t), Owner: "alive", Poll: 10 * time.Millisecond}
	n, err := w.Run(context.Background())
	if err != nil {
		t.Fatalf("worker stopped on a torn claim: %v", err)
	}
	if n != m.Shards || !ShardDone(dir, 1) {
		t.Fatalf("worker ran %d of %d shards; shard 1 done: %v", n, m.Shards, ShardDone(dir, 1))
	}
}

func TestInitRejectsMismatchedSpec(t *testing.T) {
	dir := t.TempDir()
	sp := parseSpec(t, tinySpecText)
	if _, _, err := Init(dir, sp, false); err != nil {
		t.Fatal(err)
	}
	other := parseSpec(t, gridSpecText)
	if _, _, err := Init(dir, other, true); err == nil {
		t.Fatal("resume with a different spec accepted")
	}
	// Resume with a nil spec adopts the directory's own campaign.
	m, got, err := Init(dir, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != sp.ID() || got.Name != sp.Name {
		t.Fatalf("nil-spec resume loaded %s/%s", m.Name, m.ID)
	}
}

func TestInitRejectsStrayShardFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "shard-0000.snap.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Init(dir, parseSpec(t, tinySpecText), false); err == nil {
		t.Fatal("directory with stray shard files but no manifest accepted")
	}
}

func TestMergeRefusesPartialCampaign(t *testing.T) {
	dir := t.TempDir()
	sp := parseSpec(t, tinySpecText)
	m, sp, err := Init(dir, sp, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(dir, m, sp); err == nil {
		t.Fatal("merge of an unexecuted campaign accepted")
	}
}

// TestRunShardStopsOnFailedRenewal: a shard whose claim can no longer be
// renewed stops between runs, returns the renewal error and publishes
// nothing, so the shard stays missing for another worker to take.
func TestRunShardStopsOnFailedRenewal(t *testing.T) {
	dir := t.TempDir()
	m, sp, err := Init(dir, parseSpec(t, tinySpecText), false)
	if err != nil {
		t.Fatal(err)
	}
	claimDir := filepath.Join(t.TempDir(), "claims")
	if err := os.Mkdir(claimDir, 0o755); err != nil {
		t.Fatal(err)
	}
	claim, ok, err := runcache.AcquireClaim(filepath.Join(claimDir, "shard-0"), "w0", time.Minute)
	if err != nil || !ok {
		t.Fatalf("acquire claim: ok=%v err=%v", ok, err)
	}
	// Every renewal now fails: the claim's directory is gone.
	if err := os.RemoveAll(claimDir); err != nil {
		t.Fatal(err)
	}
	w := &Worker{Dir: dir, Manifest: m, Spec: sp, Owner: "w0"}
	start, end := sp.ShardRange(0)
	// A 1ns lease is due for renewal after the first run.
	if err := w.runShard(context.Background(), 0, sp.Cells()[start:end], claim, time.Nanosecond); err == nil {
		t.Fatal("runShard succeeded without renewing its claim")
	}
	if ShardDone(dir, 0) {
		t.Fatal("shard published after a failed renewal")
	}
	if _, err := os.Stat(RunlogPath(dir, 0)); !os.IsNotExist(err) {
		t.Fatalf("shard runlog written after a failed renewal (stat err %v)", err)
	}
}
