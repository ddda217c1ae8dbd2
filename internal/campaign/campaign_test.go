package campaign

import (
	"bytes"
	"context"
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
