package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/runcache"
	"repro/internal/scenario"
	"repro/internal/units"
)

// TestReadCSV: the reader behind the probe reports reads empty cells as 0,
// but a cell that is not a number, a row of the wrong width or an empty
// file is an error naming where it is, never a silent 0.
func TestReadCSV(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		want    map[string][]float64
		wantErr string
	}{
		{
			name: "numbers",
			in:   "t_s,bytes\n0,1500\n0.5,3e3\n",
			want: map[string][]float64{"t_s": {0, 0.5}, "bytes": {1500, 3000}},
		},
		{
			name: "empty cells of a ragged column",
			in:   "t_s,bytes,sojourn_us\n0,1500,40\n0.5,3000,\n1,,\n",
			want: map[string][]float64{
				"t_s": {0, 0.5, 1}, "bytes": {1500, 3000, 0}, "sojourn_us": {40, 0, 0},
			},
		},
		{
			name:    "malformed cell",
			in:      "t_s,bytes\n0,1500\n0.5,15OO\n",
			wantErr: `line 3, column 2 (bytes): "15OO" is not a number`,
		},
		{
			name:    "short row",
			in:      "t_s,bytes,sojourn_us\n0,1500\n",
			wantErr: "line 2: 2 fields, header has 3",
		},
		{
			name:    "long row",
			in:      "t_s,bytes\n0,1500,40\n",
			wantErr: "line 2: 3 fields, header has 2",
		},
		{
			name:    "empty file",
			in:      "",
			wantErr: "empty file",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := readColumns(tc.in)
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("columns %v, want %v", got, tc.want)
			}
		})
	}
}

// readColumns reads every column of a headered CSV as numbers.
func readColumns(in string) (map[string][]float64, error) {
	tb, err := readTable(strings.NewReader(in))
	if err != nil {
		return nil, err
	}
	vals, err := tb.floats(tb.headers...)
	if err != nil {
		return nil, err
	}
	cols := make(map[string][]float64, len(tb.headers))
	for k, h := range tb.headers {
		cols[h] = vals[k]
	}
	return cols, nil
}

// TestProbeReportsRejectMalformedCells: the probe summaries read through
// one reader, so a malformed numeric cell or a row of the wrong width is
// an error naming where it is, never a silent 0.
func TestProbeReportsRejectMalformedCells(t *testing.T) {
	const (
		ccHeader    = "flow,alg,t_s,cwnd_bytes,inflight_bytes,srtt_us,mode\n"
		queueHeader = "queue,t_s,packets,bytes,sojourn_us,cum_drops\n"
		dropsHeader = "queue,t_s,flow,id,size\n"
	)
	cases := []struct {
		name    string
		report  func(path string) error
		in      string
		wantErr string
	}{
		{
			name:   "cc well formed",
			report: reportCC,
			in:     ccHeader + "tcp0,cubic,0.1,14600,2920,40000,\ntcp0,cubic,0.2,29200,,41000,\n",
		},
		{
			name:    "cc malformed cwnd",
			report:  reportCC,
			in:      ccHeader + "tcp0,cubic,0.1,14600,2920,40000,\ntcp0,cubic,0.2,6o100,2920,41000,\n",
			wantErr: `line 3, column 4 (cwnd_bytes): "6o100" is not a number`,
		},
		{
			name:    "cc row missing its last field",
			report:  reportCC,
			in:      ccHeader + "tcp0,cubic,0.1,14600,2920,40000\n",
			wantErr: "line 2: 6 fields, header has 7",
		},
		{
			name:   "queue well formed",
			report: reportQueue,
			in:     queueHeader + "bottleneck,0.1,3,4500,,0\nbottleneck,0.2,5,7500,1200,2\n",
		},
		{
			name:    "queue malformed depth",
			report:  reportQueue,
			in:      queueHeader + "bottleneck,0.1,3,45OO,,0\n",
			wantErr: `line 2, column 4 (bytes): "45OO" is not a number`,
		},
		{
			name:    "queue long row",
			report:  reportQueue,
			in:      queueHeader + "bottleneck,0.1,3,4500,,0,9\n",
			wantErr: "line 2: 7 fields, header has 6",
		},
		{
			name:    "drops malformed size",
			report:  reportDrops,
			in:      dropsHeader + "bottleneck,0.1,game,1,1200\nbottleneck,0.2,game,2,12x0\n",
			wantErr: `line 3, column 5 (size): "12x0" is not a number`,
		},
		{
			name:    "drops missing column",
			report:  reportDrops,
			in:      "queue,t_s,flow,id\nbottleneck,0.1,game,1\n",
			wantErr: "no size column",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "probe.csv")
			if err := os.WriteFile(path, []byte(tc.in), 0o644); err != nil {
				t.Fatal(err)
			}
			var err error
			stdout(t, func() { err = tc.report(path) })
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if want := path + ": " + tc.wantErr; err == nil || err.Error() != want {
				t.Fatalf("err = %v, want %q", err, want)
			}
		})
	}
}

// TestReportKind builds a real artefact of every kind gsreport reads and
// checks each is recognised by its content — a snapshot named x.jsonl
// included — and renders; a gssim trace CSV, an empty file, a directory
// without a manifest and a missing path are rejected.
func TestReportKind(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	tl := metrics.PaperTimeline.Scale(0.02)
	cond := experiment.Condition{System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2}
	cfg := experiment.RunConfig{Condition: cond, Timeline: tl, Seed: 3,
		Probe: &probe.Config{Interval: 100 * time.Millisecond}}

	// One probed run gives the probe exports, the run log and a snapshot.
	logFile, err := os.Create(at("runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	agg := obs.NewAggregator()
	experiment.Execute(context.Background(), []experiment.Job{{Cfg: cfg}}, 1, nil,
		experiment.Sinks{Progress: obs.MultiProgress(agg, obs.NewJSONL(logFile)), ProbeDir: at("probes")}, nil)
	if err := logFile.Close(); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteSnapshot(at("x.jsonl"), agg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	probes := filepath.Join(at("probes"), experiment.ProbeBase(cond, cfg.Seed))

	rep, err := scenario.RunChaos(scenario.ChaosConfig{Seed: 1, Runs: 2, Scale: 0.02, Workers: 1, SampleEvery: -1}, experiment.Sinks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.SaveReport(at("chaos.json"), rep); err != nil {
		t.Fatal(err)
	}

	sp, err := campaign.ParseSpec(strings.NewReader(`
[campaign]
name = kinds
seed = 7
iterations = 1
scale = 0.02
shards = 2

[grid]
systems = stadia
ccas = cubic, solo
capacities = 25mbit
queue_mults = 2
`))
	if err != nil {
		t.Fatal(err)
	}
	cache, err := runcache.Open(at("cache"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Run(context.Background(), sp, campaign.Options{Dir: at("camp"), Cache: cache}); err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(at("trace.csv"), []byte("t_sec,game_mbps,tcp_mbps,rtt_ms,fps,game_loss\n0,20.1,0,17.2,60,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(at("empty"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ path, kind string }{
		{at("camp"), "campaign"},
		{at("x.jsonl"), "telemetry"},
		{at("camp/merged.snap"), "telemetry"},
		{at("runs.jsonl"), "runlog"},
		{at("camp/merged.runs.jsonl"), "runlog"},
		{at("chaos.json"), "invariants"},
		{probes + ".cc.csv", "cc"},
		{probes + ".queue.csv", "queue"},
		{probes + ".drops.csv", "drops"},
	} {
		kind, err := sniff(tc.path)
		if err != nil || kind != tc.kind {
			t.Errorf("sniff(%s) = %q, %v; want %q", tc.path, kind, err, tc.kind)
			continue
		}
		if out := stdout(t, func() { err = reports[kind](tc.path) }); err != nil || out == "" {
			t.Errorf("%s report of %s: %v, %d bytes", kind, tc.path, err, len(out))
		}
	}
	for _, path := range []string{at("trace.csv"), at("empty"), at("cache"), at("missing")} {
		if kind, err := sniff(path); err == nil {
			t.Errorf("sniff(%s) = %q, want an error", path, kind)
		}
	}
	if _, err := sniff(at("trace.csv")); err == nil || !strings.Contains(err.Error(), kinds) {
		t.Errorf("rejecting a trace CSV: %v, want the kinds gsreport reads named", err)
	}
}

// TestCampaignReportListsUnfinishedShards: an unfinished campaign's report
// names each unfinished shard's claim owner, says its claim is
// unreadable, or says it is missing, and leaves finished shards out.
func TestCampaignReportListsUnfinishedShards(t *testing.T) {
	dir := t.TempDir()
	sp, err := campaign.ParseSpec(strings.NewReader(`
[campaign]
name = partial
seed = 7
iterations = 4
scale = 0.02
shards = 4

[grid]
systems = stadia
ccas = cubic, bbr, solo
capacities = 25mbit
queue_mults = 2
`))
	if err != nil {
		t.Fatal(err)
	}
	cache, err := runcache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	camp := filepath.Join(dir, "camp")
	if _, err := campaign.Run(context.Background(), sp, campaign.Options{Dir: camp, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2, 3} {
		if err := os.Remove(campaign.SnapPath(camp, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := runcache.AcquireClaim(campaign.ClaimPath(camp, 1), "w7", time.Hour); !ok || err != nil {
		t.Fatalf("claim shard 1: %v, %v", ok, err)
	}
	if err := os.WriteFile(campaign.ClaimPath(camp, 3), []byte(`{"owner":"x","pi`), 0o644); err != nil {
		t.Fatal(err)
	}
	var rerr error
	out := stdout(t, func() { rerr = reportCampaign(camp) })
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, want := range []string{"1 done\n", "  shard 0001  claimed by w7\n", "  shard 0002  missing\n",
		"  shard 0003  unreadable claim\n", "missing shards: [1 2 3]"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "shard 0000") {
		t.Errorf("report lists the finished shard:\n%s", out)
	}
}

// stdout runs fn and returns what it wrote to os.Stdout.
func stdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	defer func() { os.Stdout = saved }()
	fn()
	w.Close()
	return <-done
}
