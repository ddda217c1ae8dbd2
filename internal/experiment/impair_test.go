package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/units"
)

var updateGolden = flag.Bool("update", false, "rewrite checked-in golden digests")

func TestParseLoss(t *testing.T) {
	cases := []struct {
		spec    string
		want    netem.Impairment
		wantErr bool
	}{
		{spec: "", want: netem.Impairment{}},
		{spec: "none", want: netem.Impairment{}},
		{spec: "2%", want: netem.Impairment{LossModel: netem.LossBernoulli, LossRate: 0.02}},
		{spec: "0.02", want: netem.Impairment{LossModel: netem.LossBernoulli, LossRate: 0.02}},
		{spec: "ge:p=0.01,r=0.25", want: netem.Impairment{LossModel: netem.LossGE, GEGoodBad: 0.01, GEBadGood: 0.25}},
		{spec: "ge:p=1%,r=25%,good=0.001,bad=0.9", want: netem.Impairment{
			LossModel: netem.LossGE, GEGoodBad: 0.01, GEBadGood: 0.25, GELossGood: 0.001, GELossBad: 0.9}},
		{spec: "150%", wantErr: true},
		{spec: "-0.1", wantErr: true},
		{spec: "abc", wantErr: true},
		{spec: "ge:r=0.25", wantErr: true},       // GE needs p > 0
		{spec: "ge:p=0.01,q=0.5", wantErr: true}, // unknown parameter
		{spec: "ge:p0.01", wantErr: true},        // missing '='
	}
	for _, tc := range cases {
		var im netem.Impairment
		err := ParseLoss(tc.spec, &im)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseLoss(%q): want error, got %+v", tc.spec, im)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseLoss(%q): %v", tc.spec, err)
			continue
		}
		if im != tc.want {
			t.Errorf("ParseLoss(%q) = %+v, want %+v", tc.spec, im, tc.want)
		}
	}

	// ParseLoss must not clobber non-loss fields, and must clear a prior
	// loss model on "none".
	im := netem.Impairment{Jitter: 3 * time.Millisecond, Duplicate: 0.01}
	if err := ParseLoss("5%", &im); err != nil {
		t.Fatal(err)
	}
	if im.Jitter != 3*time.Millisecond || im.Duplicate != 0.01 || im.LossRate != 0.05 {
		t.Errorf("ParseLoss clobbered non-loss fields: %+v", im)
	}
	if err := ParseLoss("none", &im); err != nil {
		t.Fatal(err)
	}
	if im.LossModel != "" || im.Jitter != 3*time.Millisecond {
		t.Errorf("ParseLoss(none) wrong result: %+v", im)
	}
}

func TestParseProb(t *testing.T) {
	if p, err := ParseProb("1%"); err != nil || p != 0.01 {
		t.Errorf("ParseProb(1%%) = %v, %v", p, err)
	}
	if _, err := ParseProb("two"); err == nil {
		t.Error("ParseProb(two): want error")
	}
}

func TestParseSchedule(t *testing.T) {
	steps, err := ParseSchedule("30s loss=2%; 15s rate=10mbit; 45s down; 50s up; 60s jitter=3ms; 70s delay=20ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 6 {
		t.Fatalf("got %d steps", len(steps))
	}
	// Sorted by offset regardless of input order.
	for i := 1; i < len(steps); i++ {
		if steps[i].At < steps[i-1].At {
			t.Fatalf("steps not sorted: %v", steps)
		}
	}
	if steps[0].Kind != ScheduleRate || steps[0].Rate != units.Mbps(10) {
		t.Errorf("step 0 = %+v, want 15s rate=10mbit", steps[0])
	}
	if steps[1].Kind != ScheduleLoss || steps[1].LossRate != 0.02 {
		t.Errorf("step 1 = %+v, want 30s loss=2%%", steps[1])
	}

	// Round-trip: rendering and re-parsing reproduces the steps.
	again, err := ParseSchedule(ScheduleString(steps))
	if err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(again) != len(steps) {
		t.Fatalf("round-trip length %d != %d", len(again), len(steps))
	}
	for i := range steps {
		if again[i] != steps[i] {
			t.Errorf("round-trip step %d: %+v != %+v", i, again[i], steps[i])
		}
	}

	if s, err := ParseSchedule(""); err != nil || s != nil {
		t.Errorf("empty schedule: %v, %v", s, err)
	}
	for _, bad := range []string{
		"x rate=10mbit", // bad offset
		"10s warp=9",    // unknown kind
		"10s down=1",    // down takes no value
		"10s rate=fast", // bad rate
		"10s loss=2",    // probability outside [0,1]
		"10s",           // missing kind
		"-5s down",      // negative offset
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q): want error", bad)
		}
	}
}

func TestConditionStringImpair(t *testing.T) {
	base := Condition{System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2}
	plain := base.String()
	if strings.Contains(plain, "loss") {
		t.Fatalf("clean condition string mentions loss: %q", plain)
	}
	base.Impair = netem.Impairment{LossModel: netem.LossBernoulli, LossRate: 0.02, Jitter: 3 * time.Millisecond}
	got := base.String()
	if !strings.HasPrefix(got, plain+"/") || !strings.Contains(got, "loss2%") || !strings.Contains(got, "jit3ms") {
		t.Errorf("impaired condition string = %q", got)
	}
}

// impairedRun is the golden-seed workload for the impairment determinism
// contract: GE loss, reordering jitter, duplicates, and a schedule touching
// every retunable element (rate step, extra loss, a flap, a delay change),
// all under full probe capture.
func impairedRun(seed uint64) *RunResult {
	sched, err := ParseSchedule("8s rate=15mbit; 15s loss=3%; 20s down; 21s up; 30s delay=20ms; 35s jitter=1ms")
	if err != nil {
		panic(err)
	}
	return Run(RunConfig{
		Condition: Condition{
			System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2,
			Impair: netem.Impairment{
				LossModel: netem.LossGE,
				GEGoodBad: 0.005, GEBadGood: 0.3,
				Jitter:    2 * time.Millisecond,
				Reorder:   true,
				Duplicate: 0.005,
			},
		},
		Timeline: metrics.PaperTimeline.Scale(0.1),
		Seed:     seed,
		Schedule: sched,
		Probe:    &probe.Config{Interval: 100 * time.Millisecond, Events: 1 << 12},
	})
}

func TestImpairedRunEndToEnd(t *testing.T) {
	r := impairedRun(11)
	is := r.Impair
	if is.Packets == 0 {
		t.Fatal("impairer saw no packets")
	}
	if is.LossDrops == 0 {
		t.Error("GE loss produced no drops")
	}
	if is.FlapDrops == 0 {
		t.Error("link flap produced no drops")
	}
	if is.Flaps != 1 {
		t.Errorf("Flaps = %d, want 1", is.Flaps)
	}
	wantDown := time.Second // 20s..21s at scale 0.1 is still 1 s of sim time
	if is.Down != wantDown {
		t.Errorf("Down = %v, want %v", is.Down, wantDown)
	}
	if is.Duplicates == 0 || is.Reordered == 0 {
		t.Errorf("Duplicates = %d, Reordered = %d, want both > 0", is.Duplicates, is.Reordered)
	}

	// The structured record carries the impairment block.
	rec := r.Record(0)
	if rec.Impair == nil {
		t.Fatal("Record.Impair nil for impaired run")
	}
	if rec.Impair.LossDrops != is.LossDrops || rec.Impair.Flaps != 1 || rec.Impair.DownSeconds != 1 {
		t.Errorf("Record.Impair = %+v", rec.Impair)
	}
	if rec.Impair.Spec != r.Cfg.Impair.String() || rec.Impair.Schedule == "" {
		t.Errorf("Record.Impair spec/schedule = %q / %q", rec.Impair.Spec, rec.Impair.Schedule)
	}
	if !strings.Contains(rec.Cond, "ge") {
		t.Errorf("impaired condition label %q lacks impairment suffix", rec.Cond)
	}

	// Impairer drops must be visible in the probe's drop series.
	found := false
	for _, qp := range r.Probe.Queues() {
		if qp.Name == "impairer" && qp.DropEvents.Len() > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no impairer drop events in probe capture")
	}

	// A clean run's record must NOT carry an impairment block.
	clean := Run(RunConfig{
		Condition: Condition{System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2},
		Timeline:  metrics.PaperTimeline.Scale(0.05),
		Seed:      11,
	})
	if rec := clean.Record(0); rec.Impair != nil {
		t.Errorf("clean run Record.Impair = %+v, want nil", rec.Impair)
	}
}

// TestImpairedGoldenSeed extends the determinism contract to the impairment
// path: the impairer's forked RNG, jittered delivery timers, and schedule
// retunes must all replay byte-identically for a fixed seed.
func TestImpairedGoldenSeed(t *testing.T) {
	a := impairedRun(42)
	b := impairedRun(42)
	if a.Engine.EventsDispatched != b.Engine.EventsDispatched {
		t.Errorf("Engine.EventsDispatched diverged: %d vs %d", a.Engine.EventsDispatched, b.Engine.EventsDispatched)
	}
	if a.Impair != b.Impair {
		t.Errorf("impairment stats diverged: %+v vs %+v", a.Impair, b.Impair)
	}
	ea, eb := exportBytes(t, a), exportBytes(t, b)
	for name := range ea {
		if len(ea[name]) == 0 {
			t.Errorf("%s export empty — test exercises nothing", name)
		}
		if !bytes.Equal(ea[name], eb[name]) {
			t.Errorf("%s export not byte-identical across impaired runs", name)
		}
	}
	c := impairedRun(43)
	if ec := exportBytes(t, c); bytes.Equal(ea["cc.csv"], ec["cc.csv"]) {
		t.Error("different seeds produced identical impaired cc.csv")
	}
}

// TestImpairedGoldenDigest pins the impaired probe exports to a checked-in
// SHA-256, so a change anywhere in the packet path (RNG fork order, event
// ordering, pool reuse) that silently shifts impaired traces fails CI.
// Regenerate with: go test ./internal/experiment -run ImpairedGoldenDigest -update
func TestImpairedGoldenDigest(t *testing.T) {
	r := impairedRun(42)
	ex := exportBytes(t, r)
	h := sha256.New()
	for _, name := range []string{"cc.csv", "queue.csv", "drops.csv", "events.jsonl"} {
		h.Write(ex[name])
	}
	checkGoldenDigest(t, "impaired_golden.sha256", hex.EncodeToString(h.Sum(nil)))
}

// checkGoldenDigest compares got with the digest checked in as
// testdata/name, or rewrites that file under -update.
func checkGoldenDigest(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Errorf("golden digest %s changed:\n got %s\nwant %s\nIf the change is intended, regenerate with -update.", name, got, strings.TrimSpace(string(want)))
	}
}

// TestImpairedSweepAcrossWorkers checks that impaired, scheduled runs keep
// the worker-count independence guarantee: per-run RNG forks and per-run
// impairers must make 1-, 4- and 8-worker executions agree run for run.
func TestImpairedSweepAcrossWorkers(t *testing.T) {
	sched, err := ParseSchedule("10s down; 11s up")
	if err != nil {
		t.Fatal(err)
	}
	imps := []netem.Impairment{
		{LossModel: netem.LossBernoulli, LossRate: 0.01},
		{LossModel: netem.LossGE, GEGoodBad: 0.01, GEBadGood: 0.25, Jitter: time.Millisecond, Reorder: true},
	}
	var jobs []Job
	conds := map[Condition]bool{}
	for it := 0; it < 2; it++ {
		for _, imp := range imps {
			for _, cca := range []string{"cubic", "bbr"} {
				cond := Condition{System: gamestream.Stadia, CCA: cca, Capacity: units.Mbps(25), QueueMult: 2, Impair: imp}
				conds[cond] = true
				jobs = append(jobs, Job{Iter: it, Cfg: RunConfig{
					Condition: cond,
					Timeline:  metrics.PaperTimeline.Scale(0.05),
					Seed:      RunSeed(7, it, cond),
					Schedule:  sched,
				}})
			}
		}
	}
	// 1 system x 2 CCAs x 2 impairments = 4 conditions.
	if len(conds) != 4 {
		t.Fatalf("got %d conditions, want 4", len(conds))
	}
	var execs [][]*RunResult
	for _, w := range []int{1, 4, 8} {
		runs := make([]*RunResult, len(jobs))
		if n := Execute(context.Background(), jobs, w, nil, Sinks{}, func(i int, r *RunResult, _ bool) { runs[i] = r }); n != len(jobs) {
			t.Fatalf("%d workers completed %d of %d runs", w, n, len(jobs))
		}
		execs = append(execs, runs)
	}
	ra := execs[0]
	for _, rb := range execs[1:] {
		for i, x := range ra {
			y := rb[i]
			cond := jobs[i].Cfg.Condition
			if x.Engine.EventsDispatched != y.Engine.EventsDispatched || x.Impair != y.Impair {
				t.Errorf("%s run %d diverged across worker counts: %+v vs %+v",
					cond, jobs[i].Iter, x.Impair, y.Impair)
			}
			for j := range x.GameMbps {
				if x.GameMbps[j] != y.GameMbps[j] {
					t.Fatalf("%s run %d bin %d diverged", cond, jobs[i].Iter, j)
				}
			}
		}
	}
	// Each impaired run must actually have flapped once (schedule applied
	// in executor workers too).
	for i, r := range ra {
		if r.Impair.Flaps != 1 || r.Impair.FlapDrops == 0 {
			t.Errorf("%s run %d: Flaps=%d FlapDrops=%d, want schedule applied",
				jobs[i].Cfg.Condition, jobs[i].Iter, r.Impair.Flaps, r.Impair.FlapDrops)
		}
	}
}
