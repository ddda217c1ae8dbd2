package experiment

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/units"
)

// quickTL compresses the 9-minute procedure to 1/5 for test speed; phase
// proportions (flow in the middle third) are preserved.
var quickTL = metrics.PaperTimeline.Scale(0.2)

func quickRun(t *testing.T, cond Condition, seed uint64) *RunResult {
	t.Helper()
	return Run(RunConfig{Condition: cond, Timeline: quickTL, Seed: seed})
}

func TestRunProducesCompleteSeries(t *testing.T) {
	r := quickRun(t, Condition{
		System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2,
	}, 1)
	wantBins := int(quickTL.TraceEnd / r.Bin)
	if len(r.GameMbps) != wantBins {
		t.Errorf("game series has %d bins, want %d", len(r.GameMbps), wantBins)
	}
	if len(r.TCPMbps) != wantBins {
		t.Errorf("tcp series has %d bins, want %d", len(r.TCPMbps), wantBins)
	}
	if len(r.RTT) == 0 {
		t.Error("no RTT samples")
	}
	if r.FramesDisplayed == 0 {
		t.Error("no frames displayed")
	}
	if r.Engine.EventsDispatched == 0 {
		t.Error("no events processed")
	}
}

func TestCompetingFlowOnlyInMiddlePhase(t *testing.T) {
	r := quickRun(t, Condition{
		System: gamestream.Luna, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2,
	}, 2)
	tcp := r.TCPSeries()
	before := tcp.MeanBetween(0, quickTL.FlowStart-2*time.Second)
	during := tcp.MeanBetween(quickTL.FlowStart+5*time.Second, quickTL.FlowStop)
	if before > 0.01 {
		t.Errorf("TCP traffic before flow start: %.2f Mb/s", before)
	}
	if during < 1 {
		t.Errorf("TCP flow averaged %.2f Mb/s during its active phase", during)
	}
	// After departure only in-flight drains; the tail must fall to ~0.
	after := tcp.MeanBetween(quickTL.FlowStop+5*time.Second, quickTL.TraceEnd)
	if after > 0.1 {
		t.Errorf("TCP traffic after flow stop: %.2f Mb/s", after)
	}
}

func TestGameRespondsAndRecovers(t *testing.T) {
	r := quickRun(t, Condition{
		System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2,
	}, 3)
	game := r.GameSeries()
	pre := game.MeanBetween(quickTL.FlowStart/2, quickTL.FlowStart)
	during := game.MeanBetween(quickTL.FlowStart+10*time.Second, quickTL.FlowStop)
	if pre < 15 {
		t.Errorf("pre-contention bitrate %.1f Mb/s, want near capacity", pre)
	}
	if during >= pre {
		t.Errorf("no response to competing flow: pre %.1f, during %.1f", pre, during)
	}
}

func TestSoloRunHasNoCompetitor(t *testing.T) {
	r := quickRun(t, Condition{
		System: gamestream.GeForce, CCA: "", Capacity: units.Mbps(15), QueueMult: 2,
	}, 4)
	if got := r.TCPSeries().MeanBetween(0, quickTL.TraceEnd); got != 0 {
		t.Errorf("solo run shows TCP traffic: %v", got)
	}
	ff, ft := quickTL.FairnessWindow()
	if got := r.GameSeries().MeanBetween(ff, ft); got < 10 || got > 15.2 {
		t.Errorf("solo constrained bitrate %.1f, want ~12-15", got)
	}
}

func TestRunDeterminism(t *testing.T) {
	cond := Condition{System: gamestream.Luna, CCA: "bbr", Capacity: units.Mbps(25), QueueMult: 0.5}
	a := quickRun(t, cond, 42)
	b := quickRun(t, cond, 42)
	if a.FramesDisplayed != b.FramesDisplayed || a.Engine.EventsDispatched != b.Engine.EventsDispatched {
		t.Error("identical configs diverged")
	}
	for i := range a.GameMbps {
		if a.GameMbps[i] != b.GameMbps[i] {
			t.Fatalf("bin %d differs: %v vs %v", i, a.GameMbps[i], b.GameMbps[i])
		}
	}
	c := quickRun(t, cond, 43)
	same := true
	for i := range a.GameMbps {
		if a.GameMbps[i] != c.GameMbps[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical series")
	}
}

func TestQueueBytes(t *testing.T) {
	cfg := RunConfig{Condition: Condition{Capacity: units.Mbps(25), QueueMult: 2}}.Defaults()
	// 2x BDP at 25 Mb/s, 16.5 ms = 2 * 51562 = 103124 bytes.
	if got := cfg.QueueBytes(); got != 103124 {
		t.Errorf("QueueBytes = %d, want 103124", got)
	}
	// Tiny queues clamp to 2 MTU.
	tiny := RunConfig{Condition: Condition{Capacity: units.Mbps(1), QueueMult: 0.1}}.Defaults()
	if got := tiny.QueueBytes(); got != 2*1514 {
		t.Errorf("tiny QueueBytes = %d, want %d", got, 2*1514)
	}
}

func TestConditionString(t *testing.T) {
	c := Condition{System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2}
	if got := c.String(); got != "stadia/cubic/B25/q2.0x" {
		t.Errorf("String = %q", got)
	}
	solo := Condition{System: gamestream.Luna, Capacity: units.Mbps(15), QueueMult: 0.5}
	if got := solo.String(); got != "luna/solo/B15/q0.5x" {
		t.Errorf("String = %q", got)
	}
}

func TestRunSeedDistinct(t *testing.T) {
	c1 := Condition{System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2}
	c2 := Condition{System: gamestream.Luna, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2}
	seen := map[uint64]bool{}
	for it := 0; it < 10; it++ {
		for _, c := range []Condition{c1, c2} {
			s := RunSeed(7, it, c)
			if seen[s] {
				t.Fatalf("duplicate seed %d", s)
			}
			seen[s] = true
		}
	}
}

func TestRunSweepAggregation(t *testing.T) {
	cfg := SweepConfig{
		Systems:    []gamestream.System{gamestream.GeForce},
		CCAs:       []string{"cubic"},
		Capacities: []units.Rate{units.Mbps(25)},
		QueueMults: []float64{2},
		Iterations: 3,
		Timeline:   quickTL,
		Workers:    3,
	}
	sw := RunSweep(context.Background(), cfg)
	if sw.Interrupted {
		t.Error("uncancelled sweep flagged Interrupted")
	}
	if len(sw.Conditions) != 1 {
		t.Fatalf("conditions = %d, want 1", len(sw.Conditions))
	}
	cond := sw.Conditions[0]
	if len(cond.Runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(cond.Runs))
	}
	ff, ft := cond.ContentionWindow()
	gr := cond.GameRate(ff, ft)
	if gr.N != 3 || gr.Mean <= 0 {
		t.Errorf("GameRate summary = %+v", gr)
	}
	if fr := cond.FairnessRatio(); fr < -1 || fr > 1 {
		t.Errorf("fairness out of range: %v", fr)
	}
	rtt := cond.RTTStats(ff, ft)
	if rtt.Mean < 16 {
		t.Errorf("pooled RTT mean %.1f ms below base RTT", rtt.Mean)
	}
	fps := cond.FPSStats(ff, ft)
	if fps.Mean <= 0 || fps.Mean > 61 {
		t.Errorf("fps mean %.1f out of range", fps.Mean)
	}
	mean, ci := cond.MeanGameSeries()
	if len(mean.V) == 0 || len(ci) != len(mean.V) {
		t.Error("mean series malformed")
	}
	if sw.Find(cond.Cond) != cond {
		t.Error("Find did not locate the condition")
	}
	if sw.Find(Condition{System: "nope"}) != nil {
		t.Error("Find invented a condition")
	}
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	base := SweepConfig{
		Systems:    []gamestream.System{gamestream.Stadia},
		CCAs:       []string{"bbr"},
		Capacities: []units.Rate{units.Mbps(15)},
		QueueMults: []float64{0.5},
		Iterations: 2,
		Timeline:   quickTL,
	}
	one := base
	one.Workers = 1
	four := base
	four.Workers = 4
	a := RunSweep(context.Background(), one)
	b := RunSweep(context.Background(), four)
	ra := a.Conditions[0].Runs
	rb := b.Conditions[0].Runs
	if len(ra) != len(rb) {
		t.Fatal("run counts differ")
	}
	for i := range ra {
		if ra[i].Cfg.Seed != rb[i].Cfg.Seed || ra[i].FramesDisplayed != rb[i].FramesDisplayed {
			t.Fatalf("run %d differs across worker counts", i)
		}
	}
}

func TestAQMVariants(t *testing.T) {
	for _, aqm := range []string{AQMDropTail, AQMCoDel, AQMFQCoDel} {
		r := Run(RunConfig{
			Condition: Condition{
				System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25),
				QueueMult: 7, AQM: aqm,
			},
			Timeline: quickTL,
			Seed:     5,
		})
		ff, ft := quickTL.FairnessWindow()
		if got := r.GameSeries().MeanBetween(ff, ft); got <= 0 {
			t.Errorf("%s: game starved entirely", aqm)
		}
	}
}

func TestFQCoDelReducesRTTUnderBloat(t *testing.T) {
	run := func(aqm string) float64 {
		r := Run(RunConfig{
			Condition: Condition{
				System: gamestream.GeForce, CCA: "cubic", Capacity: units.Mbps(25),
				QueueMult: 7, AQM: aqm,
			},
			Timeline: quickTL,
			Seed:     6,
		})
		ff, ft := quickTL.FairnessWindow()
		xs := r.RTTBetween(ff, ft)
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	dt := run(AQMDropTail)
	fq := run(AQMFQCoDel)
	if fq >= dt/2 {
		t.Errorf("FQ-CoDel RTT %.1f ms not clearly below drop-tail %.1f ms", fq, dt)
	}
}

func TestUnknownAQMPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown AQM did not panic")
		}
	}()
	Run(RunConfig{Condition: Condition{
		System: gamestream.Stadia, Capacity: units.Mbps(25), QueueMult: 2, AQM: "red",
	}, Timeline: quickTL})
}

func TestSweepSaveLoadRoundtrip(t *testing.T) {
	cfg := SweepConfig{
		Systems:    []gamestream.System{gamestream.Stadia},
		CCAs:       []string{"cubic"},
		Capacities: []units.Rate{units.Mbps(25)},
		QueueMults: []float64{2},
		Iterations: 2,
		Timeline:   quickTL,
		Workers:    2,
	}
	orig := RunSweep(context.Background(), cfg)
	path := t.TempDir() + "/sweep.gz"
	if err := SaveSweep(path, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSweep(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Conditions) != len(orig.Conditions) {
		t.Fatalf("conditions %d != %d", len(loaded.Conditions), len(orig.Conditions))
	}
	oc, lc := orig.Conditions[0], loaded.Conditions[0]
	if oc.Cond != lc.Cond || len(oc.Runs) != len(lc.Runs) {
		t.Fatal("condition mismatch")
	}
	for i := range oc.Runs {
		a, b := oc.Runs[i], lc.Runs[i]
		if a.Cfg.Seed != b.Cfg.Seed || a.FramesDisplayed != b.FramesDisplayed {
			t.Fatalf("run %d scalar mismatch", i)
		}
		for j := range a.GameMbps {
			if a.GameMbps[j] != b.GameMbps[j] {
				t.Fatalf("run %d bin %d mismatch", i, j)
			}
		}
		if len(a.RTT) != len(b.RTT) || (len(a.RTT) > 0 && a.RTT[0] != b.RTT[0]) {
			t.Fatalf("run %d RTT mismatch", i)
		}
	}
	// Derived metrics must match exactly.
	ff, ft := oc.ContentionWindow()
	if oc.GameRate(ff, ft) != lc.GameRate(ff, ft) {
		t.Error("GameRate differs after roundtrip")
	}
	if oc.FairnessRatio() != lc.FairnessRatio() {
		t.Error("FairnessRatio differs after roundtrip")
	}
}

func TestLoadSweepMissingFile(t *testing.T) {
	if _, err := LoadSweep(t.TempDir() + "/nope.gz"); err == nil {
		t.Error("loading a missing sweep did not error")
	}
}

// cancellingProgress is a Progress sink that cancels the sweep's context
// after a fixed number of completed runs.
type cancellingProgress struct {
	cancel context.CancelFunc
	after  int

	mu       sync.Mutex
	total    int
	updates  []obs.Update
	finished bool
	partial  bool
}

func (p *cancellingProgress) SweepStart(total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total = total
}

func (p *cancellingProgress) RunDone(u obs.Update) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.updates = append(p.updates, u)
	if len(p.updates) == p.after {
		p.cancel()
	}
}

func (p *cancellingProgress) SweepDone(interrupted bool, _ time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.finished = true
	p.partial = interrupted
}

func TestSweepCancellationReturnsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancellingProgress{cancel: cancel, after: 2}

	before := runtime.NumGoroutine()
	cfg := SweepConfig{
		Systems:    gamestream.Systems,
		CCAs:       []string{"cubic", "bbr"},
		Capacities: []units.Rate{units.Mbps(25)},
		QueueMults: []float64{2},
		Iterations: 4,
		Timeline:   quickTL,
		Workers:    2,
		Progress:   sink,
	}
	sw := RunSweep(ctx, cfg)

	if !sw.Interrupted {
		t.Error("cancelled sweep not flagged Interrupted")
	}
	done := 0
	for _, c := range sw.Conditions {
		done += len(c.Runs)
	}
	if done == 0 {
		t.Error("cancelled sweep returned no completed runs")
	}
	total := 3 * 2 * 4 // systems × ccas × iterations
	if done >= total {
		t.Errorf("cancelled sweep completed all %d runs", total)
	}
	sink.mu.Lock()
	if sink.total != total {
		t.Errorf("SweepStart total = %d, want %d", sink.total, total)
	}
	if len(sink.updates) != done {
		t.Errorf("progress saw %d runs, results hold %d", len(sink.updates), done)
	}
	if !sink.finished || !sink.partial {
		t.Error("SweepDone not called with interrupted=true")
	}
	sink.mu.Unlock()

	// Workers and the job feeder must have drained: the goroutine count
	// returns to (near) its pre-sweep level.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before sweep, %d after", before, runtime.NumGoroutine())
}

func TestSweepRunLogRecords(t *testing.T) {
	var buf bytes.Buffer
	log := obs.NewJSONL(&buf)
	cfg := SweepConfig{
		Systems:    []gamestream.System{gamestream.Stadia},
		CCAs:       []string{"cubic"},
		Capacities: []units.Rate{units.Mbps(25)},
		QueueMults: []float64{2},
		Iterations: 2,
		Timeline:   quickTL,
		Workers:    2,
		Progress:   log,
	}
	sw := RunSweep(context.Background(), cfg)
	recs, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("run log has %d records, want 2", len(recs))
	}
	runs := sw.Conditions[0].Runs
	seeds := map[uint64]bool{}
	for _, r := range runs {
		seeds[r.Cfg.Seed] = true
	}
	for _, rec := range recs {
		if !seeds[rec.Seed] {
			t.Errorf("record seed %d not among the sweep's runs", rec.Seed)
		}
		if rec.Cond != runs[0].Cfg.Condition.String() {
			t.Errorf("record cond = %q, want %q", rec.Cond, runs[0].Cfg.Condition.String())
		}
		if rec.Engine.Events == 0 || rec.Engine.Scheduled < rec.Engine.Events {
			t.Errorf("engine stats malformed: %+v", rec.Engine)
		}
		if rec.GameMbps <= 0 {
			t.Errorf("record game bitrate %v not positive", rec.GameMbps)
		}
	}
}

func TestRunResultRecordMatchesHeadlines(t *testing.T) {
	r := quickRun(t, Condition{
		System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2,
	}, 9)
	rec := r.Record(3)
	ff, ft := r.Cfg.Timeline.FairnessWindow()
	if rec.Iteration != 3 || rec.Seed != r.Cfg.Seed {
		t.Errorf("identity fields wrong: %+v", rec)
	}
	if want := r.GameSeries().MeanBetween(ff, ft); rec.GameMbps != want {
		t.Errorf("GameMbps = %v, want %v", rec.GameMbps, want)
	}
	if rec.Engine.Events != r.Engine.EventsDispatched {
		t.Errorf("Engine.Events = %d, want %d", rec.Engine.Events, r.Engine.EventsDispatched)
	}
	if rec.Engine.SimSeconds != r.Engine.SimTime.Seconds() {
		t.Errorf("Engine.SimSeconds = %v, want %v", rec.Engine.SimSeconds, r.Engine.SimTime.Seconds())
	}
	if rec.FramesDisplayed != r.FramesDisplayed {
		t.Errorf("FramesDisplayed = %d, want %d", rec.FramesDisplayed, r.FramesDisplayed)
	}
	// The headline measures every caller reads off the record.
	if rec.Fairness < -1 || rec.Fairness > 1 {
		t.Errorf("Fairness %v out of range", rec.Fairness)
	}
	if rec.RTTMs < 16 {
		t.Errorf("RTTMs %v below base RTT", rec.RTTMs)
	}
	if rec.FPS <= 0 || rec.FPS > 61 {
		t.Errorf("FPS %v out of range", rec.FPS)
	}
	if rr := metrics.MeasureResponseRecovery(r.GameSeries(), r.Cfg.Timeline); rr.OriginalMbs <= 0 {
		t.Error("no original bitrate measured")
	}
}

func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers() != runtime.NumCPU() {
		t.Errorf("DefaultWorkers = %d, want NumCPU %d", DefaultWorkers(), runtime.NumCPU())
	}
	if cfg := (SweepConfig{}).Defaults(); cfg.Workers != DefaultWorkers() {
		t.Errorf("SweepConfig default workers = %d, want %d", cfg.Workers, DefaultWorkers())
	}
	// A negative count would spawn zero workers and return an empty
	// "interrupted" sweep; Defaults must normalise it too.
	if cfg := (SweepConfig{Workers: -3}).Defaults(); cfg.Workers != DefaultWorkers() {
		t.Errorf("negative workers normalised to %d, want %d", cfg.Workers, DefaultWorkers())
	}
}
