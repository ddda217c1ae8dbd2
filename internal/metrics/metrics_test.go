package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// mkSeries builds a series with value fn(t) at each half-second bin.
func mkSeries(dur time.Duration, fn func(t time.Duration) float64) Series {
	bin := 500 * time.Millisecond
	n := int(dur / bin)
	v := make([]float64, n)
	for i := range v {
		v[i] = fn(time.Duration(i) * bin)
	}
	return Series{Bin: bin, V: v}
}

// stepSeries emulates a game flow: 25 Mb/s, dropping to 12 at flowStart
// with a linear response taking respDur, recovering over recDur after
// flowStop.
func stepSeries(tl Timeline, respDur, recDur time.Duration) Series {
	return mkSeries(tl.TraceEnd, func(t time.Duration) float64 {
		const hi, lo = 25.0, 12.0
		switch {
		case t < tl.FlowStart:
			return hi
		case t < tl.FlowStart+respDur:
			f := float64(t-tl.FlowStart) / float64(respDur)
			return hi - (hi-lo)*f
		case t < tl.FlowStop:
			return lo
		case t < tl.FlowStop+recDur:
			f := float64(t-tl.FlowStop) / float64(recDur)
			return lo + (hi-lo)*f
		default:
			return hi
		}
	})
}

func TestSeriesMeanStd(t *testing.T) {
	s := mkSeries(10*time.Second, func(t time.Duration) float64 {
		if t < 5*time.Second {
			return 10
		}
		return 20
	})
	if got := s.MeanBetween(0, 5*time.Second); got != 10 {
		t.Errorf("mean first half = %v", got)
	}
	if got := s.MeanBetween(5*time.Second, 10*time.Second); got != 20 {
		t.Errorf("mean second half = %v", got)
	}
	if got := s.StdBetween(0, 5*time.Second); got != 0 {
		t.Errorf("std of constant = %v", got)
	}
	if got := s.MeanBetween(0, 10*time.Second); got != 15 {
		t.Errorf("overall mean = %v", got)
	}
}

func TestSeriesClamping(t *testing.T) {
	s := mkSeries(time.Second, func(time.Duration) float64 { return 1 })
	if got := s.MeanBetween(-time.Second, 100*time.Second); got != 1 {
		t.Errorf("clamped mean = %v", got)
	}
	if got := s.MeanBetween(5*time.Second, 3*time.Second); got != 0 {
		t.Errorf("inverted window mean = %v", got)
	}
}

func TestSmoothedPreservesConstant(t *testing.T) {
	s := mkSeries(5*time.Second, func(time.Duration) float64 { return 7 })
	sm := s.Smoothed(3)
	for i, v := range sm.V {
		if v != 7 {
			t.Fatalf("bin %d = %v after smoothing a constant", i, v)
		}
	}
}

func TestMeasureResponseRecovery(t *testing.T) {
	tl := PaperTimeline
	s := stepSeries(tl, 10*time.Second, 30*time.Second)
	rr := MeasureResponseRecovery(s, tl)
	if !rr.Responded || !rr.Recovered {
		t.Fatalf("settling not detected: %+v", rr)
	}
	// Linear 10 s ramp into a band of ±5% of 12 Mb/s: detection happens
	// near the end of the ramp.
	if rr.Response < 7*time.Second || rr.Response > 12*time.Second {
		t.Errorf("response = %v, want ~9-10 s", rr.Response)
	}
	if rr.Recovery < 24*time.Second || rr.Recovery > 33*time.Second {
		t.Errorf("recovery = %v, want ~28-30 s", rr.Recovery)
	}
	if math.Abs(rr.OriginalMbs-25) > 0.5 {
		t.Errorf("original = %v", rr.OriginalMbs)
	}
	if math.Abs(rr.AdjustedMbs-12) > 0.5 {
		t.Errorf("adjusted = %v", rr.AdjustedMbs)
	}
}

func TestNeverRecovers(t *testing.T) {
	tl := PaperTimeline
	// Flow never comes back up after departure.
	s := mkSeries(tl.TraceEnd, func(t time.Duration) float64 {
		if t < tl.FlowStart {
			return 25
		}
		return 3
	})
	rr := MeasureResponseRecovery(s, tl)
	if rr.Recovered {
		t.Error("recovery reported for a flow that never recovered")
	}
	if rr.Recovery != tl.TraceEnd-tl.FlowStop {
		t.Errorf("unrecovered time = %v, want the full window %v",
			rr.Recovery, tl.TraceEnd-tl.FlowStop)
	}
}

func TestAdaptivenessBounds(t *testing.T) {
	rr := ResponseRecovery{Response: 10 * time.Second, Recovery: 20 * time.Second}
	a := Adaptiveness(rr, 10*time.Second, 20*time.Second)
	if a != 0 {
		t.Errorf("worst-case adaptiveness = %v, want 0", a)
	}
	fast := ResponseRecovery{Response: 0, Recovery: 0}
	if got := Adaptiveness(fast, 10*time.Second, 20*time.Second); got != 1 {
		t.Errorf("best-case adaptiveness = %v, want 1", got)
	}
	half := ResponseRecovery{Response: 5 * time.Second, Recovery: 10 * time.Second}
	if got := Adaptiveness(half, 10*time.Second, 20*time.Second); got != 0.5 {
		t.Errorf("mid adaptiveness = %v, want 0.5", got)
	}
}

// Property: adaptiveness is always within [0, 1].
func TestAdaptivenessRange(t *testing.T) {
	f := func(c, e, cm, em uint16) bool {
		rr := ResponseRecovery{
			Response: time.Duration(c) * time.Second,
			Recovery: time.Duration(e) * time.Second,
		}
		a := Adaptiveness(rr, time.Duration(cm)*time.Second, time.Duration(em)*time.Second)
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFairnessRatio(t *testing.T) {
	if got := FairnessRatio(12.5, 12.5, 25); got != 0 {
		t.Errorf("equal split ratio = %v", got)
	}
	if got := FairnessRatio(20, 5, 25); got != 0.6 {
		t.Errorf("game-dominant ratio = %v, want 0.6", got)
	}
	if got := FairnessRatio(5, 20, 25); got != -0.6 {
		t.Errorf("tcp-dominant ratio = %v, want -0.6", got)
	}
	if got := FairnessRatio(99, 0, 25); got != 1 {
		t.Error("ratio not clamped to 1")
	}
}

// Property: fairness ratio is antisymmetric and bounded.
func TestFairnessRatioProperties(t *testing.T) {
	f := func(a, b uint8) bool {
		g, c := float64(a), float64(b)
		r1 := FairnessRatio(g, c, 25)
		r2 := FairnessRatio(c, g, 25)
		return r1 >= -1 && r1 <= 1 && math.Abs(r1+r2) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{10, 10, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal flows JFI = %v", got)
	}
	// One flow hogging everything: JFI = 1/n.
	if got := JainIndex([]float64{30, 0, 0}); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("single-hog JFI = %v, want 1/3", got)
	}
	if JainIndex(nil) != 0 {
		t.Error("empty JFI should be 0")
	}
}

func TestHarm(t *testing.T) {
	if got := Harm(25, 12.5); got != 0.5 {
		t.Errorf("harm = %v, want 0.5", got)
	}
	if got := Harm(25, 30); got != 0 {
		t.Error("negative harm not clamped")
	}
	if got := HarmInverse(20, 40); got != 0.5 {
		t.Errorf("delay harm = %v, want 0.5", got)
	}
	if got := HarmInverse(40, 20); got != 0 {
		t.Error("delay improvement should be 0 harm")
	}
}

func TestTimelineWindows(t *testing.T) {
	tl := PaperTimeline
	if tl.FlowStop != 370*time.Second || tl.TraceEnd != 540*time.Second {
		t.Errorf("timeline = %+v, want flow stop 370s, trace end 540s", tl)
	}
	of, ot := tl.OriginalWindow()
	if of != 185*time.Second-185*time.Second/3 || ot != 185*time.Second {
		t.Errorf("original window = [%v, %v]", of, ot)
	}
	af, at := tl.AdjustedWindow()
	// Paper: 310-370 s.
	if at != 370*time.Second || af < 308*time.Second || af > 312*time.Second {
		t.Errorf("adjusted window = [%v, %v], want ~[310s, 370s]", af, at)
	}
	ff, ft := tl.FairnessWindow()
	// Paper: 220-370 s.
	if ft != 370*time.Second || ff != 222*time.Second {
		t.Errorf("fairness window = [%v, %v], want [222s, 370s]", ff, ft)
	}
}

func TestTimelineScale(t *testing.T) {
	tl := PaperTimeline.Scale(0.1)
	if tl.FlowStart != 18500*time.Millisecond {
		t.Errorf("scaled flow start = %v", tl.FlowStart)
	}
	if tl.TraceEnd != 54*time.Second {
		t.Errorf("scaled trace end = %v", tl.TraceEnd)
	}
}

func TestSettleTimeImmediate(t *testing.T) {
	s := mkSeries(100*time.Second, func(time.Duration) float64 { return 10 })
	d, ok := SettleTime(s, 50*time.Second, 100*time.Second, 10, 0.5)
	if !ok || d != 0 {
		t.Errorf("already-settled series: %v %v", d, ok)
	}
}

func TestWindowOKSignal(t *testing.T) {
	s := Series{Bin: time.Second, V: []float64{1, 2, 3, 4}}

	if w, ok := s.Window(0, 2*time.Second); !ok || len(w) != 2 {
		t.Errorf("Window(0,2s) = %v, %v", w, ok)
	}
	// Inverted and point windows hold no data.
	if _, ok := s.Window(2*time.Second, time.Second); ok {
		t.Error("inverted window reported ok")
	}
	if _, ok := s.Window(time.Second, time.Second); ok {
		t.Error("empty window reported ok")
	}
	// A window entirely past the data clamps to nothing.
	if _, ok := s.Window(10*time.Second, 20*time.Second); ok {
		t.Error("beyond-data window reported ok")
	}
	// Empty and zero-bin series never report ok.
	if _, ok := (Series{Bin: time.Second}).Window(0, time.Second); ok {
		t.Error("empty series reported ok")
	}
	if _, ok := (Series{V: []float64{1}}).Window(0, time.Second); ok {
		t.Error("zero-bin series reported ok")
	}

	// The OK variants distinguish "no data" from "mean of zero"; the plain
	// variants keep the documented zero-value contract.
	if m, ok := s.MeanBetweenOK(0, 2*time.Second); !ok || m != 1.5 {
		t.Errorf("MeanBetweenOK = %v, %v", m, ok)
	}
	if _, ok := s.MeanBetweenOK(10*time.Second, 20*time.Second); ok {
		t.Error("MeanBetweenOK beyond data reported ok")
	}
	if got := s.MeanBetween(10*time.Second, 20*time.Second); got != 0 {
		t.Errorf("MeanBetween beyond data = %v, want 0", got)
	}
	if _, ok := s.StdBetweenOK(10*time.Second, 20*time.Second); ok {
		t.Error("StdBetweenOK beyond data reported ok")
	}
}

func TestResponseRecoveryEmptyWindows(t *testing.T) {
	tl := Timeline{FlowStart: 185 * time.Second, FlowStop: 370 * time.Second, TraceEnd: 540 * time.Second}

	// An empty series must not "settle": with no data in the reference
	// windows the target level would be a fabricated zero, and any
	// zero-valued series would instantly match it.
	rr := MeasureResponseRecovery(Series{Bin: 500 * time.Millisecond}, tl)
	if rr.Responded || rr.Recovered {
		t.Errorf("empty series settled: %+v", rr)
	}
	if rr.Response != tl.FlowStop-tl.FlowStart {
		t.Errorf("response = %v, want full scan window", rr.Response)
	}
	if rr.Recovery != tl.TraceEnd-tl.FlowStop {
		t.Errorf("recovery = %v, want full scan window", rr.Recovery)
	}

	// A series truncated before the adjusted window behaves the same way
	// for response, since the adjusted level cannot be measured.
	short := Series{Bin: time.Second, V: make([]float64, 100)} // 100 s of data
	for i := range short.V {
		short.V[i] = 20
	}
	rr = MeasureResponseRecovery(short, tl)
	if rr.Responded || rr.Recovered {
		t.Errorf("truncated series settled: %+v", rr)
	}
}

// BenchmarkSeriesWindow pins the zero-copy contract: Window returns a view
// over the backing array, not a fresh slice, so per-call cost is two index
// clamps and 0 allocs.
func BenchmarkSeriesWindow(b *testing.B) {
	s := Series{Bin: 100 * time.Millisecond, V: make([]float64, 5400)}
	for i := range s.V {
		s.V[i] = float64(i)
	}
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		w, ok := s.Window(185*time.Second, 370*time.Second)
		if !ok {
			b.Fatal("window empty")
		}
		sink += w[0]
	}
	_ = sink
}

// TestWindowIsView asserts Window aliases the series' backing array rather
// than copying it — the alloc-free guarantee FlowSummary and the QoE
// pipeline rely on per run.
func TestWindowIsView(t *testing.T) {
	s := Series{Bin: time.Second, V: []float64{1, 2, 3, 4, 5}}
	w, ok := s.Window(time.Second, 4*time.Second)
	if !ok || len(w) != 3 {
		t.Fatalf("window = %v ok=%v", w, ok)
	}
	if &w[0] != &s.V[1] {
		t.Fatal("Window copied instead of aliasing the backing array")
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := s.Window(time.Second, 4*time.Second); !ok {
			t.Fatal("window empty")
		}
	}); n != 0 {
		t.Errorf("Window: %.1f allocs/op, want 0", n)
	}
}
