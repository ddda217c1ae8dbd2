// Package metrics implements the paper's derived measures: bitrate-series
// summaries, response and recovery times (§4.2), the combined adaptiveness
// score, the normalised fairness ratio, Jain's fairness index, and the
// harm-based comparison the paper lists as future work (Ware et al.).
package metrics

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// Series is a fixed-bin time series (e.g. bitrate in Mb/s per 0.5 s bin).
type Series struct {
	Bin time.Duration
	V   []float64
}

// idx converts a time offset to a bin index, clamped to the series. The
// clamping is silent by design — use Window when "no data in range" must be
// distinguishable from "data happened to be zero".
func (s Series) idx(t time.Duration) int {
	i := int(t / s.Bin)
	if i < 0 {
		i = 0
	}
	if i > len(s.V) {
		i = len(s.V)
	}
	return i
}

// Window returns the bins covering [from, to) and whether that window
// actually holds data. ok is false when the series is empty, the bin width
// is unset, or the clamped range is empty (to <= from, or from beyond the
// recorded data). Callers for whom an empty window means "measurement
// impossible" rather than "measured zero" — response/recovery detection in
// particular — must branch on ok instead of trusting a zero mean.
//
// The returned slice is a zero-copy view over the series' backing array
// (0 allocs/op — see BenchmarkSeriesWindow); callers must not mutate it.
func (s Series) Window(from, to time.Duration) (v []float64, ok bool) {
	if s.Bin <= 0 || len(s.V) == 0 {
		return nil, false
	}
	lo, hi := s.idx(from), s.idx(to)
	if hi <= lo {
		return nil, false
	}
	return s.V[lo:hi], true
}

// MeanBetweenOK returns the mean over [from, to) and whether the window held
// any data.
func (s Series) MeanBetweenOK(from, to time.Duration) (float64, bool) {
	w, ok := s.Window(from, to)
	if !ok {
		return 0, false
	}
	return stats.Mean(w), true
}

// MeanBetween returns the mean over [from, to). Zero-value contract: an
// empty window yields 0, indistinguishable from a true zero mean; use
// MeanBetweenOK where the difference matters.
func (s Series) MeanBetween(from, to time.Duration) float64 {
	m, _ := s.MeanBetweenOK(from, to)
	return m
}

// StdBetweenOK returns the sample standard deviation over [from, to) and
// whether the window held any data.
func (s Series) StdBetweenOK(from, to time.Duration) (float64, bool) {
	w, ok := s.Window(from, to)
	if !ok {
		return 0, false
	}
	return stats.StdDev(w), true
}

// StdBetween returns the sample standard deviation over [from, to), with the
// same zero-value contract as MeanBetween.
func (s Series) StdBetween(from, to time.Duration) float64 {
	sd, _ := s.StdBetweenOK(from, to)
	return sd
}

// Smoothed returns a centred moving average with the given half-window (in
// bins), used to keep response detection from triggering on single-bin
// noise.
func (s Series) Smoothed(half int) Series {
	if half <= 0 {
		return s
	}
	out := make([]float64, len(s.V))
	for i := range s.V {
		lo, hi := i-half, i+half+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(s.V) {
			hi = len(s.V)
		}
		out[i] = stats.Mean(s.V[lo:hi])
	}
	return Series{Bin: s.Bin, V: out}
}

// SettleTime returns how long after event the (smoothed) series first comes
// within one tolerance band of the target level, scanning up to deadline.
// The second return reports whether settling happened; if not, the full
// scan window is returned — the paper's "never responds/recovers" case.
func SettleTime(s Series, event, deadline time.Duration, target, tolerance float64) (time.Duration, bool) {
	return settleSmoothed(s.Smoothed(2), event, deadline, target, tolerance)
}

// settleSmoothed is SettleTime on an already-smoothed series, so callers
// scanning the same series for several events (response and recovery)
// smooth it once instead of once per scan. The scan starts at the bin
// holding event; when event falls inside that bin (a scaled timeline) and
// the bin already settles, the time is 0, never negative.
func settleSmoothed(sm Series, event, deadline time.Duration, target, tolerance float64) (time.Duration, bool) {
	lo, hi := sm.idx(event), sm.idx(deadline)
	for i := lo; i < hi; i++ {
		diff := sm.V[i] - target
		if diff < 0 {
			diff = -diff
		}
		if diff <= tolerance {
			return max(time.Duration(i)*sm.Bin-event, 0), true
		}
	}
	return deadline - event, false
}

// Timeline carries the experiment's measurement windows, all offsets from
// trace start. Defaults mirror the paper: competing flow from 185 s to
// 370 s in a 540 s trace.
type Timeline struct {
	FlowStart time.Duration // competing flow arrives
	FlowStop  time.Duration // competing flow departs
	TraceEnd  time.Duration
}

// PaperTimeline is the timeline used in the paper's experiments.
var PaperTimeline = Timeline{
	FlowStart: 185 * time.Second,
	FlowStop:  370 * time.Second,
	TraceEnd:  540 * time.Second,
}

// Scale returns the timeline compressed by factor (for fast test runs).
// It shortens only the three phases, not the controllers' or TCP's own
// time constants, so a reduced scale is a smoke test, not paper evidence:
// at 0.15× the 185 s contention window is 28 s, and 9 of the 54 Figure 3
// cells flip sign against the full-scale ledger (the scale table in
// ROADMAP.md, item 2).
func (t Timeline) Scale(f float64) Timeline {
	return Timeline{
		FlowStart: time.Duration(float64(t.FlowStart) * f),
		FlowStop:  time.Duration(float64(t.FlowStop) * f),
		TraceEnd:  time.Duration(float64(t.TraceEnd) * f),
	}
}

// Windows derived from the timeline, matching §4.2 of the paper.
func (t Timeline) OriginalWindow() (from, to time.Duration) {
	// Mean original bitrate: the minute before the flow arrives.
	return t.FlowStart - t.FlowStart/3, t.FlowStart
}

// AdjustedWindow is the stabilised window before the flow departs.
func (t Timeline) AdjustedWindow() (from, to time.Duration) {
	span := (t.FlowStop - t.FlowStart) / 3
	return t.FlowStop - span, t.FlowStop
}

// FairnessWindow is the contention window excluding the initial response
// transient (220 s to 370 s in the paper).
func (t Timeline) FairnessWindow() (from, to time.Duration) {
	transient := (t.FlowStop - t.FlowStart) / 5
	return t.FlowStart + transient, t.FlowStop
}

// ResponseRecovery holds the per-run adaptation measurements.
type ResponseRecovery struct {
	Response    time.Duration
	Responded   bool
	Recovery    time.Duration
	Recovered   bool
	OriginalMbs float64 // mean original bitrate
	AdjustedMbs float64 // mean adjusted (contended) bitrate
}

// FormatSettle renders a response or recovery time in whole seconds,
// followed by unit. A series that never settled prints its window length
// as a lower bound (">170"), so it cannot be read as a measured time. It
// is the one renderer of these times: the paper tables and gssim's run
// summary both print through it.
func FormatSettle(d time.Duration, settled bool, unit string) string {
	bound := ""
	if !settled {
		bound = ">"
	}
	return fmt.Sprintf("%s%.0f%s", bound, d.Seconds(), unit)
}

// MeasureResponseRecovery applies the paper's §4.2 procedure to a game
// bitrate series: response is time from flow arrival until the bitrate is
// within one standard deviation of the adjusted level; recovery is time
// from flow departure until within one standard deviation of the original
// level.
func MeasureResponseRecovery(s Series, tl Timeline) ResponseRecovery {
	of, ot := tl.OriginalWindow()
	af, at := tl.AdjustedWindow()
	orig, origOK := s.MeanBetweenOK(of, ot)
	origStd := s.StdBetween(of, ot)
	adj, adjOK := s.MeanBetweenOK(af, at)
	adjStd := s.StdBetween(af, at)

	// Floor the tolerance bands at 5% of the respective level so a
	// near-constant window does not make settling undetectable.
	if min := 0.05 * adj; adjStd < min {
		adjStd = min
	}
	if min := 0.05 * orig; origStd < min {
		origStd = min
	}

	// A reference window with no data means the target level (and a zero
	// tolerance band around it) would be fabricated from nothing, and a
	// series idling at zero would "settle" instantly. Report the full scan
	// window and not-settled instead — the honest "never responds" answer.
	resp, responded := tl.FlowStop-tl.FlowStart, false
	rec, recovered := tl.TraceEnd-tl.FlowStop, false
	if adjOK || origOK {
		sm := s.Smoothed(2) // shared by both scans; Smoothed is the costly part
		if adjOK {
			resp, responded = settleSmoothed(sm, tl.FlowStart, tl.FlowStop, adj, adjStd)
		}
		if origOK {
			rec, recovered = settleSmoothed(sm, tl.FlowStop, tl.TraceEnd, orig, origStd)
		}
	}
	return ResponseRecovery{
		Response:    resp,
		Responded:   responded,
		Recovery:    rec,
		Recovered:   recovered,
		OriginalMbs: orig,
		AdjustedMbs: adj,
	}
}

// Adaptiveness combines response and recovery per the paper:
// A = ((1 - C/Cmax) + (1 - E/Emax)) / 2, in [0, 1], higher is better.
func Adaptiveness(r ResponseRecovery, cmax, emax time.Duration) float64 {
	a := 0.0
	if cmax > 0 {
		a += 0.5 * (1 - float64(r.Response)/float64(cmax))
	} else {
		a += 0.5
	}
	if emax > 0 {
		a += 0.5 * (1 - float64(r.Recovery)/float64(emax))
	} else {
		a += 0.5
	}
	if a < 0 {
		a = 0
	}
	if a > 1 {
		a = 1
	}
	return a
}

// FairnessRatio is the paper's normalised bitrate difference:
// (game − tcp) / capacity, in [-1, 1]; 0 is an equal split.
func FairnessRatio(gameMbs, tcpMbs, capacityMbs float64) float64 {
	if capacityMbs <= 0 {
		return 0
	}
	r := (gameMbs - tcpMbs) / capacityMbs
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return r
}

// JainIndex returns Jain's fairness index over per-flow throughputs:
// (Σx)² / (n·Σx²), in (0, 1], 1 = perfectly equal.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}

// Harm implements the Ware et al. harm measure the paper suggests as an
// alternative to throughput fairness: the fractional degradation of a
// flow's solo performance when competed against, for a metric where higher
// is better (throughput). Returns a value in [0, 1] (clamped).
func Harm(solo, competed float64) float64 {
	if solo <= 0 {
		return 0
	}
	h := (solo - competed) / solo
	if h < 0 {
		h = 0
	}
	if h > 1 {
		h = 1
	}
	return h
}

// HarmInverse is Harm for metrics where lower is better (delay, loss).
func HarmInverse(solo, competed float64) float64 {
	if competed <= 0 {
		return 0
	}
	h := (competed - solo) / competed
	if h < 0 {
		h = 0
	}
	if h > 1 {
		h = 1
	}
	return h
}
