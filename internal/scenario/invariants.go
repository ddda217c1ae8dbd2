package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"time"

	"repro/internal/experiment"
	"repro/internal/netem"
)

// The metamorphic invariant suite: properties every chaos run must
// satisfy regardless of what the random episode program did. Each
// invariant either passes, fails with a concrete violation message, or
// reports itself not applicable to the run (gated invariants, and the
// sampled differential ones, which pay an extra simulation and therefore
// run on a subset).
//
// Every checker here has a negative test in invariants_test.go that
// injects a violation and proves the checker catches it — a green
// invariant is only evidence if it is known to be able to turn red.

// InvariantOutcome is one invariant's verdict on one run.
type InvariantOutcome struct {
	Name      string
	Skipped   bool
	Violation string // empty = pass (when not skipped)
}

// Violation pins one failure to its reproducer: the run index within the
// campaign and the run seed (GenerateChaosRun(campaignSeed, Run, scale)
// rebuilds the exact configuration).
type Violation struct {
	Run    int    `json:"run"`
	Seed   uint64 `json:"seed"`
	Detail string `json:"detail"`
}

// InvariantResult aggregates one invariant over a campaign.
type InvariantResult struct {
	Name    string `json:"name"`
	Desc    string `json:"desc"`
	Checked int    `json:"checked"`
	Passed  int    `json:"passed"`
	Skipped int    `json:"skipped"`
	// ViolationList holds the first few failures with reproduction info.
	ViolationList []Violation `json:"violations,omitempty"`
}

// maxViolationsKept bounds per-invariant failure detail in the report.
const maxViolationsKept = 20

// CampaignReport is the chaos campaign summary gsreport renders.
type CampaignReport struct {
	Seed       uint64            `json:"seed"`
	Runs       int               `json:"runs"`
	Scale      float64           `json:"scale"`
	CacheHits  int               `json:"cache_hits"`
	Violations int               `json:"violations"`
	Invariants []InvariantResult `json:"invariants"`
}

// Passed reports whether the campaign saw zero violations.
func (r *CampaignReport) Passed() bool { return r.Violations == 0 }

// Invariant is one checkable property. Check returns skip=true when the
// run is outside the invariant's applicability gate; otherwise violation
// is empty on pass and a concrete, reproducible message on failure.
// sampleEvery is the campaign's differential sampling period (<= 0
// disables the sampled invariants).
type Invariant struct {
	Name  string
	Desc  string
	Check func(cr *ChaosRun, sampleEvery int) (skip bool, violation string)
}

// Thresholds. These are deliberately loose enough that the properties
// hold by mechanism, not by luck: recovery compares smoothed means over
// multi-second windows, the queue bound carries scheduling slack, and
// monotonicity tolerates the frame-pipeline quantisation noise that added
// loss can shift either way by a frame or two.
const (
	recoveryFrac   = 0.75 // post-departure bitrate vs pre-contention
	queueBoundPad  = 3 * time.Millisecond
	monotonicSlack = 1.02 // added loss may not raise delivery by >2%
	extraLoss      = 0.03 // monotonicity perturbation

	// Controllers recover in absolute time — the ramp clock does not
	// compress with the timeline — and the fleet has two slow families:
	// additive recovery at 0.4 Mb/s per second (GeForce's RampPerSec;
	// Stadia's near-capacity additive mode) and multiplicative growth at
	// 1.5% per second (Luna's GrowthPerSec). The recovery invariant gates
	// itself on whether the post-departure tail leaves the slower of the
	// two enough time to close the deficit the run actually measured, with
	// headroom for clean-path hold-offs and feedback quantisation.
	slowestRampMbpsPerSec = 0.4
	slowestGrowthPerSec   = 0.015
	recoverySettleFactor  = 1.5
	recoverySettleSlack   = 2 * time.Second
	minRecoveryWindow     = 2 * time.Second
)

// runFn executes a run for the differential invariants. It is a variable
// so the negative tests can substitute a runner that fabricates a
// violating result and prove each checker actually fires.
var runFn = experiment.Run

// Invariants is the suite, in report order.
var Invariants = []Invariant{
	{
		Name:  "recovery-after-departure",
		Desc:  "game bitrate returns to its pre-contention level after the competing flow departs (all chaos episodes end before departure by construction)",
		Check: checkRecovery,
	},
	{
		Name:  "queue-bound",
		Desc:  "no RTT sample exceeds base RTT + worst-case bottleneck queueing delay + configured jitter (drop-tail physics)",
		Check: checkQueueBound,
	},
	{
		Name:  "determinism",
		Desc:  "re-running the identical configuration reproduces the result digest bit for bit (sampled; also differentially validates cache decode)",
		Check: checkDeterminism,
	},
	{
		Name:  "loss-monotonicity",
		Desc:  "adding loss everywhere on the path does not increase total delivered traffic, game plus competitor (sampled)",
		Check: checkLossMonotonic,
	},
	{
		Name:  "clean-run-equivalence",
		Desc:  "a force-constructed but unconfigured impairment stage leaves the run byte-identical to no stage at all (run 0 of each campaign)",
		Check: checkCleanEquivalence,
	},
}

// CheckInvariants runs the full suite against one executed chaos run.
func CheckInvariants(cr *ChaosRun, sampleEvery int) []InvariantOutcome {
	out := make([]InvariantOutcome, len(Invariants))
	for i, inv := range Invariants {
		skip, viol := inv.Check(cr, sampleEvery)
		out[i] = InvariantOutcome{Name: inv.Name, Skipped: skip, Violation: viol}
	}
	return out
}

func checkRecovery(cr *ChaosRun, _ int) (bool, string) {
	tl := cr.Result.Cfg.Timeline
	series := cr.Result.GameSeries()
	of, ot := tl.OriginalWindow()
	baseline := series.MeanBetween(of, ot)
	if baseline < 1 {
		// A sub-1 Mb/s baseline means the stream never established; the
		// recovery question is not defined for that run.
		return true, ""
	}
	// How far contention pushed the stream down, from the settled portion
	// of the contention window itself.
	af, at := tl.AdjustedWindow()
	contended := series.MeanBetween(af, at)
	deficit := baseline - contended
	if deficit < 0 {
		deficit = 0
	}
	// Settle time the slowest controller needs to climb that deficit back:
	// the worse of the additive and multiplicative recovery families. If
	// the compressed tail cannot fit the settle plus a meaningful
	// measurement window, the invariant is not decidable for this run —
	// the stream did not fail to recover, it was never given the time the
	// mechanism requires.
	additiveSec := deficit / slowestRampMbpsPerSec
	floor := contended
	if floor < 0.5 {
		floor = 0.5
	}
	growthSec := 0.0
	if baseline > floor {
		growthSec = math.Log(baseline/floor) / slowestGrowthPerSec
	}
	rampSec := additiveSec
	if growthSec > rampSec {
		rampSec = growthSec
	}
	settle := time.Duration(rampSec*recoverySettleFactor*float64(time.Second)) +
		recoverySettleSlack
	tail := tl.TraceEnd - tl.FlowStop
	if tail-settle < minRecoveryWindow {
		return true, ""
	}
	post := series.MeanBetween(tl.FlowStop+settle, tl.TraceEnd)
	if post < recoveryFrac*baseline {
		return false, fmt.Sprintf("post-departure bitrate %.2f Mb/s < %.0f%% of pre-contention %.2f Mb/s (deficit %.1f Mb/s, settle %.1fs, tail %.1fs)",
			post, recoveryFrac*100, baseline, deficit, settle.Seconds(), tail.Seconds())
	}
	return false, ""
}

func checkQueueBound(cr *ChaosRun, _ int) (bool, string) {
	cfg := cr.Result.Cfg.Defaults()
	if cfg.AQM != experiment.AQMDropTail {
		// AQM sojourn control changes the bound's form; the chaos
		// generator only emits drop-tail, but gate anyway.
		return true, ""
	}
	// Worst-case one-way sojourn: a full queue draining at the slowest
	// rate the schedule ever sets.
	minRate := cfg.Capacity
	var maxJitter time.Duration
	for _, st := range cfg.Schedule {
		if st.Kind == experiment.ScheduleRate && st.Rate < minRate {
			minRate = st.Rate
		}
		if st.Kind == experiment.ScheduleJitter && st.Jitter > maxJitter {
			maxJitter = st.Jitter
		}
		if st.Kind == experiment.ScheduleDelay {
			// Delay retunes move base RTT out from under the bound.
			return true, ""
		}
	}
	if minRate <= 0 {
		return true, ""
	}
	sojourn := time.Duration(float64(cfg.QueueBytes()) * 8 / float64(minRate) * float64(time.Second))
	bound := cfg.BaseRTT + sojourn + maxJitter + queueBoundPad
	for _, s := range cr.Result.RTT {
		if s.RTT > bound {
			return false, fmt.Sprintf("RTT %.2f ms at t=%.1fs exceeds bound %.2f ms (base %.1f + queue %.1f + jitter %.1f)",
				float64(s.RTT)/1e6, s.At.Duration().Seconds(), float64(bound)/1e6,
				float64(cfg.BaseRTT)/1e6, float64(sojourn)/1e6, float64(maxJitter)/1e6)
		}
	}
	return false, ""
}

func checkDeterminism(cr *ChaosRun, sampleEvery int) (bool, string) {
	if sampleEvery <= 0 || cr.Index%sampleEvery != 0 {
		return true, ""
	}
	fresh := runFn(cr.Cfg)
	want, got := Digest(cr.Result), Digest(fresh)
	if want != got {
		src := "prior run"
		if cr.Cached {
			src = "cache entry"
		}
		return false, fmt.Sprintf("re-run digest %s != %s digest %s", got[:16], src, want[:16])
	}
	return false, ""
}

func checkLossMonotonic(cr *ChaosRun, sampleEvery int) (bool, string) {
	if sampleEvery <= 0 || cr.Index%sampleEvery != sampleEvery/2 {
		return true, ""
	}
	if cr.Cfg.Impair.LossModel != "" && cr.Cfg.Impair.LossModel != netem.LossBernoulli {
		return true, ""
	}
	lossier := cr.Cfg
	lossier.Impair.LossModel = netem.LossBernoulli
	lossier.Impair.LossRate = cr.Cfg.Impair.LossRate + extraLoss
	// Schedule loss steps overwrite the impairer's Bernoulli rate, so lift
	// each one by the same amount — the perturbed run then sees strictly
	// more loss at every instant.
	if len(lossier.Schedule) > 0 {
		steps := make([]experiment.ScheduleStep, len(lossier.Schedule))
		copy(steps, lossier.Schedule)
		for i := range steps {
			if steps[i].Kind == experiment.ScheduleLoss {
				steps[i].LossRate += extraLoss
			}
		}
		lossier.Schedule = steps
	}
	perturbed := runFn(lossier)
	base := deliveredMbps(cr.Result)
	pert := deliveredMbps(perturbed)
	if pert > base*monotonicSlack {
		return false, fmt.Sprintf("total delivered bitrate rose from %.3f to %.3f Mb/s under +%.0f%% loss",
			base, pert, extraLoss*100)
	}
	return false, ""
}

// deliveredMbps is the whole-trace mean of game plus competitor delivered
// bitrate — the monotonicity metric. The game share ALONE is not monotone
// under path loss: loss collapses the loss-sensitive TCP competitor first,
// and the rate-adaptive stream then claims the freed capacity (observed
// empirically: +3% loss raised one run's game bitrate 32% while its Cubic
// competitor starved). What loss cannot do is increase the total the
// bottleneck delivers.
func deliveredMbps(r *experiment.RunResult) float64 {
	end := r.Cfg.Timeline.TraceEnd
	return r.GameSeries().MeanBetween(0, end) + r.TCPSeries().MeanBetween(0, end)
}

func checkCleanEquivalence(cr *ChaosRun, _ int) (bool, string) {
	if cr.Index != 0 {
		return true, ""
	}
	base := cr.Cfg
	base.Schedule = nil
	base.Impair = netem.Impairment{}
	plain := runFn(base)
	forced := base
	forced.ForceImpairer = true
	withStage := runFn(forced)
	// The stage legitimately counts the packets that pass through it, so
	// compare behaviour with the bookkeeping counters zeroed: everything
	// the client experienced must be identical.
	pc, fc := *plain, *withStage
	pc.Impair, fc.Impair = netem.ImpairStats{}, netem.ImpairStats{}
	if a, b := Digest(&pc), Digest(&fc); a != b {
		return false, fmt.Sprintf("inert impairment stage changed the run: %s != %s", b[:16], a[:16])
	}
	return false, ""
}

// Digest hashes every deterministic field of a run result — the full
// bitrate/FPS/loss series, RTT samples, competitor traces, end-state
// counters, impairer counters, and per-flow summaries — into a hex
// SHA-256. Wall-clock engine fields are excluded; everything else is part
// of the simulator's pure-function contract, so two results with equal
// digests came from equivalent runs.
func Digest(r *experiment.RunResult) string {
	h := sha256.New()
	hashI64(h, int64(r.Bin))
	hashF64s(h, r.GameMbps)
	hashF64s(h, r.TCPMbps)
	hashF64s(h, r.FPSBins)
	hashF64s(h, r.GameLossBins)
	hashF64s(h, r.TCPLossBins)
	hashI64(h, int64(len(r.RTT)))
	for _, s := range r.RTT {
		hashI64(h, int64(s.At))
		hashI64(h, int64(s.RTT))
	}
	hashI64(h, int64(len(r.CompetitorTraces)))
	for _, ct := range r.CompetitorTraces {
		h.Write([]byte(ct.Kind))
		h.Write([]byte(ct.CCA))
		hashF64s(h, ct.Mbps)
	}
	hashI64(h, r.FramesSent)
	hashI64(h, r.FramesDisplayed)
	hashI64(h, r.FramesDropped)
	hashI64(h, r.NackRetx)
	hashI64(h, int64(r.TCPRetransmits))
	hashI64(h, int64(r.Engine.EventsDispatched))
	hashI64(h, int64(r.Impair.Packets))
	hashI64(h, int64(r.Impair.LossDrops))
	hashI64(h, int64(r.Impair.FlapDrops))
	hashI64(h, int64(r.Impair.Duplicates))
	hashI64(h, int64(r.Impair.Reordered))
	hashI64(h, int64(len(r.Flows)))
	for i := range r.Flows {
		hashI64(h, int64(r.Flows[i].Arrivals))
		hashF64(h, r.Flows[i].ActiveSec)
		hashF64(h, r.Flows[i].MeanMbps)
		hashF64(h, r.Flows[i].SRTTms)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashI64(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func hashF64(h hash.Hash, v float64) { hashI64(h, int64(math.Float64bits(v))) }

func hashF64s(h hash.Hash, vs []float64) {
	hashI64(h, int64(len(vs)))
	for _, v := range vs {
		hashF64(h, v)
	}
}
