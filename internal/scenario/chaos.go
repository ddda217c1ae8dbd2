package scenario

import (
	"context"
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/units"
)

// Chaos campaigns: seed-derived random impairment programs run at volume
// through the cache, with every run checked against the metamorphic
// invariant suite (invariants.go). A campaign is a pure function of
// (Seed, Runs, Scale): the same campaign seed always generates the same
// run configurations, so re-running one is a 100% cache hit and a
// violation is reproducible from its run seed alone.

// Episode kinds: which knob a chaos episode shakes.
const (
	EpLossBurst   = "loss-burst"   // Bernoulli loss switched on then off
	EpRateCrush   = "rate-crush"   // bottleneck rate cut then restored
	EpJitterStorm = "jitter-storm" // jitter spread raised then cleared
	EpLinkFlap    = "link-flap"    // full outage then restore
)

var episodeKinds = []string{EpLossBurst, EpRateCrush, EpJitterStorm, EpLinkFlap}

// Episode is one bounded impairment burst inside the contention window.
// Every episode restores its knob when it ends, which is what makes the
// recovery and queue-bound invariants decidable.
type Episode struct {
	Kind       string
	Start, End time.Duration
	// LossRate applies to loss-burst, RateFrac (fraction of capacity) to
	// rate-crush, Jitter to jitter-storm.
	LossRate float64
	RateFrac float64
	Jitter   time.Duration
}

// ChaosRun is one generated run: its configuration, the episode program
// behind the schedule, and (after execution) the result.
type ChaosRun struct {
	Index    int
	Seed     uint64
	Cfg      experiment.RunConfig
	Episodes []Episode

	Result *experiment.RunResult
	Cached bool
}

// chaosTag separates the generator's RNG stream from the run's own seed.
const chaosTag uint64 = 0x6368616f73 // "chaos"

// chaosSeed derives run i's seed from the campaign seed with a golden-ratio
// stride (the splitmix64 increment), so consecutive runs get well-separated
// generator and simulation streams.
func chaosSeed(campaign uint64, i int) uint64 {
	return campaign + uint64(i)*0x9e3779b97f4a7c15
}

// Chaos draw ranges. Capacities and queue multiples follow the paper's
// grid; episode severities span "annoying" to "brutal" without leaving the
// regime the invariants can reason about.
var (
	chaosCapsMbps = []float64{15, 25, 35, 50, 75}
	chaosQMults   = []float64{1, 2, 4}
	chaosCCAs     = []string{tcp.AlgCubic, tcp.AlgBBR}
)

// GenerateChaosRun deterministically builds run i of a campaign. scale
// compresses the paper timeline (1.0 = full 540 s trace).
func GenerateChaosRun(campaign uint64, i int, scale float64) *ChaosRun {
	seed := chaosSeed(campaign, i)
	rng := sim.NewRNG(seed ^ chaosTag)
	tl := timelineScaled(scale)

	cr := &ChaosRun{Index: i, Seed: seed}
	linkCap := units.Mbps(chaosCapsMbps[rng.Intn(len(chaosCapsMbps))])
	cfg := experiment.RunConfig{
		Condition: experiment.Condition{
			System:    gamestream.Systems[rng.Intn(len(gamestream.Systems))],
			CCA:       chaosCCAs[rng.Intn(len(chaosCCAs))],
			Capacity:  linkCap,
			QueueMult: chaosQMults[rng.Intn(len(chaosQMults))],
			AQM:       experiment.AQMDropTail,
		},
		Timeline: tl,
		Seed:     seed,
	}

	// Episodes: 1-3 bursts, each confined to its own slice of the
	// contention window so episodes never overlap and the last one is done
	// well before the competing flow departs (the recovery invariant needs
	// a clean post-departure tail).
	n := 1 + rng.Intn(3)
	window := tl.FlowStop - tl.FlowStart
	margin := window / 8
	span := (window - 2*margin) / time.Duration(n)
	for e := 0; e < n; e++ {
		slot := tl.FlowStart + margin + time.Duration(e)*span
		kind := episodeKinds[rng.Intn(len(episodeKinds))]
		// Duration: 5-25% of the slot, flaps capped harder — an outage
		// longer than a few RTO backoffs stops being an episode and
		// becomes a different experiment.
		dur := time.Duration((0.05 + 0.20*rng.Float64()) * float64(span))
		if kind == EpLinkFlap {
			if max := 2 * time.Second; dur > max {
				dur = max
			}
		}
		start := slot + time.Duration(rng.Float64()*float64(span-dur))
		ep := Episode{Kind: kind, Start: start, End: start + dur}
		switch kind {
		case EpLossBurst:
			ep.LossRate = 0.01 + 0.07*rng.Float64()
		case EpRateCrush:
			ep.RateFrac = 0.2 + 0.4*rng.Float64()
		case EpJitterStorm:
			ep.Jitter = time.Duration(1+rng.Intn(8)) * time.Millisecond
		}
		cr.Episodes = append(cr.Episodes, ep)
	}
	cfg.Schedule = scheduleFor(cr.Episodes, linkCap)
	cr.Cfg = cfg
	return cr
}

// scheduleFor renders episodes as the schedule-step program the run
// executes: one step entering each episode, one restoring the knob.
func scheduleFor(eps []Episode, cap units.Rate) []experiment.ScheduleStep {
	var steps []experiment.ScheduleStep
	for _, ep := range eps {
		switch ep.Kind {
		case EpLossBurst:
			steps = append(steps,
				experiment.ScheduleStep{At: ep.Start, Kind: experiment.ScheduleLoss, LossRate: ep.LossRate},
				experiment.ScheduleStep{At: ep.End, Kind: experiment.ScheduleLoss})
		case EpRateCrush:
			steps = append(steps,
				experiment.ScheduleStep{At: ep.Start, Kind: experiment.ScheduleRate, Rate: units.Rate(float64(cap) * ep.RateFrac)},
				experiment.ScheduleStep{At: ep.End, Kind: experiment.ScheduleRate, Rate: cap})
		case EpJitterStorm:
			steps = append(steps,
				experiment.ScheduleStep{At: ep.Start, Kind: experiment.ScheduleJitter, Jitter: ep.Jitter},
				experiment.ScheduleStep{At: ep.End, Kind: experiment.ScheduleJitter})
		case EpLinkFlap:
			steps = append(steps,
				experiment.ScheduleStep{At: ep.Start, Kind: experiment.ScheduleDown},
				experiment.ScheduleStep{At: ep.End, Kind: experiment.ScheduleUp})
		}
	}
	return steps
}

// timelineScaled is the chaos timeline at the given compression.
func timelineScaled(scale float64) metrics.Timeline {
	if scale <= 0 {
		scale = 1
	}
	return metrics.PaperTimeline.Scale(scale)
}

// ChaosConfig configures a campaign.
type ChaosConfig struct {
	// Seed is the campaign seed; Runs the number of generated runs.
	Seed uint64
	Runs int
	// Scale compresses the paper timeline (default 1.0; CI smoke uses
	// 0.1-0.25 for speed).
	Scale float64
	// Workers bounds run concurrency (<= 0 = one worker per CPU).
	Workers int
	// Cache, when non-nil, serves and stores runs content-addressed; a
	// same-seed campaign re-run is then a 100% hit.
	Cache *runcache.Cache
	// SampleEvery is the period of the expensive differential invariants
	// (determinism re-run, loss monotonicity): every Nth run pays one extra
	// simulation. 0 defaults to 16; negative disables sampling.
	SampleEvery int
}

// RunChaos executes a campaign: generate Runs configurations from Seed,
// run each through experiment.Execute (and the cache when provided), check
// every invariant against every run on the worker that ran it, and
// aggregate a report. sinks observe the runs exactly as they observe a
// sweep (run records use the standard runlog schema, so chaos campaigns
// are grep-able like sweeps). The report is deterministic for a given
// (Seed, Runs, Scale) regardless of Workers or cache state.
func RunChaos(cc ChaosConfig, sinks experiment.Sinks) (*CampaignReport, error) {
	if cc.Runs <= 0 {
		return nil, fmt.Errorf("scenario: chaos campaign needs Runs > 0")
	}
	if cc.Scale <= 0 {
		cc.Scale = 1
	}
	if cc.SampleEvery == 0 {
		cc.SampleEvery = 16
	}

	runs := make([]*ChaosRun, cc.Runs)
	jobs := make([]experiment.Job, cc.Runs)
	for i := range runs {
		runs[i] = GenerateChaosRun(cc.Seed, i, cc.Scale)
		jobs[i] = experiment.Job{Cfg: runs[i].Cfg, Iter: i}
	}
	outcomes := make([][]InvariantOutcome, cc.Runs)
	experiment.Execute(context.Background(), jobs, cc.Workers, cc.Cache, sinks, func(i int, res *experiment.RunResult, hit bool) {
		runs[i].Result, runs[i].Cached = res, hit
		outcomes[i] = CheckInvariants(runs[i], cc.SampleEvery)
	})

	rep := &CampaignReport{
		Seed:  cc.Seed,
		Runs:  cc.Runs,
		Scale: cc.Scale,
	}
	rep.Invariants = make([]InvariantResult, len(Invariants))
	byName := map[string]*InvariantResult{}
	for i, inv := range Invariants {
		rep.Invariants[i] = InvariantResult{Name: inv.Name, Desc: inv.Desc}
		byName[inv.Name] = &rep.Invariants[i]
	}
	for i := range runs {
		if runs[i].Cached {
			rep.CacheHits++
		}
		for _, o := range outcomes[i] {
			ir := byName[o.Name]
			switch {
			case o.Skipped:
				ir.Skipped++
			case o.Violation != "":
				ir.Checked++
				rep.Violations++
				if len(ir.ViolationList) < maxViolationsKept {
					ir.ViolationList = append(ir.ViolationList, Violation{
						Run: i, Seed: runs[i].Seed, Detail: o.Violation,
					})
				}
			default:
				ir.Checked++
				ir.Passed++
			}
		}
	}
	return rep, nil
}
