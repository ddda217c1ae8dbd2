package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/runcache"
	"repro/internal/stats"
	"repro/internal/units"
)

// DefaultWorkers is the repository-wide default for run parallelism: one
// worker per CPU. Every layer that exposes a Workers knob (SweepConfig,
// figures.Options, cmd/gsbench) funnels its zero value through this
// function, so the default lives in exactly one place.
func DefaultWorkers() int { return runtime.NumCPU() }

// SweepConfig describes a full experimental campaign (Table 2 defaults).
type SweepConfig struct {
	Systems    []gamestream.System
	CCAs       []string // "" entries mean no competing flow
	Capacities []units.Rate
	QueueMults []float64
	AQM        string
	Iterations int
	Timeline   metrics.Timeline
	// Workers bounds run parallelism (<= 0 = DefaultWorkers, i.e. NumCPU).
	Workers int
	// BaseSeed derives all per-run seeds deterministically.
	BaseSeed uint64
	// Progress, when non-nil, receives live sweep progress and every
	// completed run's record (see obs; obs.JSONL is the run log). It is
	// never persisted by SaveSweep.
	Progress obs.Progress
	// Probe, when non-nil, instruments every run (see probe.Config); the
	// capture metadata rides along on each run's record.
	Probe *probe.Config
	// ProbeDir, when non-empty (and Probe is set), receives one set of
	// probe exports per run, named <cond>__seed<seed>.{cc,queue,drops}.csv
	// (plus .events.jsonl when the ring is on).
	ProbeDir string
	// Cache, when non-nil, serves each run from the content-addressed run
	// cache when its result is already stored and stores it otherwise, so
	// a repeated or resumed sweep only executes the missing runs. Probed
	// sweeps bypass the cache (see RunConfig.Cacheable). It is never
	// persisted by SaveSweep.
	Cache *runcache.Cache
}

// PaperSweep returns the paper's full grid: 3 systems × {cubic, bbr} ×
// {15, 25, 35} Mb/s × {0.5, 2, 7}×BDP × 15 iterations. It is the one
// definition of the grid's axes: Defaults, the campaign spec parser and the
// figures all read them from here.
func PaperSweep() SweepConfig {
	return SweepConfig{
		Systems:    gamestream.Systems,
		CCAs:       []string{"cubic", "bbr"},
		Capacities: []units.Rate{units.Mbps(15), units.Mbps(25), units.Mbps(35)},
		QueueMults: []float64{0.5, 2, 7},
		Iterations: 15,
		Timeline:   metrics.PaperTimeline,
		BaseSeed:   20220322, // data gathered March 2022
	}
}

// Defaults fills zero fields from PaperSweep.
func (s SweepConfig) Defaults() SweepConfig {
	p := PaperSweep()
	if len(s.Systems) == 0 {
		s.Systems = p.Systems
	}
	if len(s.CCAs) == 0 {
		s.CCAs = p.CCAs
	}
	if len(s.Capacities) == 0 {
		s.Capacities = p.Capacities
	}
	if len(s.QueueMults) == 0 {
		s.QueueMults = p.QueueMults
	}
	if s.Iterations == 0 {
		s.Iterations = p.Iterations
	}
	if s.Timeline == (metrics.Timeline{}) {
		s.Timeline = p.Timeline
	}
	if s.Workers <= 0 {
		s.Workers = DefaultWorkers()
	}
	if s.BaseSeed == 0 {
		s.BaseSeed = p.BaseSeed
	}
	return s
}

// Jobs expands the grid into its runs, in the paper's striping order
// (outer: iteration; then cca, capacity, queue; inner: system), each with
// its position-derived seed. It is the one grid expander: RunSweep and
// campaign grid cells both read it, so a one-shard grid campaign
// reproduces the equivalent sweep run for run. Jobs does not apply
// Defaults; an empty axis expands to no jobs.
func (s SweepConfig) Jobs() []Job {
	jobs := make([]Job, 0, s.Iterations*len(s.CCAs)*len(s.Capacities)*len(s.QueueMults)*len(s.Systems))
	for it := 0; it < s.Iterations; it++ {
		for _, cca := range s.CCAs {
			for _, capy := range s.Capacities {
				for _, qm := range s.QueueMults {
					for _, sys := range s.Systems {
						cond := Condition{System: sys, CCA: cca, Capacity: capy, QueueMult: qm, AQM: s.AQM}
						jobs = append(jobs, Job{Iter: it, Cfg: RunConfig{
							Condition: cond,
							Timeline:  s.Timeline,
							Seed:      RunSeed(s.BaseSeed, it, cond),
							Probe:     s.Probe,
						}})
					}
				}
			}
		}
	}
	return jobs
}

// probeBase derives a filesystem-safe export basename from a run's grid
// position, e.g. "stadia_cubic_B25_q2.0x__seed123".
func probeBase(cond Condition, seed uint64) string {
	return fmt.Sprintf("%s__seed%d", strings.ReplaceAll(cond.String(), "/", "_"), seed)
}

// RunSeed derives the deterministic seed for one run from its grid
// position. Jobs seeds every grid run with it; runs planned outside a
// SweepConfig (Monte-Carlo campaign draws) use it so their seeds follow the
// same rule.
func RunSeed(base uint64, iter int, cond Condition) uint64 {
	h := base
	mix := func(x uint64) {
		h ^= x
		h *= 0x100000001b3
		h ^= h >> 29
	}
	mix(uint64(iter) + 1)
	for _, c := range cond.String() {
		mix(uint64(c))
	}
	return h
}

// ConditionResult aggregates the runs of one grid cell.
type ConditionResult struct {
	Cond Condition
	Runs []*RunResult
}

// SweepResult holds all conditions of a campaign.
type SweepResult struct {
	Cfg        SweepConfig
	Conditions []*ConditionResult
	// Interrupted is set when the sweep's context was cancelled before
	// every run completed; the Conditions then hold only the runs that
	// finished.
	Interrupted bool
	// Cache holds this sweep's slice of the run-cache counters (hits,
	// misses, stores, bypasses) when the sweep ran with one; zero
	// otherwise.
	Cache runcache.Stats
}

// Find returns the result for a condition, or nil.
func (s *SweepResult) Find(cond Condition) *ConditionResult {
	for _, c := range s.Conditions {
		if c.Cond == cond {
			return c
		}
	}
	return nil
}

// Job is one run of an execution plan: its configuration and its index
// within its grid cell, which becomes the Iteration of its record.
type Job struct {
	Cfg  RunConfig
	Iter int
}

// Sinks observe an execution while it runs; every field may be left zero.
type Sinks struct {
	// Progress receives SweepStart, one RunDone per completed run (with the
	// run's record attached), and SweepDone.
	Progress obs.Progress
	// ProbeDir, when non-empty, receives the exports of every probed run,
	// named <cond>__seed<seed>.{cc,queue,drops}.csv (plus .events.jsonl
	// when the ring is on).
	ProbeDir string
}

// Execute is the in-process executor every multi-run caller goes through:
// it runs jobs across workers goroutines (<= 0 = DefaultWorkers), each
// through cache when one is given, and reports every run to sinks. Results
// are independent of scheduling because a run is a pure function of its
// configuration.
//
// each, when non-nil, receives every completed run with its index in jobs
// and whether the cache served it. It runs on the worker goroutine, before
// Progress.RunDone, so per-run post-processing stays parallel; it must be
// safe to call concurrently for different indices.
//
// Cancelling ctx stops new runs from starting; in-flight runs complete.
// Execute returns the number of runs that completed.
func Execute(ctx context.Context, jobs []Job, workers int, cache *runcache.Cache, sinks Sinks, each func(i int, res *RunResult, hit bool)) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	total := len(jobs)
	if sinks.Progress != nil {
		sinks.Progress.SweepStart(total)
	}
	start := time.Now()

	var (
		next, done atomic.Int64
		wg         sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				j := jobs[i]
				runStart := time.Now()
				res, hit := RunCached(cache, j.Cfg)
				var pmeta *obs.ProbeMeta
				if res.Probe != nil {
					m := res.Probe.Meta()
					if sinks.ProbeDir != "" {
						// An export failure must not kill a campaign; the
						// meta then carries counts without filenames.
						if em, err := res.Probe.Export(sinks.ProbeDir, probeBase(j.Cfg.Condition, j.Cfg.Seed)); err == nil {
							m = em
						}
					}
					pmeta = &m
				}
				var rec *obs.Record
				if sinks.Progress != nil {
					r := res.Record(j.Iter)
					r.Probe = pmeta
					r.Cached = hit
					rec = &r
				}
				if each != nil {
					each(i, res, hit)
				}
				d := int(done.Add(1))
				if sinks.Progress != nil {
					elapsed := time.Since(start)
					var eta time.Duration
					if d < total {
						eta = time.Duration(float64(elapsed) / float64(d) * float64(total-d))
					}
					sinks.Progress.RunDone(obs.Update{
						Done: d, Total: total,
						Cond: j.Cfg.Condition.String(), Seed: j.Cfg.Seed, Iteration: j.Iter,
						RunWall: time.Since(runStart), Elapsed: elapsed, ETA: eta,
						Record: rec,
					})
				}
			}
		}()
	}
	wg.Wait()
	n := int(done.Load())
	if sinks.Progress != nil {
		sinks.Progress.SweepDone(n < total, time.Since(start))
	}
	return n
}

// RunSweep executes the campaign: it expands the grid into Jobs, runs them
// through Execute, and groups the results by condition. The job order
// mirrors the paper's striping to document the methodology, although in
// simulation ordering has no temporal effect.
//
// Cancelling ctx stops new runs from starting; in-flight runs complete and
// the partial result comes back with Interrupted set. cfg.Progress observes
// the sweep as it executes.
func RunSweep(ctx context.Context, cfg SweepConfig) *SweepResult {
	cfg = cfg.Defaults()
	if ctx == nil {
		ctx = context.Background()
	}

	jobs := cfg.Jobs()
	var cacheBefore runcache.Stats
	if cfg.Cache != nil {
		cacheBefore = cfg.Cache.Stats()
	}
	results := make([]*RunResult, len(jobs))
	sinks := Sinks{Progress: cfg.Progress, ProbeDir: cfg.ProbeDir}
	done := Execute(ctx, jobs, cfg.Workers, cfg.Cache, sinks, func(i int, res *RunResult, _ bool) { results[i] = res })

	out := &SweepResult{Cfg: cfg, Interrupted: done < len(jobs)}
	if cfg.Cache != nil {
		out.Cache = cfg.Cache.Stats().Sub(cacheBefore)
	}
	byCond := make(map[Condition]*ConditionResult)
	for i, res := range results {
		if res == nil {
			continue
		}
		cond := jobs[i].Cfg.Condition
		c := byCond[cond]
		if c == nil {
			c = &ConditionResult{Cond: cond}
			byCond[cond] = c
			out.Conditions = append(out.Conditions, c)
		}
		c.Runs = append(c.Runs, res)
	}
	for _, c := range out.Conditions {
		sort.Slice(c.Runs, func(i, j int) bool { return c.Runs[i].Cfg.Seed < c.Runs[j].Cfg.Seed })
	}
	sort.Slice(out.Conditions, func(i, j int) bool {
		return out.Conditions[i].Cond.String() < out.Conditions[j].Cond.String()
	})
	return out
}

// --- Aggregations used by the tables and figures ---

// timeline returns the runs' timeline (all runs in a cell share one).
func (c *ConditionResult) timeline() metrics.Timeline {
	return c.Runs[0].Cfg.Timeline
}

// GameRate summarises the game flow's bitrate (Mb/s) over a window across
// runs.
func (c *ConditionResult) GameRate(from, to time.Duration) stats.Summary {
	var xs []float64
	for _, r := range c.Runs {
		xs = append(xs, r.GameSeries().MeanBetween(from, to))
	}
	return stats.Summarize(xs)
}

// GameRateBins pools every 0.5 s bitrate bin of every run in the window —
// the distribution behind the paper's "mean (stddev)" bitrate cells, where
// the deviation reflects bitrate variation over time, not just across runs.
func (c *ConditionResult) GameRateBins(from, to time.Duration) stats.Summary {
	var acc stats.Accumulator
	for _, r := range c.Runs {
		lo := int(from / r.Bin)
		hi := int(to / r.Bin)
		for i := lo; i < hi && i < len(r.GameMbps); i++ {
			acc.Add(r.GameMbps[i])
		}
	}
	return stats.Summary{N: acc.N(), Mean: acc.Mean(), StdDev: acc.StdDev(), CI95: acc.CI95()}
}

// TCPRate summarises the competing flow's bitrate over a window.
func (c *ConditionResult) TCPRate(from, to time.Duration) stats.Summary {
	var xs []float64
	for _, r := range c.Runs {
		xs = append(xs, r.TCPSeries().MeanBetween(from, to))
	}
	return stats.Summarize(xs)
}

// FairnessRatio returns the paper's normalised bitrate difference over the
// fairness window (220–370 s), averaged across runs.
func (c *ConditionResult) FairnessRatio() float64 {
	from, to := c.timeline().FairnessWindow()
	g := c.GameRate(from, to).Mean
	t := c.TCPRate(from, to).Mean
	return metrics.FairnessRatio(g, t, c.Cond.Capacity.Mbit())
}

// RTTStats summarises ping RTTs (ms) in a window across runs, pooling all
// samples as the paper's tables do.
func (c *ConditionResult) RTTStats(from, to time.Duration) stats.Summary {
	var xs []float64
	for _, r := range c.Runs {
		xs = append(xs, r.RTTBetween(from, to)...)
	}
	return stats.Summarize(xs)
}

// FPSStats summarises displayed frame rate over a window across runs
// (per-run mean first, then across runs, matching the paper's per-run
// sampling).
func (c *ConditionResult) FPSStats(from, to time.Duration) stats.Summary {
	var xs []float64
	for _, r := range c.Runs {
		xs = append(xs, r.FPSSeries().MeanBetween(from, to))
	}
	return stats.Summarize(xs)
}

// LossStats summarises game-flow loss fractions over a window across runs.
func (c *ConditionResult) LossStats(from, to time.Duration) stats.Summary {
	var xs []float64
	for _, r := range c.Runs {
		xs = append(xs, r.LossBetween(from, to))
	}
	return stats.Summarize(xs)
}

// ResponseRecovery measures §4.2 settling on the across-run mean bitrate
// series (the same series Figure 2 plots).
func (c *ConditionResult) ResponseRecovery() metrics.ResponseRecovery {
	mean, _ := c.MeanGameSeries()
	return metrics.MeasureResponseRecovery(mean, c.timeline())
}

// MeanGameSeries returns the across-run mean bitrate series and its 95% CI
// half-widths per bin — the data behind one Figure 2 line.
func (c *ConditionResult) MeanGameSeries() (mean metrics.Series, ci []float64) {
	if len(c.Runs) == 0 {
		return metrics.Series{}, nil
	}
	n := len(c.Runs[0].GameMbps)
	accs := make([]stats.Accumulator, n)
	for _, r := range c.Runs {
		for i := 0; i < n && i < len(r.GameMbps); i++ {
			accs[i].Add(r.GameMbps[i])
		}
	}
	v := make([]float64, n)
	ci = make([]float64, n)
	for i := range accs {
		v[i] = accs[i].Mean()
		ci[i] = accs[i].CI95()
	}
	return metrics.Series{Bin: c.Runs[0].Bin, V: v}, ci
}

// ContentionWindow returns the paper's stabilised contention window.
func (c *ConditionResult) ContentionWindow() (from, to time.Duration) {
	return c.timeline().FairnessWindow()
}
