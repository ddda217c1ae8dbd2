package campaign

import (
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/units"
)

// Cell is one run of the campaign: a grid position (or Monte-Carlo draw)
// plus the deterministic seed derived from it. Cells are never persisted —
// every process re-expands them from the manifest's canonical spec text, so
// the only shared state is the spec itself.
type Cell struct {
	// Index is the cell's position in campaign order; shard membership is a
	// contiguous index range.
	Index int
	// Cond is the cell's grid condition.
	Cond experiment.Condition
	// Iter is the iteration the run reports in its record: the grid repeat
	// index, or the draw index in mc mode (unique per cell, which keeps the
	// telemetry reorder buffer deterministic when draws collide on Cond).
	Iter int
	// Seed is the run's deterministic seed, derived the same way RunSweep
	// derives sweep seeds.
	Seed uint64
	// BaseRTT is the sampled path RTT (mc mode); zero means the run default.
	BaseRTT time.Duration
}

// cellSeedStride separates per-draw RNG streams; the odd constant is the
// 64-bit golden ratio, the usual splitmix increment.
const cellSeedStride = 0x9e3779b97f4a7c15

// Cells expands the spec into its full cell list — a pure function of the
// canonical spec text. Grid mode maps the jobs of the spec's SweepConfig,
// expanded by the same SweepConfig.Jobs RunSweep runs, so a one-shard grid
// campaign reproduces the equivalent sweep run for run. Monte-Carlo mode
// gives each draw its own RNG (seeded from the campaign seed and the draw
// index) and samples in a fixed order: system, cca, rate, rtt, queue.
func (sp *Spec) Cells() []Cell {
	total := sp.Total()
	cells := make([]Cell, 0, total)
	if sp.Mode == ModeMC {
		for d := 0; d < sp.Draws; d++ {
			rng := sim.NewRNG(sp.Seed + uint64(d)*cellSeedStride)
			cond := experiment.Condition{
				System: sp.Systems[rng.Intn(len(sp.Systems))],
				CCA:    sp.CCAs[rng.Intn(len(sp.CCAs))],
				AQM:    sp.AQM,
			}
			rateMbps := sp.Rate.Quantile(rng.Float64())
			rttMs := sp.RTT.Quantile(rng.Float64())
			cond.QueueMult = sp.Queue.Quantile(rng.Float64())
			cond.Capacity = units.Mbps(rateMbps)
			cells = append(cells, Cell{
				Index:   d,
				Cond:    cond,
				Iter:    d,
				Seed:    experiment.RunSeed(sp.Seed, d, cond),
				BaseRTT: time.Duration(rttMs * float64(time.Millisecond)),
			})
		}
		return cells
	}
	// No Defaults: the spec's own seed, zero included, is the base seed.
	grid := experiment.SweepConfig{
		Systems: sp.Systems, CCAs: sp.CCAs, Capacities: sp.Capacities, QueueMults: sp.QueueMults,
		AQM: sp.AQM, Iterations: sp.Iterations, BaseSeed: sp.Seed,
	}
	for i, j := range grid.Jobs() {
		cells = append(cells, Cell{Index: i, Cond: j.Cfg.Condition, Iter: j.Iter, Seed: j.Cfg.Seed})
	}
	return cells
}

// RunConfig compiles one cell into the run configuration the simulator
// executes — the object whose canonical serialisation is the cache key.
func (c Cell) RunConfig(sp *Spec) experiment.RunConfig {
	return experiment.RunConfig{
		Condition: c.Cond,
		Timeline:  metrics.PaperTimeline.Scale(sp.Scale),
		Seed:      c.Seed,
		BaseRTT:   c.BaseRTT,
	}
}

// ShardSize is the cell count per shard (the last shard may be short).
func (sp *Spec) ShardSize() int {
	total := sp.Total()
	if total == 0 || sp.Shards == 0 {
		return 0
	}
	return (total + sp.Shards - 1) / sp.Shards
}

// ShardCount is the number of non-empty shards.
func (sp *Spec) ShardCount() int {
	size := sp.ShardSize()
	if size == 0 {
		return 0
	}
	return (sp.Total() + size - 1) / size
}

// ShardRange returns the half-open cell index range of shard i.
func (sp *Spec) ShardRange(i int) (start, end int) {
	size := sp.ShardSize()
	start = i * size
	end = start + size
	if total := sp.Total(); end > total {
		end = total
	}
	return start, end
}
