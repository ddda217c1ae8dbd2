package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runcache"
	"repro/internal/scenario"
	"repro/internal/units"
)

// env is what a workload takes from the process running it.
type env struct {
	root    string    // checkout root: holds scenarios/ and bench/
	work    string    // scratch directory for campaigns and caches
	seed    uint64    // derives every run seed and the campaign seed
	seconds float64   // how long the closed loop measures
	scale   float64   // timeline multiplier: 1 in the benchmark, small in the smoke test
	grid    string    // campaign spec in bench/ the grid workloads run
	replays int       // grid_warm replays in a traced pass
	log     io.Writer // detail lines for the reader
	ref     *refMeter // reference kernel samples; see reference.go
}

// workload is one named input set; BENCHMARK.json says why each was
// chosen. setup builds the inputs from the seed and does the untimed
// warm-up; everything it does counts toward setup_s.
type workload struct {
	name  string
	setup func(e *env, c *checker) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// measure runs the closed loop for env.seconds and returns the
	// end-to-end metrics the workload owns (all but setup_s and max_rss_mb,
	// which the parent process measures).
	measure(c *checker) (map[string]float64, error)
	// trace runs the workload's input set once untraced and once with spans,
	// and returns the per-layer metrics derived from it.
	trace(c *checker, tr *tracer) (map[string]float64, error)
}

var workloads = []workload{
	{"paper_run", setupPaperRun},
	{"population_200", setupPopulation},
	{"impaired_path", setupImpaired},
	{"grid_cold", func(e *env, c *checker) (instance, error) { return setupGrid(e, c, false) }},
	{"grid_warm", func(e *env, c *checker) (instance, error) { return setupGrid(e, c, true) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// simAcc sums the engine counters of a set of runs.
type simAcc struct {
	runs                                int
	events, scheduled, cancelled, moves uint64
	peak                                int
	wall                                time.Duration
}

func (a *simAcc) add(r *experiment.RunResult) {
	a.runs++
	a.events += r.Engine.EventsDispatched
	a.scheduled += r.Engine.EventsScheduled
	a.cancelled += r.Engine.EventsCancelled
	a.moves += r.Engine.TimerMoves
	a.peak = max(a.peak, r.Engine.PeakPending)
	a.wall += r.Engine.WallTime
}

// allocBytes returns the bytes allocated so far by the process.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// --- run workloads: one operation is experiment.Run plus RunResult.Record ---

// runWorkload cycles through rounds of run configurations; round r uses seed
// index r mod seeds, so later rounds repeat earlier ones and every repeat is
// checked against its first execution.
type runWorkload struct {
	e     *env
	name  string
	seeds int
	round func(r int) []experiment.RunConfig
	seen  repeats
}

func newRunWorkload(e *env, c *checker, name string, seeds int, round func(r int) []experiment.RunConfig) *runWorkload {
	w := &runWorkload{e: e, name: name, seeds: seeds, round: round, seen: repeats{}}
	// Warm-up: the first run of the first round, so heap growth and lazy
	// initialisation are paid here and not inside the timed loop.
	w.exec(c, w.round(0)[0], 0)
	return w
}

// exec runs one configuration and checks its output.
func (w *runWorkload) exec(c *checker, cfg experiment.RunConfig, iter int) (res *experiment.RunResult, wall time.Duration, alloc uint64, repeat bool) {
	a0 := allocBytes()
	t0 := time.Now()
	res = experiment.Run(cfg)
	rec := res.Record(iter)
	wall = time.Since(t0)
	alloc = allocBytes() - a0
	repeat, err := w.seen.check(res, rec)
	c.op(errors.Join(err, checkRecord(rec, res.Cfg.BaseRTT, window(res.Cfg.Timeline))))
	return res, wall, alloc, repeat
}

// measure times every run and scales it to reference speed by the kernel
// sample taken right before it.
func (w *runWorkload) measure(c *checker) (map[string]float64, error) {
	var walls, scaled, perSimS []float64
	var alloc uint64
	repeated := 0
	start := time.Now()
	r := 0
	for ; r == 0 || time.Since(start).Seconds() < w.e.seconds; r++ {
		for i, cfg := range w.round(r) {
			w.e.ref.begin()
			res, wall, a, rep := w.exec(c, cfg, i)
			ms := wall.Seconds() * 1e3
			walls = append(walls, ms)
			scaled = append(scaled, ms*w.e.ref.scale())
			perSimS = append(perSimS, scaled[len(scaled)-1]/res.Engine.SimTime.Duration().Seconds())
			alloc += a
			if rep {
				repeated++
			}
		}
	}
	fmt.Fprintf(w.e.log, "%s: %d runs in %d rounds over %.1f s; %d repeats matched their first execution; run wall p50 over N=%d is %.1f ms raw, %.1f ref_ms; reference kernel p50 %.2f ms over N=%d\n",
		w.name, len(walls), r, time.Since(start).Seconds(), repeated, len(walls), median(walls), median(scaled), median(w.e.ref.all), len(w.e.ref.all))
	return map[string]float64{
		"wall_per_sim_s":   median(perSimS),
		"op_wall_p50":      median(scaled),
		"alloc_mb_per_run": float64(alloc) / float64(len(walls)) / 1e6,
	}, nil
}

func (w *runWorkload) trace(c *checker, tr *tracer) (map[string]float64, error) {
	var cfgs []experiment.RunConfig
	for k := 0; k < w.seeds; k++ {
		cfgs = append(cfgs, w.round(k)...)
	}
	// Each run executes untraced, then traced, so drift over the pass
	// affects both sides alike.
	var untraced time.Duration
	var acc simAcc
	for i, cfg := range cfgs {
		_, wall, _, _ := w.exec(c, cfg, i)
		untraced += wall
		root := tr.begin("bench.op", 0)
		s := tr.begin("experiment.Run", root)
		res := experiment.Run(cfg)
		tr.end(s)
		s = tr.begin("metrics.Record", root)
		rec := res.Record(i)
		tr.end(s)
		tr.end(root)
		acc.add(res)
		_, err := w.seen.check(res, rec)
		c.op(errors.Join(err, checkRecord(rec, res.Cfg.BaseRTT, window(res.Cfg.Timeline))))
	}
	return workloadLayers(tr, acc, "experiment.Run", untraced, cacheActivity{}), nil
}

// paperCells are the five BENCH_10 headline cells.
var paperCells = []experiment.Condition{
	{System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2},
	{System: gamestream.Stadia, CCA: "bbr", Capacity: units.Mbps(25), QueueMult: 2},
	{System: gamestream.Luna, CCA: "bbr", Capacity: units.Mbps(25), QueueMult: 0.5},
	{System: gamestream.GeForce, Capacity: units.Mbps(15), QueueMult: 2},
	{System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 7, AQM: experiment.AQMCoDel},
}

func setupPaperRun(e *env, c *checker) (instance, error) {
	tl := metrics.PaperTimeline.Scale(e.scale)
	return newRunWorkload(e, c, "paper_run", 3, func(r int) []experiment.RunConfig {
		cfgs := make([]experiment.RunConfig, len(paperCells))
		for i, cond := range paperCells {
			cfgs[i] = experiment.RunConfig{Condition: cond, Timeline: tl, Seed: experiment.RunSeed(e.seed, r%3, cond)}
		}
		return cfgs
	}), nil
}

func setupPopulation(e *env, c *checker) (instance, error) {
	tl := metrics.PaperTimeline.Scale(e.scale)
	cond := experiment.Condition{System: gamestream.Stadia, Capacity: units.Mbps(25), QueueMult: 2}
	return newRunWorkload(e, c, "population_200", 5, func(r int) []experiment.RunConfig {
		return []experiment.RunConfig{{
			Condition:  cond,
			Timeline:   tl,
			Population: experiment.FlowPopulation{Flows: 200},
			Seed:       experiment.RunSeed(e.seed, r%5, cond),
		}}
	}), nil
}

func setupImpaired(e *env, c *checker) (instance, error) {
	sp, err := scenario.ParseFile(filepath.Join(e.root, "scenarios", "impaired_multihop.scn"))
	if err != nil {
		return nil, err
	}
	sp.Scale *= e.scale
	cond := sp.RunConfig(0).Condition
	return newRunWorkload(e, c, "impaired_path", 5, func(r int) []experiment.RunConfig {
		s := *sp
		s.Seed = experiment.RunSeed(e.seed, r%5, cond)
		cfgs := make([]experiment.RunConfig, s.Iterations)
		for i := range cfgs {
			cfgs[i] = s.RunConfig(i)
		}
		return cfgs
	}), nil
}

// --- grid workloads: one operation is a whole campaign plus its report ---

type gridWorkload struct {
	e     *env
	name  string
	spec  *campaign.Spec
	cells int
	simS  float64         // simulated seconds one campaign delivers
	warm  bool            // replay over cache instead of a cold cache per campaign
	cache *runcache.Cache // the primed cache (warm only)
	ref   []byte          // reference merged.det.json
	ops   int             // campaigns started, for fresh names and directories
}

// loadGridSpec reads a campaign spec shipped in bench/ and applies the
// benchmark seed and timeline scale.
func loadGridSpec(e *env, file string) (*campaign.Spec, error) {
	sp, err := campaign.ParseSpecFile(filepath.Join(e.root, "bench", file))
	if err != nil {
		return nil, err
	}
	sp.Seed = e.seed
	sp.Scale *= e.scale
	return sp, nil
}

func setupGrid(e *env, c *checker, warm bool) (instance, error) {
	sp, err := loadGridSpec(e, e.grid)
	if err != nil {
		return nil, err
	}
	cells := sp.Cells()
	g := &gridWorkload{
		e: e, name: "grid_cold", spec: sp, cells: len(cells), warm: warm,
		simS: float64(len(cells)) * cells[0].RunConfig(sp).Timeline.TraceEnd.Seconds(),
	}
	if !warm {
		// Warm-up: one cell, uncached, so the first timed campaign does not
		// pay the process's heap growth alone.
		experiment.Run(cells[0].RunConfig(sp))
		return g, nil
	}
	g.name = "grid_warm"
	if g.cache, err = runcache.Open(filepath.Join(e.work, "prime-cache")); err != nil {
		return nil, err
	}
	res, _, _, err := g.campaign(sp, g.cache, filepath.Join(e.work, "prime"))
	if res == nil {
		return nil, err
	}
	c.op(err)
	return g, nil
}

// next returns the spec, cache and directory of the next campaign: a fresh
// cache per cold campaign, or a renamed spec over the primed cache (the
// campaign name is not part of any cache key, so every cell hits).
func (g *gridWorkload) next() (*campaign.Spec, *runcache.Cache, string, error) {
	g.ops++
	dir := filepath.Join(g.e.work, fmt.Sprintf("op-%d", g.ops))
	if g.warm {
		sp := *g.spec
		sp.Name = fmt.Sprintf("%s-replay-%d", g.spec.Name, g.ops)
		return &sp, g.cache, dir, nil
	}
	cache, err := runcache.Open(filepath.Join(dir, "cache"))
	return g.spec, cache, dir, err
}

// campaign runs one campaign through the program's own path (campaign.Run
// with one in-process worker, then the telemetry report) and checks it. It
// returns the result (nil when the campaign could not run), wall time
// without the reference kernel samples taken between its shards, allocated
// bytes, and what was wrong.
func (g *gridWorkload) campaign(sp *campaign.Spec, cache *runcache.Cache, dir string) (*campaign.Result, time.Duration, uint64, error) {
	before := cache.Stats()
	paused := g.e.ref.paused
	a0 := allocBytes()
	t0 := time.Now()
	res, err := campaign.Run(context.Background(), sp, campaign.Options{Dir: dir, Cache: cache, Log: g.e.ref})
	if err != nil {
		return nil, 0, 0, err
	}
	figures.RenderTelemetry(io.Discard, sp.Name, res.Snapshot)
	wall := time.Since(t0) - (g.e.ref.paused - paused)
	alloc := allocBytes() - a0
	return res, wall, alloc, g.checkCampaign(res, cache.Stats().Sub(before), "campaign")
}

// checkCampaign checks a finished campaign's outputs and cache activity; a
// cold campaign with no reference yet becomes the reference.
func (g *gridWorkload) checkCampaign(res *campaign.Result, d runcache.Stats, what string) error {
	errs := []error{checkCache(d, g.cells, g.warm && g.ref != nil)}
	if g.ref == nil {
		g.ref = res.Det
	} else {
		errs = append(errs, sameDet(res.Det, g.ref, what))
	}
	f, err := os.Open(res.RunlogPath)
	if err != nil {
		return errors.Join(append(errs, err)...)
	}
	defer f.Close()
	recs, err := obs.ReadJSONL(f)
	errs = append(errs, err)
	if len(recs) != g.cells {
		errs = append(errs, fmt.Errorf("%s: %d records, want %d", what, len(recs), g.cells))
	}
	win := window(metrics.PaperTimeline.Scale(g.spec.Scale))
	for _, r := range recs {
		errs = append(errs, checkRecord(r, defaultBaseRTT, win))
	}
	return errors.Join(errs...)
}

// op runs and checks the next campaign, then deletes its directory.
func (g *gridWorkload) op(c *checker) (time.Duration, uint64, error) {
	sp, cache, dir, err := g.next()
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	_, wall, alloc, err := g.campaign(sp, cache, filepath.Join(dir, "camp"))
	c.op(err)
	return wall, alloc, nil
}

// measure times every campaign and scales it to reference speed by the
// kernel samples taken right before it and between its shards.
func (g *gridWorkload) measure(c *checker) (map[string]float64, error) {
	var walls, scaled []float64
	var alloc uint64
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < g.e.seconds {
		g.e.ref.begin()
		wall, a, err := g.op(c)
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall.Seconds()*1e3)
		scaled = append(scaled, walls[len(walls)-1]*g.e.ref.scale())
		alloc += a
	}
	fmt.Fprintf(g.e.log, "%s: %d campaigns of %d cells over %.1f s; campaign wall p50 over N=%d is %.1f ms raw, %.1f ref_ms; reference kernel p50 %.2f ms over N=%d\n",
		g.name, len(walls), g.cells, time.Since(start).Seconds(), len(walls), median(walls), median(scaled), median(g.e.ref.all), len(g.e.ref.all))
	p50 := median(scaled)
	return map[string]float64{
		"wall_per_sim_s":   p50 / g.simS,
		"op_wall_p50":      p50,
		"alloc_mb_per_run": float64(alloc) / float64(g.cells*len(walls)) / 1e6,
	}, nil
}

func (g *gridWorkload) trace(c *checker, tr *tracer) (map[string]float64, error) {
	n := 1
	if g.warm {
		n = g.e.replays
	}
	// Each campaign runs untraced, then traced, so drift over the pass
	// affects both sides alike.
	var untraced time.Duration
	var acc simAcc
	var act cacheActivity
	for i := 0; i < n; i++ {
		wall, _, err := g.op(c)
		if err != nil {
			return nil, err
		}
		untraced += wall
		sp, cache, dir, err := g.next()
		if err != nil {
			return nil, err
		}
		before := cache.Stats()
		res, discards, err := tracedCampaign(tr, sp, cache, filepath.Join(dir, "camp"), &acc)
		if err == nil {
			d := cache.Stats().Sub(before)
			act.add(d, discards)
			err = g.checkCampaign(res, d, "traced campaign")
		}
		c.op(err)
		os.RemoveAll(dir)
	}
	return workloadLayers(tr, acc, "experiment.RunCached", untraced, act), nil
}
