// Command gssim runs experiments directly. In its default single-run mode
// it executes one condition and prints its 0.5 s time series (game bitrate,
// competing-flow bitrate, RTT, frame rate, loss) as CSV — the raw data
// behind one line of Figure 2.
//
// Usage:
//
//	gssim -system stadia -cca cubic -capacity 25 -queue 2 > trace.csv
//	gssim -scenario scenarios/paper_1v1.scn > trace.csv
//	gssim -flows 20 -flow-mix "iperf:cubic,dash" -runlog runs.jsonl
//	gssim -scale 0.2 -cache runs.cache -cpuprofile cpu.out
//	gssim -chaos -chaos-runs 200 -seed 42 -scale 0.1 -cache runs.cache \
//	      -invariants-out campaign.json
//
// With -scenario the condition comes from a declarative scenario file
// (docs/SCENARIOS.md) instead of flags; the same condition built either way
// produces byte-identical results. With -chaos the tool generates a
// seed-derived random impairment campaign, checks every run against the
// metamorphic invariant suite, prints the per-invariant verdict table, and
// exits non-zero if any invariant was violated. A flag the selected mode
// does not read is an error (exit 2), not silently ignored.
//
// The paper's full grid is not a gssim mode: gsbench -exp runs it in
// process and renders the tables, and gscampaign -spec
// scenarios/paper_grid.campaign runs it sharded in O(conditions) memory.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/runcache"
	"repro/internal/scenario"
	"repro/internal/tcp"
	"repro/internal/units"
)

func main() {
	var (
		system   = flag.String("system", "stadia", "game system: stadia|geforce|luna")
		cca      = flag.String("cca", "cubic", "competing flow: cubic|bbr|none")
		capacity = flag.Float64("capacity", 25, "bottleneck capacity in Mb/s")
		queue    = flag.Float64("queue", 2, "queue size in multiples of BDP")
		aqm      = flag.String("aqm", experiment.AQMDropTail, "queue discipline")
		seed     = flag.Uint64("seed", 1, "run seed")
		scale    = flag.Float64("scale", 1, "timeline compression")
		workers  = flag.Int("workers", 0, "with -chaos: run parallelism (0 = one worker per CPU)")

		scenarioPath = flag.String("scenario", "", "run a declarative scenario file instead of flag-built conditions (see docs/SCENARIOS.md)")
		chaos        = flag.Bool("chaos", false, "run a seed-derived chaos campaign checked against the invariant suite (-seed selects the campaign)")
		chaosRuns    = flag.Int("chaos-runs", 200, "with -chaos: number of generated runs")
		invOut       = flag.String("invariants-out", "", "with -chaos: write the campaign report JSON here (render with gsreport -invariants)")

		cacheDir = flag.String("cache", "", "content-addressed run cache directory (created if missing); its hit/miss/store counters print to stderr on exit")

		progress   = flag.Bool("progress", false, "print live progress to stderr")
		runlog     = flag.String("runlog", "", "write one JSONL record per completed run to this file (truncates)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		probeOn       = flag.Bool("probe", false, "attach CC/queue instrumentation and export cc/queue/drops series")
		probeInterval = flag.Duration("probe-interval", 100*time.Millisecond, "probe sampling interval (0 = snapshot on every ACK)")
		events        = flag.Int("events", 0, "packet lifecycle event ring capacity (0 = off)")
		probeOut      = flag.String("probe-out", "probe", "probe export basename prefix")

		flows   = flag.Int("flows", 0, "competing flow slots sharing the bottleneck (0 = classic 1-vs-1)")
		streams = flag.Int("streams", 0, "additional concurrent game streams beyond the primary")
		flowMix = flag.String("flow-mix", "", `population traffic mix, cycled across slots: "iperf:cubic,dash,videocall"`)
		flowOn  = flag.Duration("flow-on", 0, "mean ON duration per flow arrival (Pareto; 0 = window/6)")
		flowOff = flag.Duration("flow-off", 0, "mean OFF gap between a flow's sessions (exponential; 0 = on/2)")

		loss     = flag.String("loss", "", `downlink loss: "2%", "0.02", or "ge:p=0.01,r=0.25[,good=0,bad=1]"`)
		jitter   = flag.Duration("jitter", 0, "downlink delay jitter (uniform 0..j per packet)")
		reorder  = flag.Bool("reorder", false, "allow jitter to reorder packets instead of clamping")
		dup      = flag.String("dup", "", `downlink duplicate probability: "1%" or "0.01"`)
		schedule = flag.String("schedule", "", `mid-run retuning program, e.g. "60s rate=10mbit; 120s down; 121s up"`)
	)
	flag.Parse()

	mode := "single"
	switch {
	case *chaos:
		mode = "chaos"
	case *scenarioPath != "":
		mode = "scenario"
	}
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if bad := unreadFlags(mode, set); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "gssim: %s mode does not read -%s\n", mode, strings.Join(bad, ", -"))
		os.Exit(2)
	}

	var impair netem.Impairment
	if err := experiment.ParseLoss(*loss, &impair); err != nil {
		fatal(err)
	}
	impair.Jitter = *jitter
	impair.Reorder = *reorder
	if *dup != "" {
		p, err := experiment.ParseProb(*dup)
		if err != nil {
			fatal(fmt.Errorf("-dup: %w", err))
		}
		impair.Duplicate = p
	}
	sched, err := experiment.ParseSchedule(*schedule)
	if err != nil {
		fatal(err)
	}

	mix, err := experiment.ParseMix(*flowMix)
	if err != nil {
		fatal(err)
	}
	pop := experiment.FlowPopulation{Flows: *flows, Streams: *streams, Mix: mix, MeanOn: *flowOn, MeanOff: *flowOff}
	if err := checkPopulation(pop); err != nil {
		fatal(err)
	}
	if err := checkNames(*system, *cca, *aqm); err != nil {
		fatal(err)
	}

	var probeCfg *probe.Config
	if *probeOn {
		probeCfg = &probe.Config{Interval: *probeInterval, Events: *events}
		if *probeInterval == 0 {
			probeCfg.PerAck = true
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memprofile)

	var runLog *obs.JSONL
	if *runlog != "" {
		f, err := os.Create(*runlog)
		if err != nil {
			fatal(err)
		}
		// Unbuffered on purpose: one small write per completed run keeps
		// the log tail-able while the sweep executes.
		runLog = obs.NewJSONL(f)
		defer f.Close()
	}

	var cache *runcache.Cache
	if *cacheDir != "" {
		cache, err = runcache.Open(*cacheDir)
		if err != nil {
			fatal(err)
		}
		defer func() { fmt.Fprintf(os.Stderr, "gssim: cache %s: %s\n", cache.Dir(), cache.Stats()) }()
	}

	switch mode {
	case "chaos":
		runChaos(*seed, *chaosRuns, *scale, *workers, *invOut, *progress, runLog, cache)
		return
	case "scenario":
		runScenario(*scenarioPath, *progress, runLog, cache)
		return
	}
	runSingle(*system, *cca, *capacity, *queue, *aqm, *seed, *scale, *progress, runLog, probeCfg, *probeOut, impair, sched, pop, cache)
}

// runScenario executes every iteration of a scenario file, one at a time in
// iteration order. A single iteration prints the same CSV time series as
// the flag path (the scenario and flag constructions of the same condition
// are byte-identical); multi-iteration scenarios print one summary line per
// run.
func runScenario(path string, progress bool, runLog *obs.JSONL, cache *runcache.Cache) {
	sp, err := scenario.ParseFile(path)
	if err != nil {
		fatal(err)
	}
	iters := sp.Iterations
	if iters <= 0 {
		iters = 1
	}
	fmt.Fprintf(os.Stderr, "gssim: scenario %q: %d iteration(s), seed %d\n", sp.Name, iters, sp.Seed)
	jobs := make([]experiment.Job, iters)
	for it := range jobs {
		jobs[it] = experiment.Job{Cfg: sp.RunConfig(it), Iter: it}
	}
	var sinks experiment.Sinks
	if runLog != nil {
		sinks.Progress = runLog
	}
	const workers = 1 // the lines below print in iteration order
	experiment.Execute(context.Background(), jobs, workers, cache, sinks, func(it int, res *experiment.RunResult, hit bool) {
		if iters == 1 {
			printTrace(res)
		} else {
			rec := res.Record(it)
			rr := metrics.MeasureResponseRecovery(res.GameSeries(), res.Cfg.Timeline)
			fmt.Printf("iter %2d seed %d: original %5.1f Mb/s, contended %5.1f Mb/s, fairness %+5.2f, rtt %5.1f ms\n",
				it, res.Cfg.Seed, rr.OriginalMbs, rr.AdjustedMbs, rec.Fairness, rec.RTTMs)
		}
		if progress {
			src := "run"
			if hit {
				src = "cache hit"
			}
			fmt.Fprintf(os.Stderr, "gssim: scenario iter %d/%d (%s)\n", it+1, iters, src)
		}
	})
}

// printTrace writes a run's 0.5 s time series as CSV, the single-run
// output contract shared by the flag and scenario paths.
func printTrace(res *experiment.RunResult) {
	n := len(res.GameMbps)
	tcol := make([]float64, n)
	rttCol := make([]float64, n)
	fpsCol := make([]float64, n)
	for i := 0; i < n; i++ {
		at := time.Duration(i) * res.Bin
		tcol[i] = at.Seconds()
		if xs := res.RTTBetween(at, at+res.Bin); len(xs) > 0 {
			sum := 0.0
			for _, x := range xs {
				sum += x
			}
			rttCol[i] = sum / float64(len(xs))
		}
		fpsBin := int(at / time.Second)
		if fpsBin < len(res.FPSBins) {
			fpsCol[i] = res.FPSBins[fpsBin]
		}
	}
	fmt.Print(report.CSV(
		[]string{"t_sec", "game_mbps", "tcp_mbps", "rtt_ms", "fps", "game_loss"},
		[][]float64{tcol, res.GameMbps, res.TCPMbps, rttCol, fpsCol, res.GameLossBins},
	))
}

// runChaos executes a seed-derived chaos campaign, prints the per-invariant
// verdict table, and exits non-zero when any invariant was violated.
func runChaos(seed uint64, runs int, scale float64, workers int, invOut string, progress bool, runLog *obs.JSONL, cache *runcache.Cache) {
	var sinks []obs.Progress
	if runLog != nil {
		sinks = append(sinks, runLog)
	}
	if progress {
		sinks = append(sinks, obs.NewPrinter(os.Stderr))
	}
	start := time.Now()
	rep, err := scenario.RunChaos(scenario.ChaosConfig{
		Seed:    seed,
		Runs:    runs,
		Scale:   scale,
		Workers: workers,
		Cache:   cache,
	}, experiment.Sinks{Progress: obs.MultiProgress(sinks...)})
	if err != nil {
		fatal(err)
	}
	fmt.Print(figures.InvariantTable(rep))
	fmt.Fprintf(os.Stderr, "gssim: chaos campaign: %d runs in %v, %d cache hits, %d violations\n",
		rep.Runs, time.Since(start).Round(time.Millisecond), rep.CacheHits, rep.Violations)
	if invOut != "" {
		if err := scenario.SaveReport(invOut, rep); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gssim: campaign report written to %s\n", invOut)
	}
	if !rep.Passed() {
		os.Exit(1)
	}
}

// runSingle executes one condition and prints its time series as CSV. The
// -cca flag accepts a comma-separated list (e.g. "cubic,bbr") to put
// several bulk flows on the bottleneck at once.
func runSingle(system, cca string, capacity, queue float64, aqm string, seed uint64, scale float64, progress bool, runLog *obs.JSONL, probeCfg *probe.Config, probeOut string, impair netem.Impairment, sched []experiment.ScheduleStep, pop experiment.FlowPopulation, cache *runcache.Cache) {
	if cca == "none" {
		cca = ""
	}
	cfg := experiment.RunConfig{
		Condition: experiment.Condition{
			System:    gamestream.System(system),
			CCA:       cca,
			Capacity:  units.Mbps(capacity),
			QueueMult: queue,
			AQM:       aqm,
			Impair:    impair,
		},
		Timeline:   paperTimeline(scale),
		Seed:       seed,
		Probe:      probeCfg,
		Schedule:   sched,
		Population: pop,
	}
	if ccas := strings.Split(cca, ","); len(ccas) > 1 {
		cfg.CCA = ccas[0] // condition label; the competitor list drives the run
		for _, c := range ccas {
			cfg.Competitors = append(cfg.Competitors, experiment.Competitor{Kind: experiment.CompIperf, CCA: c})
		}
	}
	res, hit := experiment.RunCached(cache, cfg)
	var pmeta *obs.ProbeMeta
	if res.Probe != nil {
		dir, base := filepath.Split(probeOut)
		if dir == "" {
			dir = "."
		}
		m, err := res.Probe.Export(dir, base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gssim:", err)
		} else {
			fmt.Fprintf(os.Stderr, "gssim: probe: %d cc samples, %d queue samples, %d events -> %s.{cc,queue,drops}.csv\n",
				m.CCSamples, m.QueueSamples, m.Events, probeOut)
		}
		pmeta = &m
	}
	rec := res.Record(0)
	rec.Probe = pmeta
	rec.Cached = hit
	if runLog != nil {
		if err := runLog.Log(rec); err != nil {
			fmt.Fprintln(os.Stderr, "gssim:", err)
		}
	}
	if hit {
		fmt.Fprintln(os.Stderr, "gssim: run served from cache")
	}

	printTrace(res)

	if pop.Flows > 0 || pop.Streams > 0 {
		fs := res.FlowSummary
		fmt.Fprintf(os.Stderr,
			"flows %s: %d active, jain %.3f, tput p10/p50/p90 %.2f/%.2f/%.2f Mb/s, rtt-infl p50 %.2fx, %d starved\n",
			res.Cfg.Population, fs.Active, fs.Jain,
			fs.TputP10Mbps, fs.TputP50Mbps, fs.TputP90Mbps, fs.RTTInflP50, fs.Starved)
	}
	if impair.Enabled() || len(sched) > 0 {
		is := res.Impair
		fmt.Fprintf(os.Stderr,
			"impair %s: %d packets, %d loss drops, %d flap drops, %d dup, %d reordered, %d flaps (%.1fs down)\n",
			impair, is.Packets, is.LossDrops, is.FlapDrops, is.Duplicates, is.Reordered, is.Flaps, is.Down.Seconds())
	}
	rr := metrics.MeasureResponseRecovery(res.GameSeries(), res.Cfg.Timeline)
	fmt.Fprintf(os.Stderr,
		"run %s: original %.1f Mb/s, contended %.1f Mb/s, fairness %+.2f, response %.0fs, recovery %.0fs, rtt %.1f ms, fps %.1f\n",
		res.Cfg.Condition, rr.OriginalMbs, rr.AdjustedMbs, rec.Fairness,
		rr.Response.Seconds(), rr.Recovery.Seconds(), rec.RTTMs, rec.FPS)
	if progress {
		es := res.Engine
		fmt.Fprintf(os.Stderr,
			"engine: %d events (%d peak pending), %.0fs sim in %.2fs wall = %.0fx real time, %.2g events/s\n",
			es.EventsDispatched, es.PeakPending, es.SimTime.Seconds(), es.WallTime.Seconds(),
			es.Speedup(), es.EventsPerSecond())
	}
}

// paperTimeline is the paper's 9-minute timeline compressed by scale (0 or
// 1 = full fidelity).
func paperTimeline(scale float64) metrics.Timeline {
	if scale > 0 && scale != 1 {
		return metrics.PaperTimeline.Scale(scale)
	}
	return metrics.PaperTimeline
}

// modeFlags names the flags each mode reads; profileFlags are accepted in
// every mode.
var (
	profileFlags = []string{"cpuprofile", "memprofile"}
	modeFlags    = map[string][]string{
		"single": {"system", "cca", "capacity", "queue", "aqm", "seed", "scale",
			"progress", "runlog", "cache", "probe", "probe-interval", "events", "probe-out",
			"flows", "streams", "flow-mix", "flow-on", "flow-off",
			"loss", "jitter", "reorder", "dup", "schedule"},
		"scenario": {"scenario", "progress", "runlog", "cache"},
		"chaos":    {"chaos", "chaos-runs", "seed", "scale", "workers", "invariants-out", "progress", "runlog", "cache"},
	}
)

// unreadFlags returns the names in set that mode does not read, in the
// order of set (flag.Visit's is lexicographical).
func unreadFlags(mode string, set []string) []string {
	reads := make(map[string]bool)
	for _, name := range append(modeFlags[mode], profileFlags...) {
		reads[name] = true
	}
	var bad []string
	for _, name := range set {
		if !reads[name] {
			bad = append(bad, name)
		}
	}
	return bad
}

func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gssim:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "gssim:", err)
	}
}

// popFlags names the gssim flag behind each population field Validate
// checks, keyed by the field's scenario-file key.
var popFlags = map[string]string{"flows": "flows", "streams": "streams", "mean_on": "flow-on", "mean_off": "flow-off"}

// checkPopulation holds the population flags to the bounds a scenario
// file's [population] section enforces, naming the offending flag.
func checkPopulation(pop experiment.FlowPopulation) error {
	var pe *experiment.PopulationError
	if errors.As(pop.Validate(), &pe) {
		return fmt.Errorf("-%s %s", popFlags[pe.Key], pe.Msg)
	}
	return nil
}

// checkNames rejects an unknown -system, -cca or -aqm name before any run,
// naming the flag; the run itself would panic on it.
func checkNames(system, cca, aqm string) error {
	if _, err := gamestream.ParseSystem(system); err != nil {
		return fmt.Errorf("-system: %w", err)
	}
	if cca != "" && cca != "none" {
		for _, c := range strings.Split(cca, ",") {
			if !tcp.Known(c) {
				return fmt.Errorf("-cca: unknown cca %q", c)
			}
		}
	}
	if err := experiment.CheckAQM(aqm); err != nil {
		return fmt.Errorf("-aqm: %w", err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gssim:", err)
	os.Exit(1)
}
