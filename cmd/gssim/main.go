// Command gssim runs one scenario spec: a declarative .scn file
// (-scenario, docs/SCENARIOS.md) or the paper's one-link testbed built from
// flags. A one-iteration spec prints its 0.5 s time series (game bitrate,
// competing-flow bitrate, RTT, frame rate, loss) as CSV — the raw data
// behind one line of Figure 2 — and a run summary on stderr; a longer one
// prints one summary line per iteration.
//
// Usage:
//
//	gssim -system stadia -cca cubic -capacity 25 -queue 2 > trace.csv
//	gssim -scenario scenarios/paper_1v1.scn > trace.csv
//	gssim -scenario scenarios/population.scn -runlog runs.jsonl
//	gssim -cca cubic,bbr -probe -probe-out probes > trace.csv
//	gssim -scale 0.2 -cache runs.cache -cpuprofile cpu.out
//	gssim -chaos -chaos-runs 200 -seed 42 -scale 0.1 -cache runs.cache \
//	      -invariants-out campaign.json
//
// Without -scenario the flags build a one-link spec: a -capacity Mb/s
// bottleneck with the paper's 8.25 ms one-way delay and a -queue BDP-multiple
// queue under -aqm, one iperf flow per -cca entry, and -seed and -scale as
// the spec's seed and scale. Both kinds of spec run through the same
// experiment.Execute loop, so a flag-built run and the equivalent .scn file
// are byte-identical. Flow populations, impairments and mid-run schedules
// are .scn sections only. With -probe, each run's CC/queue telemetry is
// exported into the -probe-out directory as <cond>__seed<seed>.*.
//
// With -chaos the tool generates a seed-derived random impairment
// campaign, checks every run against the metamorphic invariant suite,
// prints the per-invariant verdict table, and exits non-zero if any
// invariant was violated. A flag the selected mode does not read is an
// error (exit 2), not silently ignored; a flag value outside the bounds the
// matching .scn key enforces exits 1 before any run.
//
// The paper's full grid is not a mode of gssim: gsbench -exp runs it in
// process and renders the tables, and gscampaign -spec
// scenarios/paper_grid.campaign runs it sharded in O(conditions) memory.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
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
		cca      = flag.String("cca", "cubic", "competing iperf flows, comma-separated: cubic|bbr|none")
		capacity = flag.Float64("capacity", 25, "bottleneck capacity in Mb/s")
		queue    = flag.Float64("queue", 2, "queue size in multiples of BDP")
		aqm      = flag.String("aqm", experiment.AQMDropTail, "queue discipline")
		seed     = flag.Uint64("seed", 1, "run seed")
		scale    = flag.Float64("scale", 1, "timeline compression (1 = the full 540 s trace); below 1 a smoke test, not paper evidence: at 0.15, 9 of 54 Figure 3 cells flip sign")
		workers  = flag.Int("workers", 0, "with -chaos: run parallelism (0 = one worker per CPU)")

		scenarioPath = flag.String("scenario", "", "run a declarative scenario file instead of the flag-built one-link spec (see docs/SCENARIOS.md)")
		chaos        = flag.Bool("chaos", false, "run a seed-derived chaos campaign checked against the invariant suite (-seed selects the campaign)")
		chaosRuns    = flag.Int("chaos-runs", 200, "with -chaos: number of generated runs")
		invOut       = flag.String("invariants-out", "", "with -chaos: write the campaign report JSON here (render with gsreport)")

		cacheDir = flag.String("cache", "", "content-addressed run cache directory (created if missing); its hit/miss/store counters print to stderr on exit")

		progress   = flag.Bool("progress", false, "print per-run progress and engine stats to stderr")
		runlog     = flag.String("runlog", "", "write one JSONL record per completed run to this file (truncates)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		probeOn       = flag.Bool("probe", false, "attach CC/queue instrumentation and export cc/queue/drops series")
		probeInterval = flag.Duration("probe-interval", 100*time.Millisecond, "probe sampling interval (0 = snapshot on every ACK)")
		events        = flag.Int("events", 0, "packet lifecycle event ring capacity (0 = off)")
		probeDir      = flag.String("probe-out", "probes", "directory receiving per-run probe exports")
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

	if mode != "scenario" {
		// -chaos reads only -scale of the three; -capacity and -queue keep
		// their in-bounds defaults there, since unreadFlags rejects them.
		if err := checkBounds(*capacity, *queue, *scale); err != nil {
			fatal(err)
		}
	}
	if err := checkProbe(*probeInterval, *events); err != nil {
		fatal(err)
	}
	var sp *scenario.Spec
	switch mode {
	case "scenario":
		var err error
		if sp, err = scenario.ParseFile(*scenarioPath); err != nil {
			fatal(err)
		}
	case "single":
		if err := checkNames(*system, *cca, *aqm); err != nil {
			fatal(err)
		}
		sp = flagSpec(*system, *cca, *capacity, *queue, *aqm, *seed, *scale)
	}

	var probeCfg *probe.Config
	if *probeOn {
		probeCfg = &probe.Config{Interval: *probeInterval, Events: *events, PerAck: *probeInterval == 0}
		// An unwritable export directory fails here, not after the runs.
		if err := os.MkdirAll(*probeDir, 0o755); err != nil {
			fatal(err)
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
		var err error
		if cache, err = runcache.Open(*cacheDir); err != nil {
			fatal(err)
		}
		defer func() { fmt.Fprintf(os.Stderr, "gssim: cache %s: %s\n", cache.Dir(), cache.Stats()) }()
	}

	if mode == "chaos" {
		runChaos(*seed, *chaosRuns, *scale, *workers, *invOut, *progress, runLog, cache)
		return
	}
	runSpec(sp, probeCfg, *probeDir, *progress, runLog, cache)
}

// flagSpec builds the one-link spec the single-run flags describe: the
// paper's testbed with a -capacity bottleneck of 8.25 ms one-way delay (a
// 16.5 ms base RTT), a -queue BDP-multiple -aqm queue, and one iperf flow
// per comma-separated -cca entry ("none" or "" for a solo run). The values
// must already have passed checkNames and checkBounds.
func flagSpec(system, cca string, capacity, queue float64, aqm string, seed uint64, scale float64) *scenario.Spec {
	sp := &scenario.Spec{
		Name:       "flags",
		Seed:       seed,
		Iterations: 1,
		Scale:      scale,
		System:     gamestream.System(system),
		Links: []scenario.Link{{
			Name:      "bottleneck",
			Rate:      units.Mbps(capacity),
			Delay:     8250 * time.Microsecond,
			QueueMult: queue,
			AQM:       aqm,
		}},
		Path: []string{"bottleneck"},
	}
	if cca != "" && cca != "none" {
		for i, c := range strings.Split(cca, ",") {
			sp.Flows = append(sp.Flows, scenario.Flow{Name: fmt.Sprintf("flow%d", i), Kind: experiment.CompIperf, CCA: c})
		}
	}
	return sp
}

// runSpec executes every iteration of sp through experiment.Execute, one
// at a time in iteration order. A single iteration prints the CSV time
// series and a run summary on stderr; several print one summary line per
// run. Probed runs export into probeDir.
func runSpec(sp *scenario.Spec, probeCfg *probe.Config, probeDir string, progress bool, runLog *obs.JSONL, cache *runcache.Cache) {
	iters := sp.Iterations
	fmt.Fprintf(os.Stderr, "gssim: scenario %q: %d iteration(s), seed %d\n", sp.Name, iters, sp.Seed)
	jobs := make([]experiment.Job, iters)
	for it := range jobs {
		cfg := sp.RunConfig(it)
		cfg.Probe = probeCfg
		jobs[it] = experiment.Job{Cfg: cfg, Iter: it}
	}
	sinks := experiment.Sinks{ProbeDir: probeDir}
	if runLog != nil {
		sinks.Progress = runLog
	}
	const workers = 1 // the lines below print in iteration order
	experiment.Execute(context.Background(), jobs, workers, cache, sinks, func(it int, res *experiment.RunResult, hit bool) {
		rec := res.Record(it)
		rr := metrics.MeasureResponseRecovery(res.GameSeries(), res.Cfg.Timeline)
		if iters == 1 {
			printTrace(res)
			printSummary(os.Stderr, res, rec, rr)
		} else {
			fmt.Printf("iter %2d seed %d: original %5.1f Mb/s, contended %5.1f Mb/s, fairness %+5.2f, rtt %5.1f ms\n",
				it, res.Cfg.Seed, rr.OriginalMbs, rr.AdjustedMbs, rec.Fairness, rec.RTTMs)
		}
		if res.Probe != nil {
			m := res.Probe.Meta()
			fmt.Fprintf(os.Stderr, "gssim: probe: %d cc samples, %d queue samples, %d events -> %s.{cc,queue,drops}.csv\n",
				m.CCSamples, m.QueueSamples, m.Events,
				filepath.Join(probeDir, experiment.ProbeBase(res.Cfg.Condition, res.Cfg.Seed)))
		}
		if progress {
			src := "run"
			if hit {
				src = "cache hit"
			}
			es := res.Engine
			fmt.Fprintf(os.Stderr,
				"gssim: iter %d/%d (%s): %d events (%d peak pending), %.0fs sim in %.2fs wall = %.0fx real time, %.2g events/s\n",
				it+1, iters, src, es.EventsDispatched, es.PeakPending, es.SimTime.Seconds(), es.WallTime.Seconds(),
				es.Speedup(), es.EventsPerSecond())
		}
	})
}

// printSummary writes a one-iteration run's summary to w: the flow
// population and impairment totals when the spec has them, then the
// paper's measures on the run's own timeline. A response or recovery that
// never settled prints as a bound (">17s"), not as a measured time.
func printSummary(w io.Writer, res *experiment.RunResult, rec obs.Record, rr metrics.ResponseRecovery) {
	cfg := res.Cfg
	if cfg.Population.Enabled() {
		fs := res.FlowSummary
		fmt.Fprintf(w,
			"flows %s: %d active, jain %.3f, tput p10/p50/p90 %.2f/%.2f/%.2f Mb/s, rtt-infl p50 %.2fx, %d starved\n",
			cfg.Population, fs.Active, fs.Jain,
			fs.TputP10Mbps, fs.TputP50Mbps, fs.TputP90Mbps, fs.RTTInflP50, fs.Starved)
	}
	if cfg.Impair.Enabled() || len(cfg.Schedule) > 0 {
		is := res.Impair
		fmt.Fprintf(w,
			"impair %s: %d packets, %d loss drops, %d flap drops, %d dup, %d reordered, %d flaps (%.1fs down)\n",
			cfg.Impair, is.Packets, is.LossDrops, is.FlapDrops, is.Duplicates, is.Reordered, is.Flaps, is.Down.Seconds())
	}
	fmt.Fprintf(w,
		"run %s: original %.1f Mb/s, contended %.1f Mb/s, tcp %.1f Mb/s, fairness %+.2f, response %s, recovery %s, rtt %.1f ms, fps %.1f, loss %.2f%%\n",
		cfg.Condition, rr.OriginalMbs, rr.AdjustedMbs, rec.TCPMbps, rec.Fairness,
		metrics.FormatSettle(rr.Response, rr.Responded, "s"), metrics.FormatSettle(rr.Recovery, rr.Recovered, "s"),
		rec.RTTMs, rec.FPS, rec.LossPct)
}

// printTrace writes a run's 0.5 s time series as CSV, the output contract
// of a one-iteration spec.
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

// modeFlags names the flags each mode reads; profileFlags are accepted in
// every mode.
var (
	profileFlags = []string{"cpuprofile", "memprofile"}
	modeFlags    = map[string][]string{
		"single": {"system", "cca", "capacity", "queue", "aqm", "seed", "scale",
			"progress", "runlog", "cache", "probe", "probe-interval", "events", "probe-out"},
		"scenario": {"scenario", "progress", "runlog", "cache", "probe", "probe-interval", "events", "probe-out"},
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

// checkBounds holds -capacity, -queue and -scale to the bounds a .scn
// file's rate, queue and scale keys enforce, naming the flag: a zero rate
// never finishes, and a negative queue or scale would run under a
// nonsense label or silently at full fidelity.
func checkBounds(capacity, queue, scale float64) error {
	// NaN and ±Inf convert to an implementation-defined Rate; reject them
	// before converting. Mbps truncates, so under 1 bit/s is zero.
	if math.IsNaN(capacity) || math.IsInf(capacity, 0) || units.Mbps(capacity) <= 0 {
		return fmt.Errorf("-capacity %g must be positive", capacity)
	}
	if !scenario.InBounds(queue, scenario.MaxQueueMult) {
		return fmt.Errorf("-queue %g outside (0,%d] BDP multiples", queue, scenario.MaxQueueMult)
	}
	if !scenario.InBounds(scale, scenario.MaxScale) {
		return fmt.Errorf("-scale %g outside (0,%d]", scale, scenario.MaxScale)
	}
	return nil
}

// checkProbe rejects a negative -probe-interval or -events, naming the
// flag: the probe would otherwise sample at its default interval and log
// no events, and say nothing.
func checkProbe(interval time.Duration, events int) error {
	if interval < 0 {
		return fmt.Errorf("-probe-interval %v must not be negative", interval)
	}
	if events < 0 {
		return fmt.Errorf("-events %d must not be negative", events)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gssim:", err)
	os.Exit(1)
}
