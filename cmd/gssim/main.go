// Command gssim runs experiments directly. In its default single-run mode
// it executes one condition and prints its 0.5 s time series (game bitrate,
// competing-flow bitrate, RTT, frame rate, loss) as CSV — the raw data
// behind one line of Figure 2. With -sweep it instead executes the paper's
// full campaign grid (narrowed by -iters/-scale) with live progress,
// structured JSONL run logs, and clean SIGINT cancellation.
//
// Usage:
//
//	gssim -system stadia -cca cubic -capacity 25 -queue 2 > trace.csv
//	gssim -scenario scenarios/paper_1v1.scn > trace.csv
//	gssim -flows 20 -flow-mix "iperf:cubic,dash" -runlog runs.jsonl
//	gssim -sweep -progress -runlog runs.jsonl -iters 15
//	gssim -sweep -cache runs.cache -cache-stats   # resumable/incremental
//	gssim -sweep -iters 1 -scale 0.2 -cpuprofile cpu.out
//	gssim -chaos -chaos-runs 200 -seed 42 -scale 0.1 -cache runs.cache \
//	      -invariants-out campaign.json
//
// With -scenario the condition comes from a declarative scenario file
// (docs/SCENARIOS.md) instead of flags; the same condition built either way
// produces byte-identical results. With -chaos the tool generates a
// seed-derived random impairment campaign, checks every run against the
// metamorphic invariant suite, prints the per-invariant verdict table, and
// exits non-zero if any invariant was violated.
//
// A sweep interrupted with Ctrl-C drains its in-flight runs, reports the
// partial results, and marks them "interrupted" on stderr and in the exit
// summary; every completed run is already in the JSONL log.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/pcap"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/runcache"
	"repro/internal/scenario"
	"repro/internal/sim"
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
		pcapPath = flag.String("pcap", "", "also write the bottleneck trace as a pcap file")

		sweep   = flag.Bool("sweep", false, "run the paper's full sweep grid instead of a single condition")
		iters   = flag.Int("iters", 15, "sweep iterations per condition")
		workers = flag.Int("workers", 0, "sweep parallelism (0 = one worker per CPU)")

		scenarioPath = flag.String("scenario", "", "run a declarative scenario file instead of flag-built conditions (see docs/SCENARIOS.md)")
		chaos        = flag.Bool("chaos", false, "run a seed-derived chaos campaign checked against the invariant suite (-seed selects the campaign)")
		chaosRuns    = flag.Int("chaos-runs", 200, "with -chaos: number of generated runs")
		invOut       = flag.String("invariants-out", "", "with -chaos: write the campaign report JSON here (render with gsreport -invariants)")

		cacheDir   = flag.String("cache", "", "content-addressed run cache directory (created if missing)")
		cacheStats = flag.Bool("cache-stats", false, "print run-cache hit/miss/store counters to stderr on exit")

		progress   = flag.Bool("progress", false, "print live progress to stderr")
		runlog     = flag.String("runlog", "", "write one JSONL record per completed run to this file (truncates)")
		telAddr    = flag.String("telemetry-addr", "", "with -sweep: serve live telemetry over HTTP at this address (e.g. :9300): /metrics is Prometheus text, /snapshot JSON")
		telOut     = flag.String("telemetry-out", "", "with -sweep: write the final telemetry snapshot (metric sketches + health) to this JSON file")
		telLog     = flag.String("telemetry-log", "", "with -sweep: append the JSONL health timeline (progress, cache hit rate, events/sec drift) to this file")
		discard    = flag.Bool("discard-runs", false, "with -sweep: drop per-run results once the sinks have seen them, keeping memory O(conditions)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		probeOn       = flag.Bool("probe", false, "attach CC/queue instrumentation and export cc/queue/drops series")
		probeInterval = flag.Duration("probe-interval", 100*time.Millisecond, "probe sampling interval (0 = snapshot on every ACK)")
		events        = flag.Int("events", 0, "packet lifecycle event ring capacity (0 = off)")
		probeOut      = flag.String("probe-out", "probe", "probe export location: basename prefix for a single run, directory for -sweep")

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
		defer func() {
			if *cacheStats {
				fmt.Fprintf(os.Stderr, "gssim: cache %s: %s\n", cache.Dir(), cache.Stats())
			}
		}()
	}

	telem, err := openTelemetry(*telAddr, *telOut, *telLog, cache)
	if err != nil {
		fatal(err)
	}
	defer telem.close()

	if *chaos {
		runChaos(*seed, *chaosRuns, *scale, *workers, *invOut, *progress, runLog, cache)
		return
	}
	if *scenarioPath != "" {
		runScenario(*scenarioPath, *progress, runLog, cache)
		return
	}
	if *sweep {
		runSweep(*iters, *scale, *workers, *aqm, *progress, runLog, probeCfg, *probeOut, impair, sched, pop, cache, telem, *discard)
		return
	}
	runSingle(*system, *cca, *capacity, *queue, *aqm, *seed, *scale, *pcapPath, *progress, runLog, probeCfg, *probeOut, impair, sched, pop, cache)
}

// runScenario executes every iteration of a scenario file. A single
// iteration prints the same CSV time series as the flag path (the scenario
// and flag constructions of the same condition are byte-identical); multi-
// iteration scenarios print one summary line per run.
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
	for it := 0; it < iters; it++ {
		res, hit := experiment.RunCached(cache, sp.RunConfig(it))
		rec := res.Record(it)
		rec.Cached = hit
		if runLog != nil {
			if err := runLog.Log(rec); err != nil {
				fmt.Fprintln(os.Stderr, "gssim:", err)
			}
		}
		if iters == 1 {
			printTrace(res)
		} else {
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
	}
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
	var sinks experiment.Sinks
	if runLog != nil {
		sinks.RunLog = runLog
	}
	if progress {
		sinks.Progress = obs.NewPrinter(os.Stderr)
	}
	start := time.Now()
	rep, err := scenario.RunChaos(scenario.ChaosConfig{
		Seed:    seed,
		Runs:    runs,
		Scale:   scale,
		Workers: workers,
		Cache:   cache,
	}, sinks)
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

// runSweep executes the paper's campaign with live observability and clean
// SIGINT cancellation, printing one summary line per condition at the end.
func runSweep(iters int, scale float64, workers int, aqm string, progress bool, runLog *obs.JSONL, probeCfg *probe.Config, probeDir string, impair netem.Impairment, sched []experiment.ScheduleStep, pop experiment.FlowPopulation, cache *runcache.Cache, telem *telemetry, discard bool) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := experiment.PaperSweep()
	cfg.Iterations = iters
	cfg.Timeline = paperTimeline(scale)
	cfg.Workers = workers
	cfg.AQM = aqm
	cfg.Schedule = sched
	cfg.Population = pop
	cfg.Cache = cache
	cfg.DiscardRuns = discard
	if impair.Enabled() {
		cfg.Impairments = []netem.Impairment{impair}
	}
	if probeCfg != nil {
		cfg.Probe = probeCfg
		cfg.ProbeDir = probeDir
	}
	if runLog != nil {
		cfg.RunLog = runLog
	}
	var printer obs.Progress
	if progress {
		printer = obs.NewPrinter(os.Stderr)
	}
	cfg.Progress = obs.MultiProgress(printer, telem.progress())

	start := time.Now()
	sw := experiment.RunSweep(ctx, cfg)

	total := 0
	if discard && telem.ag != nil {
		// Per-run results were dropped; the streaming sinks kept count.
		total = telem.ag.Done()
	}
	for _, cond := range sw.Conditions {
		total += len(cond.Runs)
		ff, ft := cond.ContentionWindow()
		g := cond.GameRate(ff, ft)
		t := cond.TCPRate(ff, ft)
		fmt.Printf("%-28s runs %2d  game %5.1f Mb/s  tcp %5.1f Mb/s  fairness %+5.2f\n",
			cond.Cond, len(cond.Runs), g.Mean, t.Mean, cond.FairnessRatio())
	}
	state := "completed"
	if sw.Interrupted {
		state = "interrupted"
	}
	fmt.Fprintf(os.Stderr, "gssim: sweep %s: %d runs across %d conditions in %v\n",
		state, total, len(sw.Conditions), time.Since(start).Round(time.Second))
	if cache != nil {
		fmt.Fprintf(os.Stderr, "gssim: sweep cache: %s\n", sw.Cache)
	}
	if runLog != nil {
		fmt.Fprintf(os.Stderr, "gssim: %d JSONL records written\n", runLog.Count())
	}
}

// runSingle executes one condition and prints its time series as CSV. The
// -cca flag accepts a comma-separated list (e.g. "cubic,bbr") to put
// several bulk flows on the bottleneck at once.
func runSingle(system, cca string, capacity, queue float64, aqm string, seed uint64, scale float64, pcapPath string, progress bool, runLog *obs.JSONL, probeCfg *probe.Config, probeOut string, impair netem.Impairment, sched []experiment.ScheduleStep, pop experiment.FlowPopulation, cache *runcache.Cache) {
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
	if pcapPath != "" {
		f, err := os.Create(pcapPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		bw := bufio.NewWriterSize(f, 1<<20)
		defer bw.Flush()
		pw, err := pcap.NewWriter(bw)
		if err != nil {
			fatal(err)
		}
		cfg.OnPacket = func(at sim.Time, p *packet.Packet) {
			if err := pw.Write(at, p); err != nil {
				fatal(fmt.Errorf("pcap: %w", err))
			}
		}
		defer func() {
			fmt.Fprintf(os.Stderr, "gssim: wrote %d packets to %s\n", pw.Packets(), pcapPath)
		}()
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gssim:", err)
	os.Exit(1)
}
