// Command gsbench regenerates the paper's tables and figures from the
// simulated testbed. Each experiment runs the sweep it needs (sharing runs
// where tables come from the same traces) and prints the same rows/series
// the paper reports.
//
// Usage:
//
//	gsbench -exp all                     # everything, full fidelity
//	gsbench -exp table4 -iters 5         # one table, fewer runs
//	gsbench -exp figure2 -scale 0.2      # compressed timeline
//	gsbench -exp figure3 -aqm fq_codel   # future-work AQM variant
//	gsbench -exp all -progress -runlog runs.jsonl
//	gsbench -exp all -cache runs.cache   # incremental: re-runs replay hits
//	gsbench -exp figure3 -telemetry-out telemetry.json  # sketch snapshot
//
// Every -exp name is checked before the first run; an unknown one exits 2.
// gsbench sweeps only the paper's clean-path grid: impaired paths run
// through gssim (-loss, -jitter, -schedule, a .scn [impair] section, or
// -chaos).
//
// Ctrl-C cancels the in-progress sweep: in-flight runs drain, tables
// rendered from the partial data mark missing cells with "-", and the
// remaining experiments are skipped. With -cache, completed runs are
// already stored, so re-invoking the same command executes only the
// missing ones; the cache's hit/miss/store counters print on exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/runcache"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1|figure2|figure3|figure4|table3|table4|table5|loss|harm|mix|flowcount|aqmcmp|ablation|responserecovery|qoe|summary|all")
		iters   = flag.Int("iters", 15, "iterations per condition (paper: 15)")
		scale   = flag.Float64("scale", 1.0, "timeline compression factor (1.0 = full 9-minute traces)")
		workers = flag.Int("workers", experiment.DefaultWorkers(), "parallel runs")
		aqm     = flag.String("aqm", experiment.AQMDropTail, "bottleneck queue discipline: droptail|codel|fq_codel")

		cacheDir = flag.String("cache", "", "content-addressed run cache directory (created if missing); repeated campaigns replay hits instead of re-running, and its hit/miss/store counters print to stderr on exit")

		progress   = flag.Bool("progress", false, "print live sweep progress to stderr")
		runlog     = flag.String("runlog", "", "write one JSONL record per completed run to this file (truncates)")
		telAddr    = flag.String("telemetry-addr", "", "serve live campaign telemetry over HTTP at this address (e.g. :9300): /metrics is Prometheus text, /snapshot JSON")
		telOut     = flag.String("telemetry-out", "", "write the final telemetry snapshot (metric sketches + health) to this JSON file")
		telLog     = flag.String("telemetry-log", "", "append the JSONL health timeline (progress, ETA, cache hit rate) to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		probeOn       = flag.Bool("probe", false, "attach CC/queue instrumentation to every run")
		probeInterval = flag.Duration("probe-interval", 100*time.Millisecond, "probe sampling interval (0 = snapshot on every ACK)")
		events        = flag.Int("events", 0, "packet lifecycle event ring capacity per run (0 = off)")
		probeDir      = flag.String("probe-out", "probes", "directory receiving per-run probe exports")
	)
	flag.Parse()

	names, err := parseExps(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gsbench:", err)
		os.Exit(2)
	}
	if err := experiment.CheckAQM(*aqm); err != nil {
		fmt.Fprintln(os.Stderr, "gsbench: -aqm:", err)
		os.Exit(1)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gsbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "gsbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memprofile)

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	opts := figures.Options{
		Iterations: *iters,
		TimeScale:  *scale,
		Workers:    *workers,
		AQM:        *aqm,
	}
	var cache *runcache.Cache
	if *cacheDir != "" {
		if cache, err = runcache.Open(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "gsbench:", err)
			os.Exit(1)
		}
		opts.Cache = cache
	}
	if *probeOn {
		opts.Probe = &probe.Config{Interval: *probeInterval, Events: *events}
		if *probeInterval == 0 {
			opts.Probe.PerAck = true
		}
		opts.ProbeDir = *probeDir
	}
	var sinks []obs.Progress
	if *progress {
		sinks = append(sinks, obs.NewPrinter(os.Stderr))
	}
	if *runlog != "" {
		f, err := os.Create(*runlog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gsbench:", err)
			os.Exit(1)
		}
		// Unbuffered on purpose: one small write per completed run keeps
		// the log tail-able while the campaign executes.
		defer f.Close()
		sinks = append(sinks, obs.NewJSONL(f))
	}
	if *telAddr != "" || *telOut != "" || *telLog != "" {
		ag := obs.NewAggregator()
		sinks = append(sinks, ag)
		if cache != nil {
			ag.CacheStats = cache.Stats
		}
		if *telLog != "" {
			f, err := os.OpenFile(*telLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gsbench:", err)
				os.Exit(1)
			}
			defer f.Close()
			ag.Timeline = f
		}
		if *telAddr != "" {
			srv, err := obs.ServeTelemetry(*telAddr, ag)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gsbench:", err)
				os.Exit(1)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "gsbench: telemetry at http://%s/ (/metrics, /snapshot)\n", srv.Addr())
		}
		if *telOut != "" {
			out := *telOut
			defer func() {
				if err := obs.WriteSnapshot(out, ag.Snapshot()); err != nil {
					fmt.Fprintln(os.Stderr, "gsbench:", err)
				} else {
					fmt.Fprintf(os.Stderr, "gsbench: telemetry snapshot written to %s\n", out)
				}
			}()
		}
	}
	opts.Progress = obs.MultiProgress(sinks...)
	c := figures.NewCampaign(opts)
	c.SetContext(ctx)

	start := time.Now()
	for _, name := range names {
		experiments[name](c)
		if c.Interrupted() {
			fmt.Fprintln(os.Stderr, "gsbench: interrupted — results above are partial; skipping remaining experiments")
			break
		}
	}
	if cache != nil {
		fmt.Fprintf(os.Stderr, "gsbench: cache %s: %s\n", cache.Dir(), cache.Stats())
	}
	fmt.Fprintf(os.Stderr, "gsbench: done in %v (iters=%d scale=%g workers=%d aqm=%s)\n",
		time.Since(start), *iters, *scale, *workers, *aqm)
}

// experiments renders each -exp name from the campaign; names given
// together share the campaign's sweeps.
var experiments = map[string]func(c *figures.Campaign){
	"table1": func(c *figures.Campaign) { fmt.Println(c.Table1()) },
	"figure2": func(c *figures.Campaign) {
		panels := c.Figure2()
		var names []string
		for n := range panels {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("## Figure 2 panel: %s (25 Mb/s)\n%s\n", n, panels[n])
		}
	},
	"figure3": func(c *figures.Campaign) {
		for _, h := range c.Figure3() {
			fmt.Println(h)
		}
	},
	"figure4":          func(c *figures.Campaign) { fmt.Println(c.Figure4Table()) },
	"table3":           func(c *figures.Campaign) { fmt.Println(c.Table3()) },
	"table4":           func(c *figures.Campaign) { fmt.Println(c.Table4()) },
	"table5":           func(c *figures.Campaign) { fmt.Println(c.Table5()) },
	"loss":             func(c *figures.Campaign) { fmt.Println(c.LossTables()) },
	"harm":             func(c *figures.Campaign) { fmt.Println(c.HarmTable()) },
	"mix":              func(c *figures.Campaign) { fmt.Println(c.MixTable()) },
	"flowcount":        func(c *figures.Campaign) { fmt.Println(c.FlowCountTable()) },
	"aqmcmp":           func(c *figures.Campaign) { fmt.Println(c.AQMTable()) },
	"ablation":         func(c *figures.Campaign) { fmt.Println(c.AblationTable()) },
	"responserecovery": func(c *figures.Campaign) { fmt.Println(c.ResponseRecoveryTable()) },
	"qoe":              func(c *figures.Campaign) { fmt.Println(c.QoETable()) },
	"summary":          func(c *figures.Campaign) { fmt.Println(c.Summary()) },
}

// parseExps resolves an -exp value ("all" or comma-separated names) to
// the experiments to run, rejecting unknown names before anything runs.
func parseExps(exp string) ([]string, error) {
	if exp == "all" {
		return []string{
			"table1", "figure2", "figure3", "figure4",
			"table3", "table4", "table5", "loss",
			"responserecovery", "summary",
		}, nil
	}
	var names, unknown []string
	for _, name := range strings.Split(exp, ",") {
		name = strings.TrimSpace(name)
		if experiments[name] == nil {
			unknown = append(unknown, fmt.Sprintf("%q", name))
		}
		names = append(names, name)
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment %s", strings.Join(unknown, ", "))
	}
	return names, nil
}

func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gsbench:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "gsbench:", err)
	}
}
