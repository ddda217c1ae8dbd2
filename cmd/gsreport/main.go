// Command gsreport reads artefacts produced by gssim, gsbench and
// gscampaign and recomputes the paper's derived measures offline. In its
// default mode it parses a trace CSV and reports original/adjusted
// bitrates, response and recovery times, adaptiveness inputs, fairness
// ratio, and RTT/frame rate summaries. With -runlog it instead aggregates
// a JSONL run log (written by gssim or gsbench) per condition — including
// interrupted, partial campaigns.
// With -telemetry it renders quantiles-with-CI tables for every paper
// metric from a persisted sketch snapshot (gsbench -telemetry-out)
// alone — no per-run data needed, however large the campaign was.
// With -campaign it reports a gscampaign directory: shard completion from
// the manifest, then the merged campaign's telemetry tables.
// With -cc / -queue it summarises probe exports (gssim -probe): per-flow
// cwnd-vs-time and per-queue depth-vs-time with terminal sparklines.
// This separates data collection from analysis the way the paper's
// Wireshark-then-scripts pipeline did.
//
// Usage:
//
//	gssim -system luna -cca bbr > trace.csv
//	gsreport -capacity 25 trace.csv
//
//	gsbench -exp figure3 -runlog runs.jsonl
//	gsreport -runlog runs.jsonl
//
//	gsbench -exp figure3 -telemetry-out telemetry.json
//	gsreport -telemetry telemetry.json
//
//	gscampaign -spec paper.campaign -dir camp -workers 4
//	gsreport -campaign camp
//
//	gssim -cca cubic,bbr -probe -probe-out demo
//	gsreport -cc demo.cc.csv -queue demo.queue.csv
//
//	gssim -chaos -invariants-out campaign.json
//	gsreport -invariants campaign.json
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/stats"
)

func main() {
	capacity := flag.Float64("capacity", 25, "bottleneck capacity in Mb/s (for the fairness ratio)")
	flowStart := flag.Float64("flow-start", 185, "competing flow arrival (s)")
	flowStop := flag.Float64("flow-stop", 370, "competing flow departure (s)")
	runlog := flag.String("runlog", "", "aggregate a JSONL run log instead of a trace CSV")
	telemetry := flag.String("telemetry", "", "render quantiles-with-CI tables from a telemetry snapshot (gsbench -telemetry-out)")
	campaignDir := flag.String("campaign", "", "render a gscampaign directory: shard status plus the merged telemetry tables")
	ccPath := flag.String("cc", "", "summarise a probe cc.csv export (cwnd-vs-time per flow)")
	queuePath := flag.String("queue", "", "summarise a probe queue.csv export (depth-vs-time per queue)")
	dropsPath := flag.String("drops", "", "summarise a probe drops.csv export as loss episodes")
	dropsGap := flag.Duration("drops-gap", 100*time.Millisecond, "gap that separates two loss episodes in -drops mode")
	invariants := flag.String("invariants", "", "render a chaos campaign report (gssim -chaos -invariants-out) as a per-invariant verdict table")
	flag.Parse()

	if *invariants != "" {
		if err := reportInvariants(*invariants); err != nil {
			fmt.Fprintln(os.Stderr, "gsreport:", err)
			os.Exit(1)
		}
		return
	}
	if *campaignDir != "" {
		if err := reportCampaign(*campaignDir); err != nil {
			fmt.Fprintln(os.Stderr, "gsreport:", err)
			os.Exit(1)
		}
		return
	}
	if *telemetry != "" {
		if err := reportTelemetry(*telemetry); err != nil {
			fmt.Fprintln(os.Stderr, "gsreport:", err)
			os.Exit(1)
		}
		return
	}
	if *runlog != "" {
		if err := reportRunLog(*runlog); err != nil {
			fmt.Fprintln(os.Stderr, "gsreport:", err)
			os.Exit(1)
		}
		return
	}
	if *ccPath != "" || *queuePath != "" || *dropsPath != "" {
		if *ccPath != "" {
			if err := reportCC(*ccPath); err != nil {
				fmt.Fprintln(os.Stderr, "gsreport:", err)
				os.Exit(1)
			}
		}
		if *queuePath != "" {
			if err := reportQueue(*queuePath); err != nil {
				fmt.Fprintln(os.Stderr, "gsreport:", err)
				os.Exit(1)
			}
		}
		if *dropsPath != "" {
			if err := reportDrops(*dropsPath, *dropsGap); err != nil {
				fmt.Fprintln(os.Stderr, "gsreport:", err)
				os.Exit(1)
			}
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gsreport [flags] trace.csv  |  gsreport -runlog runs.jsonl")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "gsreport:", err)
		os.Exit(1)
	}
	defer f.Close()

	cols, err := readCSV(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gsreport:", err)
		os.Exit(1)
	}
	tcol, ok := cols["t_sec"]
	if !ok || len(tcol) < 2 {
		fmt.Fprintln(os.Stderr, "gsreport: trace has no t_sec column")
		os.Exit(1)
	}
	bin := time.Duration((tcol[1] - tcol[0]) * float64(time.Second))
	tl := metrics.Timeline{
		FlowStart: time.Duration(*flowStart * float64(time.Second)),
		FlowStop:  time.Duration(*flowStop * float64(time.Second)),
		TraceEnd:  time.Duration(tcol[len(tcol)-1]*float64(time.Second)) + bin,
	}

	game := metrics.Series{Bin: bin, V: cols["game_mbps"]}
	tcp := metrics.Series{Bin: bin, V: cols["tcp_mbps"]}

	rr := metrics.MeasureResponseRecovery(game, tl)
	ff, ft := tl.FairnessWindow()
	g := game.MeanBetween(ff, ft)
	t := tcp.MeanBetween(ff, ft)

	fmt.Printf("trace: %s (%d bins of %v)\n", flag.Arg(0), len(tcol), bin)
	fmt.Printf("original bitrate:   %6.1f Mb/s\n", rr.OriginalMbs)
	fmt.Printf("contended bitrate:  %6.1f Mb/s (tcp %.1f Mb/s)\n", rr.AdjustedMbs, t)
	fmt.Printf("fairness ratio:     %+6.2f\n", metrics.FairnessRatio(g, t, *capacity))
	fmt.Printf("response time:      %6.1f s (settled=%v)\n", rr.Response.Seconds(), rr.Responded)
	fmt.Printf("recovery time:      %6.1f s (settled=%v)\n", rr.Recovery.Seconds(), rr.Recovered)

	transient := (*flowStop - *flowStart) / 5
	if rtt := window(cols["rtt_ms"], tcol, *flowStart+transient, *flowStop); len(rtt) > 0 {
		s := stats.Summarize(nonzero(rtt))
		fmt.Printf("RTT (contention):   %6.1f ms (sd %.1f)\n", s.Mean, s.StdDev)
	}
	if fps := window(cols["fps"], tcol, *flowStart+transient, *flowStop); len(fps) > 0 {
		s := stats.Summarize(fps)
		fmt.Printf("frame rate:         %6.1f f/s (sd %.1f)\n", s.Mean, s.StdDev)
	}
	if loss := window(cols["game_loss"], tcol, *flowStart+transient, *flowStop); len(loss) > 0 {
		fmt.Printf("game loss:          %6.3f %%\n", 100*stats.Mean(loss))
	}
}

// reportRunLog aggregates a JSONL run log per condition: run counts, mean
// headline metrics, and the engine's aggregate throughput — a campaign
// health check that works on partial (interrupted) logs too.
func reportRunLog(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := obs.ReadJSONL(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("%s: no records", path)
	}

	type agg struct {
		n                         int
		game, tcp, fair, rtt, fps stats.Accumulator
		events                    uint64
		wall                      float64
		lossDrops, flapDrops      int
		flaps                     int
		downS                     float64
		impaired                  int
		cached                    int
		populated                 int
		flowSpec                  string
		jain, tputP50, rttInfl    stats.Accumulator
		starved                   int
	}
	byCond := map[string]*agg{}
	var totalEvents uint64
	var totalWall float64
	totalCached := 0
	anyImpaired := false
	anyFlows := false
	for _, r := range recs {
		a := byCond[r.Cond]
		if a == nil {
			a = &agg{}
			byCond[r.Cond] = a
		}
		a.n++
		a.game.Add(r.GameMbps)
		a.tcp.Add(r.TCPMbps)
		a.fair.Add(r.Fairness)
		a.rtt.Add(r.RTTMs)
		a.fps.Add(r.FPS)
		a.events += r.Engine.Events
		a.wall += r.Engine.WallSeconds
		totalEvents += r.Engine.Events
		totalWall += r.Engine.WallSeconds
		if r.Cached {
			a.cached++
			totalCached++
		}
		if r.Impair != nil {
			anyImpaired = true
			a.impaired++
			a.lossDrops += r.Impair.LossDrops
			a.flapDrops += r.Impair.FlapDrops
			a.flaps += r.Impair.Flaps
			a.downS += r.Impair.DownSeconds
		}
		if r.Flows != nil {
			anyFlows = true
			a.populated++
			a.flowSpec = r.Flows.Spec
			a.jain.Add(r.Flows.Jain)
			a.tputP50.Add(r.Flows.TputP50)
			a.rttInfl.Add(r.Flows.RTTInflP50)
			a.starved += r.Flows.Starved
		}
	}

	var conds []string
	for c := range byCond {
		conds = append(conds, c)
	}
	sort.Strings(conds)

	fmt.Printf("run log: %s (%d runs, %d conditions)\n", path, len(recs), len(conds))
	if totalCached > 0 {
		fmt.Printf("cache: %d of %d runs served from the run cache (%.1f%%)\n",
			totalCached, len(recs), 100*float64(totalCached)/float64(len(recs)))
	}
	fmt.Printf("%-28s %5s %10s %10s %9s %8s %7s\n",
		"condition", "runs", "game Mb/s", "tcp Mb/s", "fairness", "rtt ms", "fps")
	for _, c := range conds {
		a := byCond[c]
		fmt.Printf("%-28s %5d %10.1f %10.1f %+9.2f %8.1f %7.1f\n",
			c, a.n, a.game.Mean(), a.tcp.Mean(), a.fair.Mean(), a.rtt.Mean(), a.fps.Mean())
	}
	if anyImpaired {
		fmt.Printf("\nimpairments (totals across runs):\n")
		fmt.Printf("%-28s %5s %10s %10s %6s %8s\n",
			"condition", "runs", "loss drops", "flap drops", "flaps", "down s")
		for _, c := range conds {
			a := byCond[c]
			if a.impaired == 0 {
				continue
			}
			fmt.Printf("%-28s %5d %10d %10d %6d %8.1f\n",
				c, a.impaired, a.lossDrops, a.flapDrops, a.flaps, a.downS)
		}
	}
	if anyFlows {
		fmt.Printf("\nflow populations (means across runs; starved is a total):\n")
		fmt.Printf("%-28s %5s %-32s %6s %9s %9s %8s\n",
			"condition", "runs", "population", "jain", "tput p50", "rtt infl", "starved")
		for _, c := range conds {
			a := byCond[c]
			if a.populated == 0 {
				continue
			}
			fmt.Printf("%-28s %5d %-32s %6.3f %9.2f %9.2f %8d\n",
				c, a.populated, a.flowSpec, a.jain.Mean(), a.tputP50.Mean(), a.rttInfl.Mean(), a.starved)
		}
	}
	if totalWall > 0 {
		fmt.Printf("engine: %d events in %.1fs wall across runs = %.3g events/s\n",
			totalEvents, totalWall, float64(totalEvents)/totalWall)
	}
	return nil
}

// readCSV parses a headered numeric CSV into named columns.
func readCSV(f *os.File) (map[string][]float64, error) {
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("empty file")
	}
	headers := strings.Split(strings.TrimSpace(sc.Text()), ",")
	cols := make(map[string][]float64, len(headers))
	for sc.Scan() {
		fields := strings.Split(strings.TrimSpace(sc.Text()), ",")
		for i, h := range headers {
			v := 0.0
			if i < len(fields) && fields[i] != "" {
				v, _ = strconv.ParseFloat(fields[i], 64)
			}
			cols[h] = append(cols[h], v)
		}
	}
	return cols, sc.Err()
}

// window selects vals whose timestamps fall in [from, to) seconds.
func window(vals, tcol []float64, from, to float64) []float64 {
	var out []float64
	for i, v := range vals {
		if i < len(tcol) && tcol[i] >= from && tcol[i] < to {
			out = append(out, v)
		}
	}
	return out
}

// nonzero filters zero placeholders (bins with no RTT sample).
func nonzero(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if x != 0 {
			out = append(out, x)
		}
	}
	return out
}
