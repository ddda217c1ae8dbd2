// Command gsreport reads artefacts produced by gssim, gsbench and
// gscampaign and recomputes the paper's derived measures offline. In its
// default mode it parses a trace CSV and reports original/adjusted
// bitrates, response and recovery times, adaptiveness inputs, fairness
// ratio, and RTT/frame rate summaries. With -telemetry it renders
// quantiles-with-CI tables for every paper metric from a persisted sketch
// snapshot (gsbench -telemetry-out) alone — no per-run data needed, however
// large the campaign was. With -runlog it folds a JSONL run log (written by
// gssim, gsbench or gscampaign) into the same sketches the live sweep kept
// and prints the same tables — including interrupted, partial campaigns.
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
//	gsbench -exp figure3 -telemetry-out telemetry.snap
//	gsreport -telemetry telemetry.snap
//
//	gscampaign -spec paper.campaign -dir camp -workers 4
//	gsreport -campaign camp
//
//	gssim -cca cubic,bbr -probe -probe-out demo
//	gsreport -cc demo/stadia_cubic_B25_q2.0x__seed1.cc.csv \
//	         -queue demo/stadia_cubic_B25_q2.0x__seed1.queue.csv
//
//	gssim -chaos -invariants-out campaign.json
//	gsreport -invariants campaign.json
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/stats"
)

func main() {
	capacity := flag.Float64("capacity", 25, "bottleneck capacity in Mb/s (for the fairness ratio)")
	flowStart := flag.Float64("flow-start", 185, "competing flow arrival (s)")
	flowStop := flag.Float64("flow-stop", 370, "competing flow departure (s)")
	runlog := flag.String("runlog", "", "fold a JSONL run log through the telemetry sketches and render the -telemetry tables")
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
		fmt.Fprintf(os.Stderr, "gsreport: %s: %v\n", flag.Arg(0), err)
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

// table is a headered CSV kept as string cells: the one reader behind the
// trace CSV and the probe exports, which mix numeric and categorical
// columns (flow names, CC modes). Blank lines are skipped; a row whose
// field count differs from the header's is an error naming its line.
type table struct {
	headers []string
	col     map[string]int
	rows    [][]string
	lines   []int // file line of each row, for error messages
}

func readTable(r io.Reader) (*table, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("empty file")
	}
	t := &table{headers: strings.Split(strings.TrimSpace(sc.Text()), ","), col: map[string]int{}}
	for i, h := range t.headers {
		t.col[h] = i
	}
	for line := 2; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != len(t.headers) {
			return nil, fmt.Errorf("line %d: %d fields, header has %d", line, len(fields), len(t.headers))
		}
		t.rows = append(t.rows, fields)
		t.lines = append(t.lines, line)
	}
	return t, sc.Err()
}

// field returns the named column of a row ("" when absent).
func (t *table) field(row []string, name string) string {
	if i, ok := t.col[name]; ok {
		return row[i]
	}
	return ""
}

// floats parses the named columns, one slice per name. An empty cell reads
// as 0: report.CSV leaves the cells of a column shorter than the others
// empty. A missing column, or a cell that is not a number, is an error
// naming where it is — the first one in file order.
func (t *table) floats(names ...string) ([][]float64, error) {
	idx := make([]int, len(names))
	for k, name := range names {
		i, ok := t.col[name]
		if !ok {
			return nil, fmt.Errorf("no %s column", name)
		}
		idx[k] = i
	}
	out := make([][]float64, len(names))
	for r, row := range t.rows {
		for k, i := range idx {
			v := 0.0
			if row[i] != "" {
				var err error
				if v, err = strconv.ParseFloat(row[i], 64); err != nil {
					return nil, fmt.Errorf("line %d, column %d (%s): %q is not a number", t.lines[r], i+1, names[k], row[i])
				}
			}
			out[k] = append(out[k], v)
		}
	}
	return out, nil
}

// readCSV parses a headered numeric CSV (a gssim trace) into named columns.
func readCSV(r io.Reader) (map[string][]float64, error) {
	t, err := readTable(r)
	if err != nil {
		return nil, err
	}
	vals, err := t.floats(t.headers...)
	if err != nil {
		return nil, err
	}
	cols := make(map[string][]float64, len(t.headers))
	for k, h := range t.headers {
		cols[h] = vals[k]
	}
	return cols, nil
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
