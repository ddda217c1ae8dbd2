// Command gsreport reads artefacts produced by gssim, gsbench and
// gscampaign and renders them offline. It takes paths, not mode flags: the
// kind of each path comes from its content, never from its name.
//
//   - A campaign directory (one holding a gscampaign manifest): shard
//     completion, with the claim or absence of every unfinished shard, then
//     the merged campaign's telemetry tables.
//   - A telemetry snapshot (gsbench -telemetry-out, a campaign's
//     merged.snap): a table of n, mean ± 95% CI, min and max for every
//     paper metric from the sketches alone — no per-run data needed.
//   - A run log (JSONL records from gssim, gsbench or gscampaign): folded
//     into the sketches the live sweep kept and rendered as the same tables
//     — including interrupted, partial campaigns.
//   - A chaos report (gssim -chaos -invariants-out): the per-invariant
//     verdict table.
//   - A probe export (gssim -probe): per-flow cwnd-vs-time from a cc CSV,
//     per-queue depth-vs-time from a queue CSV, both with terminal
//     sparklines, and loss episodes from a drops CSV.
//
// This separates data collection from analysis the way the paper's
// Wireshark-then-scripts pipeline did. gssim prints a run's own summary;
// gsreport does not re-read its trace CSV.
//
// Usage:
//
//	gsbench -exp figure3 -runlog runs.jsonl
//	gsreport runs.jsonl
//
//	gsbench -exp figure3 -telemetry-out telemetry.snap
//	gsreport telemetry.snap
//
//	gscampaign -spec paper.campaign -dir camp -workers 4
//	gsreport camp
//
//	gssim -cca cubic,bbr -probe -probe-out demo
//	gsreport demo/stadia_cubic_B25_q2.0x__seed1.cc.csv \
//	         demo/stadia_cubic_B25_q2.0x__seed1.queue.csv
//
//	gssim -chaos -invariants-out campaign.json
//	gsreport campaign.json
//
// Paths render in order. A path of any other kind, or one that cannot be
// read, exits 1.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/probe"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gsreport PATH...\n\n"+
			"Renders each path by its content: "+kinds+".")
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	for _, path := range flag.Args() {
		kind, err := sniff(path)
		if err == nil {
			err = reports[kind](path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "gsreport:", err)
			os.Exit(1)
		}
	}
}

// kinds names what gsreport reads, for the usage line and the error on
// anything else.
const kinds = "a campaign directory, a telemetry snapshot, a run log, a chaos report, or a probe cc, queue or drops CSV"

// reports renders each artefact kind sniff names.
var reports = map[string]func(path string) error{
	"campaign":   reportCampaign,
	"telemetry":  reportTelemetry,
	"runlog":     reportRunLog,
	"invariants": reportInvariants,
	"cc":         reportCC,
	"queue":      reportQueue,
	"drops":      reportDrops,
}

// sniff names the kind of artefact at path from its content: a directory
// holding a campaign manifest, the snapshot magic, a probe export's header
// line, or a first JSON object carrying a chaos report's "invariants" or
// a run record's "cond".
func sniff(path string) (string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	if fi.IsDir() {
		if _, err := os.Stat(campaign.ManifestPath(path)); err == nil {
			return "campaign", nil
		}
		return "", fmt.Errorf("%s: directory without a campaign manifest; gsreport reads %s", path, kinds)
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, _ := br.Peek(br.Size())
	if obs.IsSnapshot(head) {
		return "telemetry", nil
	}
	line, _, _ := bytes.Cut(head, []byte("\n"))
	switch strings.TrimSpace(string(line)) {
	case probe.CCHeader:
		return "cc", nil
	case probe.QueueHeader:
		return "queue", nil
	case probe.DropsHeader:
		return "drops", nil
	}
	var first map[string]json.RawMessage
	if json.NewDecoder(br).Decode(&first) == nil {
		switch {
		case first["invariants"] != nil:
			return "invariants", nil
		case first["cond"] != nil:
			return "runlog", nil
		}
	}
	return "", fmt.Errorf("%s: not an artefact gsreport reads (%s)", path, kinds)
}

// table is a headered CSV kept as string cells: the one reader behind the
// probe exports, which mix numeric and categorical columns (flow names, CC
// modes). Blank lines are skipped; a row whose field count differs from
// the header's is an error naming its line.
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
// as 0: the probe leaves optional cells empty. A missing column, or a cell
// that is not a number, is an error naming where it is — the first one in
// file order.
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
