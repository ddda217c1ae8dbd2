package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// minFiles is how many result files per workload each side of a comparison
// needs.
const minFiles = 10

// resultName is a saved result file: WORKLOAD-sSEED.json.
var resultName = regexp.MustCompile(`^(.+)-s([0-9]+)\.json$`)

// side is one directory of result files: workload → seed → result.
type side map[string]map[uint64]result

func loadSide(dir string) (side, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := side{}
	for _, p := range paths {
		m := resultName.FindStringSubmatch(filepath.Base(p))
		if m == nil {
			continue
		}
		seed, err := strconv.ParseUint(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if out[m[1]] == nil {
			out[m[1]] = map[uint64]result{}
		}
		out[m[1]][seed] = r
	}
	return out, nil
}

// verdict classifies a change against its base for one metric, by the rule
// for claiming a change from paired runs:
//   - improved: there are at least minFiles pairs, the change wins at least
//     9 in 10 of them (ties count for neither), and the medians differ by
//     more than the base's quartile spread;
//   - regressed: the change's median is worse than the base's by more than
//     the bound;
//   - unresolved: either side's quartile spread is wider than the bound, so
//     "unchanged" cannot be told from noise;
//   - unchanged: otherwise.
//
// It also returns how many pairs the change won.
func verdict(base, change []float64, pairs [][2]float64, lowerBetter bool, bound float64) (string, int) {
	better := func(c, b float64) bool {
		if lowerBetter {
			return c < b
		}
		return c > b
	}
	bq1, bm, bq3 := quartiles(base)
	cq1, cm, cq3 := quartiles(change)
	wins := 0
	for _, p := range pairs {
		if better(p[1], p[0]) {
			wins++
		}
	}
	worse := (cm - bm) / bm
	if !lowerBetter {
		worse = -worse
	}
	switch {
	case len(pairs) >= minFiles && 10*wins >= 9*len(pairs) && math.Abs(cm-bm) > bq3-bq1:
		return "improved", wins
	case worse > bound:
		return "regressed", wins
	case (bq3-bq1)/bm > bound || (cq3-cq1)/cm > bound:
		return "unresolved", wins
	}
	return "unchanged", wins
}

// compare prints, for every workload and end-to-end metric, each side's
// median and quartiles, how many seed-paired runs the change won, and the
// verdict under the bounds in BENCHMARK.json.
func compare(w io.Writer, spec *benchSpec, baseDir, changeDir string) error {
	base, err := loadSide(baseDir)
	if err != nil {
		return err
	}
	change, err := loadSide(changeDir)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(w)
	fmt.Fprintf(out, "%-15s %-18s %-5s %-30s %-30s %-6s %s\n", "workload", "metric", "unit", "base p50 [q1, q3]", "change p50 [q1, q3]", "wins", "verdict")
	compared := 0
	for _, wl := range spec.Workloads {
		b, c := base[wl.Name], change[wl.Name]
		if len(b) < minFiles || len(c) < minFiles {
			fmt.Fprintf(out, "%-15s skipped: %d base and %d change result files, need %d each\n", wl.Name, len(b), len(c), minFiles)
			continue
		}
		compared++
		for _, s := range []map[uint64]result{b, c} {
			for seed, r := range s {
				if !r.Correct {
					fmt.Fprintf(out, "%-15s seed %d: outputs failed their checks (%d of %d operations)\n", wl.Name, seed, r.Failed, r.Attempted)
				}
			}
		}
		var seeds []uint64
		for seed := range b {
			if _, ok := c[seed]; ok {
				seeds = append(seeds, seed)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, d := range spec.EndToEnd {
			bv, cv := values(b, d.Name), values(c, d.Name)
			var pairs [][2]float64
			for _, seed := range seeds {
				pairs = append(pairs, [2]float64{b[seed].Metrics[d.Name].Value, c[seed].Metrics[d.Name].Value})
			}
			bq1, bm, bq3 := quartiles(bv)
			cq1, cm, cq3 := quartiles(cv)
			v, wins := verdict(bv, cv, pairs, d.Better == "lower", d.Bound)
			fmt.Fprintf(out, "%-15s %-18s %-5s %-30s %-30s %-6s %s\n", wl.Name, d.Name, d.Unit,
				fmt.Sprintf("%.5g [%.5g, %.5g]", bm, bq1, bq3), fmt.Sprintf("%.5g [%.5g, %.5g]", cm, cq1, cq3),
				fmt.Sprintf("%d/%d", wins, len(pairs)), v)
		}
	}
	if err := out.Flush(); err != nil {
		return err
	}
	if compared == 0 {
		return fmt.Errorf("no workload has %d result files on both sides", minFiles)
	}
	return nil
}

// values collects one metric over a side's results.
func values(s map[uint64]result, name string) []float64 {
	var out []float64
	for _, r := range s {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}
