package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/units"
)

// root is the checkout root as seen from this package's directory.
const root = ".."

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at a small fraction of its size — the grid
// workloads on the nine-cell suite grid — untraced and traced, and checks
// that each run's outputs pass their checks and that it emits exactly the
// metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	spec := testSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				e := &env{root: root, work: filepath.Join(t.TempDir(), "work"), seed: 1,
					scale: 0.1, grid: "suite.campaign", replays: 2, log: io.Discard}
				rep, err := execute(e, w, traced, false, "")
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if rep.Failed != 0 || rep.Attempted == 0 {
					t.Errorf("traced=%v: %d of %d operations failed: %v", traced, rep.Failed, rep.Attempted, rep.Problems)
				}
				defs := spec.PerLayer
				if !traced {
					defs = spec.EndToEnd
					// Measured by the parent process around the child.
					rep.Values["setup_s"], rep.Values["max_rss_mb"] = 1, 1
				}
				if _, err := label(defs, rep.Values); err != nil {
					t.Errorf("traced=%v: %v", traced, err)
				}
			}
		})
	}
}

// TestBenchmarkJSON checks the declaration itself: valid names used once,
// the workloads this program implements, bounds in (0, 0.25], and a setup_s
// metric in seconds whose bound is the largest, so that work moved into
// set-up shows.
func TestBenchmarkJSON(t *testing.T) {
	spec := testSpec(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	var names []string
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	for _, d := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		names = append(names, d.Name)
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, n := range names {
		if !valid.MatchString(n) {
			t.Errorf("name %q does not match %s", n, valid)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var setup *metricDef
	for i, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s: %+v, want unit s, lower is better", setup)
	} else {
		for _, d := range spec.EndToEnd {
			if d.Bound > setup.Bound {
				t.Errorf("%s: bound %g above setup_s's %g", d.Name, d.Bound, setup.Bound)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestFingerprint checks the repeat check can fail: the same run twice
// matches, a run with the next seed does not.
func TestFingerprint(t *testing.T) {
	cfg := experiment.RunConfig{
		Condition:  experiment.Condition{System: gamestream.Stadia, Capacity: units.Mbps(25), QueueMult: 2},
		Population: experiment.FlowPopulation{Flows: 20},
		Timeline:   metrics.PaperTimeline.Scale(0.05),
		Seed:       3,
	}
	seen := repeats{}
	for i := 0; i < 2; i++ {
		r := experiment.Run(cfg)
		if repeat, err := seen.check(r, r.Record(0)); repeat != (i == 1) || err != nil {
			t.Fatalf("execution %d: repeat %v, %v", i, repeat, err)
		}
	}
	a := experiment.Run(cfg)
	cfg.Seed++
	b := experiment.Run(cfg)
	if fingerprint(a, a.Record(0)) == fingerprint(b, b.Record(0)) {
		t.Error("runs with different seeds have the same fingerprint")
	}
}

// TestFleetExits checks that a worker exit fails the N-worker check unless
// it is a torn claim read, which is counted instead.
func TestFleetExits(t *testing.T) {
	var v any
	syntax := json.Unmarshal(nil, &v)
	torn := fmt.Errorf("runcache: claim shard-0003.claim: %w", syntax)
	for _, c := range []struct {
		errs []error
		torn int
		fail bool
	}{
		{[]error{nil, nil}, 0, false},
		{[]error{torn, nil}, 1, false},
		{[]error{nil, errors.New("campaign: write snapshot: disk full")}, 0, true},
		{[]error{torn, errors.New("context canceled")}, 1, true},
	} {
		n, err := fleetExits(c.errs)
		if n != c.torn || (err != nil) != c.fail {
			t.Errorf("%v: %d torn, %v; want %d torn, failure %v", c.errs, n, err, c.torn, c.fail)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "experiment.Run", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "obs.RunDone", Start: 30, End: 60},     // overlaps 2
		{ID: 4, Parent: 1, Name: "campaign.Merge", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "runcache.Get", Start: 15, End: 20},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	layers := layerSelf(spans)
	if layers["bench"] != 40 || layers["experiment"] != 25 || layers["runcache"] != 5 {
		t.Errorf("layer self times %v", layers)
	}
}

// TestTailRank checks the tail rule: the percentile reported is the highest
// (in tenths of a percent) that leaves at least ten samples beyond it.
func TestTailRank(t *testing.T) {
	for _, c := range []struct{ n, tenths, idx int }{
		{15, 500, 7}, {20, 500, 9}, {81, 876, 70}, {3240, 996, 3227},
	} {
		if tenths, idx := tailRank(c.n); tenths != c.tenths || idx != c.idx {
			t.Errorf("tailRank(%d) = %d, %d; want %d, %d", c.n, tenths, idx, c.tenths, c.idx)
		}
	}
	beyond := func(n, tenths int) int { return n - (tenths*n+999)/1000 }
	for n := 20; n <= 5000; n++ {
		tenths, idx := tailRank(n)
		if n-1-idx < 10 {
			t.Fatalf("n=%d: %d samples beyond p%.1f", n, n-1-idx, float64(tenths)/10)
		}
		if tenths < 999 && beyond(n, tenths+1) >= 10 {
			t.Fatalf("n=%d: p%.1f also leaves ten samples beyond it", n, float64(tenths+1)/10)
		}
	}
	xs := make([]float64, 81)
	for i := range xs {
		xs[i] = float64(80 - i)
	}
	if v, pct := tail(xs); v != 70 || pct != 87.6 {
		t.Errorf("tail of 0..80 = %g at p%g, want 70 at p87.6", v, pct)
	}
}

// TestQuartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) ([]float64, [][2]float64) {
		var change []float64
		var pairs [][2]float64
		for _, b := range base {
			change = append(change, b*f)
			pairs = append(pairs, [2]float64{b, b * f})
		}
		return change, pairs
	}
	for _, c := range []struct {
		factor float64
		want   string
	}{{0.8, "improved"}, {1, "unchanged"}, {1.05, "unchanged"}, {1.2, "regressed"}} {
		change, pairs := shift(c.factor)
		if got, _ := verdict(base, change, pairs, true, 0.1); got != c.want {
			t.Errorf("x%g: %s, want %s", c.factor, got, c.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 100, 100, 70, 130, 90, 110}
	var pairs [][2]float64
	for i := range base {
		pairs = append(pairs, [2]float64{base[i], noisy[i]})
	}
	if got, _ := verdict(base, noisy, pairs, true, 0.1); got != "unresolved" {
		t.Errorf("noisy change: %s, want unresolved", got)
	}
	faster, _ := shift(0.8)
	if got, _ := verdict(base, faster, nil, true, 0.1); got != "unchanged" {
		t.Errorf("faster without seed-paired runs: %s, want unchanged", got)
	}
}

// TestCompare writes ten result files per side and checks the report.
func TestCompare(t *testing.T) {
	spec := testSpec(t)
	dirs := []string{t.TempDir(), t.TempDir()}
	for side, dir := range dirs {
		for seed := 1; seed <= minFiles; seed++ {
			metrics := map[string]metricValue{}
			for _, d := range spec.EndToEnd {
				v := 100 + float64(seed%3)
				if side == 1 && d.Name == "op_wall_p50" {
					v *= 0.5
				}
				metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
			}
			line, err := json.Marshal(result{Correct: true, Attempted: 1, Metrics: metrics})
			if err != nil {
				t.Fatal(err)
			}
			name := filepath.Join(dir, fmt.Sprintf("paper_run-s%d.json", seed))
			if err := os.WriteFile(name, append([]byte("# detail\n"), line...), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out bytes.Buffer
	if err := compare(&out, spec, dirs[0], dirs[1]); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "paper_run" {
			continue
		}
		want := "unchanged"
		if f[1] == "op_wall_p50" {
			want = "improved"
		}
		if got := f[len(f)-1]; got != want {
			t.Errorf("%s: %s, want %s", f[1], got, want)
		}
	}
	if !strings.Contains(out.String(), "grid_warm       skipped") {
		t.Errorf("workloads without result files not reported as skipped:\n%s", out.String())
	}
}
