// Command bench is the repository benchmark: five workloads that together
// cover every layer of the simulator, each measured end to end in its own
// child process, plus an optional traced pass that reports per-layer costs.
// BENCHMARK.json at the checkout root declares the workloads and metrics;
// README.md in this directory explains them.
//
//	go run .                                  # all five workloads, seed 1
//	go run . -workload grid_warm -seed 2 -trace 1
//	go run . -compare BASE_DIR CHANGE_DIR
//
// How long each workload measures is run_seconds in BENCHMARK.json.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// setupSamples is how many times a workload is set up, each in a fresh
// process, for the setup_s median.
const setupSamples = 3

type options struct {
	root, workload, traceOut, out, compare string
	seed                                   uint64
	seconds                                float64 // run_seconds from BENCHMARK.json
	trace                                  int
	child                                  string
	setupOnly                              bool
}

func main() { os.Exit(run()) }

// checkoutRoot finds the checkout root: the working directory, or its
// parent when the program runs from bench/.
func checkoutRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return "."
}

func run() int {
	var o options
	var seconds int
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all five in turn)")
	flag.Uint64Var(&o.seed, "seed", 1, "derives every run seed and the campaign seed; seed 2 is held out for validating claims")
	// The run length is run_seconds in BENCHMARK.json and nothing else. The
	// flag exists because the standard benchmark command line passes it; it
	// is checked, never used, so the two cannot disagree.
	flag.IntVar(&seconds, "seconds", 0, "optional: must equal run_seconds in BENCHMARK.json, which sets how long each workload measures")
	flag.IntVar(&o.trace, "trace", 0, "1: run the traced pass and print the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "file for a traced run's spans (default .bench_build/trace/WORKLOAD-sSEED.json)")
	flag.StringVar(&o.out, "out", "", "directory to save each result line in, as WORKLOAD-sSEED.json")
	flag.StringVar(&o.compare, "compare", "", "compare result files: -compare BASE_DIR CHANGE_DIR")
	flag.StringVar(&o.child, "child", "", "internal: run one workload in this process")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "internal: with -child, set up, report readiness and exit")
	flag.Parse()
	o.root = checkoutRoot()
	spec, err := loadSpec(o.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if seconds != 0 && seconds != spec.RunSeconds {
		fmt.Fprintf(os.Stderr, "bench: -seconds %d differs from run_seconds %d in BENCHMARK.json\n", seconds, spec.RunSeconds)
		return 2
	}
	o.seconds = float64(spec.RunSeconds)

	if o.compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes BASE_DIR CHANGE_DIR")
			return 2
		}
		if err := compare(os.Stdout, spec, o.compare, flag.Arg(0)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if o.child != "" {
		return runChild(o)
	}

	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	code := 0
	for _, name := range names {
		if _, ok := findWorkload(name); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		if err := runParent(o, spec, name); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// childReport is what a workload's child process prints as its last line.
type childReport struct {
	ReadyUnixNano int64              `json:"ready_unix_ns"`
	SetupPausedNS int64              `json:"setup_paused_ns"` // reference kernel time during set-up
	SetupScale    float64            `json:"setup_scale"`     // converts set-up time to reference speed
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	Problems      []string           `json:"problems,omitempty"`
	Values        map[string]float64 `json:"values,omitempty"`
}

// runParent runs one workload: setupSamples-1 set-up-only children, then
// the measuring child, whose peak RSS it reads from the kernel. It prints
// the child's detail lines, one line per metric, and the result line last.
func runParent(o options, spec *benchSpec, name string) error {
	fmt.Printf("# %s: seed %d, %g s, trace %d; num_cpu %d, GOMAXPROCS %d, %s\n",
		name, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var setups, scaled []float64
	if o.trace == 0 {
		for i := 1; i < setupSamples; i++ {
			rep, setup, _, err := spawn(o, name, true)
			if err != nil {
				return err
			}
			setups, scaled = append(setups, setup), append(scaled, setup*rep.SetupScale)
		}
	}
	rep, setup, rss, err := spawn(o, name, false)
	if err != nil {
		return err
	}
	setups, scaled = append(setups, setup), append(scaled, setup*rep.SetupScale)
	for _, p := range rep.Problems {
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", name, p)
	}
	defs := spec.PerLayer
	if o.trace == 0 {
		defs = spec.EndToEnd
		fmt.Printf("%s: set-up p50 over N=%d is %.4f s raw, %.4f s at reference speed\n", name, len(setups), median(setups), median(scaled))
		rep.Values["setup_s"] = median(scaled)
		rep.Values["max_rss_mb"] = float64(rss) * 1024 / 1e6
	}
	metrics, err := label(defs, rep.Values)
	if err != nil {
		return err
	}
	for _, d := range defs {
		fmt.Printf("  %-34s %14.6g %s\n", d.Name, metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(result{
		Correct: rep.Failed == 0 && rep.Attempted > 0, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: metrics,
	})
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(o.out, fmt.Sprintf("%s-s%d.json", name, o.seed)), append(line, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Println(string(line))
	return nil
}

// spawn runs this program as the child for one workload and waits for it.
// It returns the child's report, the set-up time in seconds — from process
// start to the child's first timed operation, without the reference
// kernel's samples — and the child's peak RSS in KiB.
func spawn(o options, name string, setupOnly bool) (rep childReport, setup float64, rssKiB int64, err error) {
	self, err := os.Executable()
	if err != nil {
		return rep, 0, 0, err
	}
	args := []string{"-child", name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-trace", strconv.Itoa(o.trace), "-trace-out", o.traceOut}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return rep, 0, 0, fmt.Errorf("child process: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	last := lines[len(lines)-1]
	if !setupOnly {
		for _, l := range lines[:len(lines)-1] {
			fmt.Printf("%s\n", l)
		}
	}
	if err := json.Unmarshal(last, &rep); err != nil {
		return rep, 0, 0, fmt.Errorf("child report: %w", err)
	}
	setup = float64(rep.ReadyUnixNano-start.UnixNano()-rep.SetupPausedNS) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssKiB = ru.Maxrss
	}
	return rep, setup, rssKiB, nil
}

// runChild runs one workload in this process and prints its report.
func runChild(o options) int {
	w, ok := findWorkload(o.child)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.child)
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	e := &env{
		root: o.root, work: filepath.Join(o.root, ".bench_build", "work", strconv.Itoa(os.Getpid())),
		seed: o.seed, seconds: o.seconds, scale: 1, grid: "grid.campaign", replays: 40,
		log: os.Stdout,
	}
	traceOut := o.traceOut
	if o.trace == 1 && traceOut == "" {
		traceOut = filepath.Join(o.root, ".bench_build", "trace", fmt.Sprintf("%s-s%d.json", w.name, o.seed))
	}
	rep, err := execute(e, w, o.trace == 1, o.setupOnly, traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// execute sets a workload up in a fresh work directory, then measures it —
// or, when traced, runs its traced pass and the layer suite and writes the
// spans to traceOut (when set).
func execute(e *env, w workload, traced, setupOnly bool, traceOut string) (rep *childReport, err error) {
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(e.work)) }()
	c := &checker{}
	e.ref = newRefMeter()
	e.ref.begin()
	inst, err := w.setup(e, c)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	e.ref.sample() // set-up is one operation, with a sample at each end
	rep = &childReport{ReadyUnixNano: time.Now().UnixNano(), SetupPausedNS: e.ref.paused.Nanoseconds(), SetupScale: e.ref.scale()}
	if setupOnly {
		return rep, nil
	}
	if traced {
		tr := newTracer()
		if rep.Values, err = inst.trace(c, tr); err != nil {
			return nil, err
		}
		suite, err := layerSuite(e, c)
		if err != nil {
			return nil, err
		}
		for k, v := range suite {
			rep.Values[k] = v
		}
		if traceOut != "" {
			if err := tr.write(traceOut, w.name, e.seed); err != nil {
				return nil, err
			}
		}
	} else if rep.Values, err = inst.measure(c); err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed, rep.Problems = c.attempted, c.failed, c.problems
	return rep, nil
}
