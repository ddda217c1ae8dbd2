package experiment

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/units"
)

func TestProbeOffByDefault(t *testing.T) {
	r := quickRun(t, Condition{
		System: gamestream.Stadia, CCA: "cubic", Capacity: units.Mbps(25), QueueMult: 2,
	}, 1)
	if r.Probe != nil {
		t.Fatal("probe attached without RunConfig.Probe")
	}
}

func TestProbeCapturesCCAndQueue(t *testing.T) {
	r := Run(RunConfig{
		Condition: Condition{
			System: gamestream.Stadia, Capacity: units.Mbps(25), QueueMult: 2,
		},
		Competitors: []Competitor{
			{Kind: CompIperf, CCA: "cubic"},
			{Kind: CompIperf, CCA: "bbr"},
		},
		Timeline: metrics.PaperTimeline.Scale(0.1),
		Seed:     1,
		Probe:    &probe.Config{Interval: 100 * time.Millisecond, Events: 1 << 12},
	})
	p := r.Probe
	if p == nil {
		t.Fatal("RunResult.Probe nil with probing enabled")
	}
	flows := p.Flows()
	if len(flows) != 2 {
		t.Fatalf("flow probes = %d, want 2", len(flows))
	}
	for _, fp := range flows {
		if fp.Samples.Len() == 0 {
			t.Fatalf("flow %s has no CC samples", fp.Name)
		}
		var maxCwnd int64
		for i := 0; i < fp.Samples.Len(); i++ {
			if s := fp.Samples.At(i); s.CwndBytes > maxCwnd {
				maxCwnd = s.CwndBytes
			}
		}
		if maxCwnd == 0 {
			t.Errorf("flow %s never grew cwnd", fp.Name)
		}
	}
	qs := p.Queues()
	if len(qs) != 1 || qs[0].Samples.Len() == 0 {
		t.Fatal("no bottleneck queue samples")
	}
	var sawOccupied bool
	for i := 0; i < qs[0].Samples.Len(); i++ {
		if s := qs[0].Samples.At(i); s.Packets > 0 && s.HasSojourn {
			sawOccupied = true
			break
		}
	}
	if !sawOccupied {
		t.Error("queue never observed occupied during contention")
	}
	if p.Events() == nil || p.Events().Total() == 0 {
		t.Error("event ring recorded nothing")
	}
}

// TestProbeExportDeterministicAcrossWorkers executes the same probed jobs
// with one and four workers and requires the exported telemetry files to
// be byte-identical: runs are pure functions of (condition, seed), so
// worker scheduling must not leak into the artefacts.
func TestProbeExportDeterministicAcrossWorkers(t *testing.T) {
	grid := SweepConfig{
		Systems:    []gamestream.System{gamestream.Stadia},
		CCAs:       []string{"cubic", "bbr"},
		Capacities: []units.Rate{units.Mbps(25)},
		QueueMults: []float64{2},
		Iterations: 2,
		Timeline:   metrics.PaperTimeline.Scale(0.05),
	}
	jobs := grid.Jobs()
	for i := range jobs {
		jobs[i].Cfg.Probe = &probe.Config{Interval: 200 * time.Millisecond}
	}
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for i, workers := range []int{1, 4} {
		if n := Execute(context.Background(), jobs, workers, nil, Sinks{ProbeDir: dirs[i]}, nil); n != len(jobs) {
			t.Fatalf("%d workers completed %d of %d jobs", workers, n, len(jobs))
		}
	}

	files := [2][]string{}
	for i, dir := range dirs {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			files[i] = append(files[i], e.Name())
		}
	}
	if len(files[0]) == 0 {
		t.Fatal("no probe exports written")
	}
	if len(files[0]) != len(files[1]) {
		t.Fatalf("file counts differ: %d vs %d", len(files[0]), len(files[1]))
	}
	for i, name := range files[0] {
		if files[1][i] != name {
			t.Fatalf("file %d: %q vs %q", i, name, files[1][i])
		}
		a, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between 1 and 4 workers (%d vs %d bytes)", name, len(a), len(b))
		}
	}
}
