package experiment

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/units"
)

// telemetrySweep is the golden-seed grid the telemetry acceptance tests run:
// small enough to be quick, wide enough to exercise several conditions.
func telemetrySweep() SweepConfig {
	return SweepConfig{
		Systems:    []gamestream.System{gamestream.Stadia, gamestream.Luna},
		CCAs:       []string{"cubic", "bbr"},
		Capacities: []units.Rate{units.Mbps(25)},
		QueueMults: []float64{2},
		Iterations: 3,
		Timeline:   metrics.PaperTimeline.Scale(0.05),
		BaseSeed:   7,
	}
}

// TestTelemetrySketchesIdenticalAcrossWorkers is the acceptance criterion:
// the Aggregator's deterministic snapshot section is byte-identical across
// worker counts 1, 4 and 8 on a golden-seed sweep.
func TestTelemetrySketchesIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the grid three times")
	}
	var ref []byte
	for _, workers := range []int{1, 4, 8} {
		cfg := telemetrySweep()
		cfg.Workers = workers
		ag := obs.NewAggregator()
		cfg.Progress = ag
		RunSweep(context.Background(), cfg)
		got, err := ag.Snapshot().DeterministicJSON()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		if !bytes.Equal(ref, got) {
			t.Fatalf("workers=%d: deterministic snapshot differs from 1-worker reference", workers)
		}
	}
}

// TestTelemetryMatchesRunLog: the snapshot's per-condition stream-bitrate
// mean and CI must equal the values computed from the runlog records — the
// sketches are a lossless replacement for moment statistics.
func TestTelemetryMatchesRunLog(t *testing.T) {
	cfg := telemetrySweep()
	cfg.Workers = 4
	ag := obs.NewAggregator()
	var buf bytes.Buffer
	cfg.Progress = obs.MultiProgress(ag, obs.NewJSONL(&buf))
	RunSweep(context.Background(), cfg)

	recs, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byCond := make(map[string]*stats.Accumulator)
	for _, r := range recs {
		acc := byCond[r.Cond]
		if acc == nil {
			acc = &stats.Accumulator{}
			byCond[r.Cond] = acc
		}
		acc.Add(r.GameMbps)
	}
	snap := ag.Snapshot()
	if len(snap.Conditions) != len(byCond) {
		t.Fatalf("snapshot has %d conditions, runlog %d", len(snap.Conditions), len(byCond))
	}
	for _, c := range snap.Conditions {
		want := byCond[c.Cond]
		if want == nil {
			t.Fatalf("condition %s missing from runlog", c.Cond)
		}
		ms := c.Metrics["game_mbps"]
		if ms.N() != want.N() {
			t.Errorf("%s: N %d vs %d", c.Cond, ms.N(), want.N())
		}
		if math.Abs(ms.Mean()-want.Mean()) > 1e-12 {
			t.Errorf("%s: mean %.9f vs runlog %.9f", c.Cond, ms.Mean(), want.Mean())
		}
		if math.Abs(ms.CI95()-want.CI95()) > 1e-12 {
			t.Errorf("%s: CI95 %.9f vs runlog %.9f", c.Cond, ms.CI95(), want.CI95())
		}
	}
}
