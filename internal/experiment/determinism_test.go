package experiment

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/units"
)

// goldenRun executes one probed run for the determinism tests. The
// condition exercises every pooled subsystem at once: a streaming session
// (fragmenter + feedback), a competing TCP flow, the ping probe, and the
// full probe capture (CC samplers, queue telemetry, event ring).
func goldenRun(seed uint64) *RunResult {
	return Run(RunConfig{
		Condition: Condition{
			System: gamestream.Stadia, CCA: "bbr", Capacity: units.Mbps(25), QueueMult: 2,
		},
		Timeline: metrics.PaperTimeline.Scale(0.1),
		Seed:     seed,
		Probe:    &probe.Config{Interval: 100 * time.Millisecond, Events: 1 << 12},
	})
}

// exportBytes renders every probe export into memory.
func exportBytes(t *testing.T, r *RunResult) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for name, fn := range map[string]func(*bytes.Buffer) error{
		"cc.csv":       func(b *bytes.Buffer) error { return r.Probe.WriteCCCSV(b) },
		"queue.csv":    func(b *bytes.Buffer) error { return r.Probe.WriteQueueCSV(b) },
		"drops.csv":    func(b *bytes.Buffer) error { return r.Probe.WriteDropsCSV(b) },
		"events.jsonl": func(b *bytes.Buffer) error { return r.Probe.WriteEventsJSONL(b) },
	} {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatalf("%s export: %v", name, err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// TestGoldenSeedByteIdentical is the determinism contract for the
// allocation-free core: two engines fed the same seed must dispatch the
// same number of events and produce byte-identical probe exports. Freelist
// reuse, in-place timer moves, and the typed heap must all be invisible in
// the output.
func TestGoldenSeedByteIdentical(t *testing.T) {
	a := goldenRun(42)
	b := goldenRun(42)

	if a.Engine.EventsDispatched != b.Engine.EventsDispatched ||
		a.Engine.EventsScheduled != b.Engine.EventsScheduled ||
		a.Engine.EventsCancelled != b.Engine.EventsCancelled ||
		a.Engine.TimerMoves != b.Engine.TimerMoves {
		t.Errorf("engine stats diverged: %+v vs %+v", a.Engine, b.Engine)
	}

	ea, eb := exportBytes(t, a), exportBytes(t, b)
	for name := range ea {
		if len(ea[name]) == 0 && name != "drops.csv" {
			t.Errorf("%s export empty — test exercises nothing", name)
		}
		if !bytes.Equal(ea[name], eb[name]) {
			t.Errorf("%s export not byte-identical across runs", name)
		}
	}

	// A different seed must actually change the trace, or the comparison
	// above is vacuous.
	c := goldenRun(43)
	ec := exportBytes(t, c)
	if bytes.Equal(ea["cc.csv"], ec["cc.csv"]) {
		t.Error("different seeds produced identical cc.csv")
	}
}

// TestSweepDeterministicAcrossWorkers checks that worker-count (i.e.
// goroutine scheduling) has no effect on results: each run owns its engine
// and packet pool, so a 1-worker and a 4-worker sweep of the same grid must
// agree run for run.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	base := SweepConfig{
		Systems:    []gamestream.System{gamestream.Stadia, gamestream.Luna},
		CCAs:       []string{"cubic", "bbr"},
		Capacities: []units.Rate{units.Mbps(25)},
		QueueMults: []float64{2},
		Iterations: 2,
		Timeline:   metrics.PaperTimeline.Scale(0.05),
		BaseSeed:   7,
	}
	one, four := base, base
	one.Workers = 1
	four.Workers = 4
	ra := RunSweep(context.Background(), one)
	rb := RunSweep(context.Background(), four)

	if len(ra.Conditions) != len(rb.Conditions) || len(ra.Conditions) == 0 {
		t.Fatalf("condition counts differ: %d vs %d", len(ra.Conditions), len(rb.Conditions))
	}
	for _, ca := range ra.Conditions {
		cb := rb.Find(ca.Cond)
		if cb == nil {
			t.Fatalf("condition %s missing from 4-worker sweep", ca.Cond)
		}
		if len(ca.Runs) != len(cb.Runs) {
			t.Fatalf("%s: run counts differ", ca.Cond)
		}
		for i := range ca.Runs {
			x, y := ca.Runs[i], cb.Runs[i]
			if x.Engine.EventsDispatched != y.Engine.EventsDispatched ||
				x.FramesDisplayed != y.FramesDisplayed {
				t.Errorf("%s run %d diverged across worker counts", ca.Cond, i)
			}
			for j := range x.GameMbps {
				if x.GameMbps[j] != y.GameMbps[j] {
					t.Fatalf("%s run %d bin %d: %v vs %v",
						ca.Cond, i, j, x.GameMbps[j], y.GameMbps[j])
				}
			}
		}
	}
}
