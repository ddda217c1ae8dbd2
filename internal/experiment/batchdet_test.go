package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"testing"

	"repro/internal/gamestream"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/units"
)

// runlogRecords executes a small sweep with the given worker count and
// returns its runlog records, sorted into grid order with
// machine-dependent wall-clock fields zeroed.
func runlogRecords(t *testing.T, workers int) []obs.Record {
	t.Helper()
	var buf bytes.Buffer
	jl := obs.NewJSONL(&buf)
	RunSweep(context.Background(), SweepConfig{
		Systems:    []gamestream.System{gamestream.Stadia, gamestream.Luna},
		CCAs:       []string{"cubic", "bbr"},
		Capacities: []units.Rate{units.Mbps(25)},
		QueueMults: []float64{2},
		Iterations: 2,
		Timeline:   metrics.PaperTimeline.Scale(0.05),
		BaseSeed:   7,
		Workers:    workers,
		Progress:   jl,
	})
	recs, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("runlog parse: %v", err)
	}
	for i := range recs {
		recs[i].Engine.WallSeconds = 0
		recs[i].Engine.Speedup = 0
		recs[i].Engine.EventsPerSecond = 0
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Cond != recs[j].Cond {
			return recs[i].Cond < recs[j].Cond
		}
		return recs[i].Seed < recs[j].Seed
	})
	return recs
}

// TestBatchedVsSerialRunlogAcrossWorkers sweeps the same grid with 1, 4
// and 8 workers and asserts the three runlogs are identical record for
// record (wall-clock fields aside): goroutine scheduling must not leak
// into results.
func TestBatchedVsSerialRunlogAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("three sweeps of the grid; skipped in -short")
	}
	ref := runlogRecords(t, 1) // single-worker = reference semantics
	if len(ref) != 8 {
		t.Fatalf("reference runlog has %d records, want 8", len(ref))
	}
	refJSON := make([][]byte, len(ref))
	for i, r := range ref {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		refJSON[i] = b
	}
	for _, workers := range []int{4, 8} {
		got := runlogRecords(t, workers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d records, want %d", workers, len(got), len(ref))
		}
		for i := range got {
			b, err := json.Marshal(got[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, refJSON[i]) {
				t.Errorf("workers=%d record %d diverged:\n got %s\nwant %s",
					workers, i, b, refJSON[i])
			}
		}
	}
}
