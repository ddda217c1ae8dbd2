package sim

import (
	"testing"
	"time"
)

// BenchmarkEventDispatch measures raw event throughput of the engine —
// the figure that bounds how fast full experiment runs can go. The
// events/sec metric gives BENCH_*.json a trajectory to track across
// revisions.
func BenchmarkEventDispatch(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			e.Schedule(time.Microsecond, fn)
		}
	}
	e.Schedule(time.Microsecond, fn)
	b.ResetTimer()
	e.Run(End)
	if s := e.Stats().EventsPerSecond(); s > 0 {
		b.ReportMetric(s, "events/sec")
	}
}

// BenchmarkDeepHeap measures dispatch with a large pending event set.
func BenchmarkDeepHeap(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < 10000; i++ {
		d := time.Duration(i) * time.Second
		e.Schedule(d+time.Hour, func() {})
	}
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			e.Schedule(time.Microsecond, fn)
		}
	}
	e.Schedule(time.Microsecond, fn)
	b.ResetTimer()
	e.Run(At(30 * time.Minute))
	if s := e.Stats().EventsPerSecond(); s > 0 {
		b.ReportMetric(s, "events/sec")
	}
}

// BenchmarkLaneDelivery measures per-packet delivery through a Lane: a
// 25 Mb/s stream of 1500-byte packets (one every 480 µs) on a path that
// keeps 30 of them in flight, the shape of the paper's bottleneck link.
// Only the lane's head holds a heap key, so a delivery re-keys the root of
// a one-key heap in place (one sift down) whatever the window; allocs/op
// must stay 0.
func BenchmarkLaneDelivery(b *testing.B) {
	b.ReportAllocs()
	const (
		gap      = 480 * time.Microsecond
		inFlight = 30
	)
	e := NewEngine(1)
	type payload struct{ v int }
	p := &payload{}
	n := 0
	var ln *Lane
	ln = newLane(e, func(x any) {
		n++
		if n+inFlight <= b.N {
			ln.ScheduleAt(e.Now().Add(inFlight*gap), x)
		}
	})
	for i := 0; i < inFlight && i < b.N; i++ {
		ln.ScheduleAt(At(time.Duration(i+1)*gap), p)
	}
	b.ResetTimer()
	e.Run(End)
	if s := e.Stats().EventsPerSecond(); s > 0 {
		b.ReportMetric(s, "events/sec")
	}
}

// BenchmarkScheduleDispatch measures the steady-state cost of one
// schedule+dispatch cycle with a reused closure. allocs/op must stay 0:
// the typed heap stores events by value and a reused func() incurs no
// boxing, so the hot path never touches the allocator.
func BenchmarkScheduleDispatch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			e.Schedule(time.Microsecond, fn)
		}
	}
	e.Schedule(time.Microsecond, fn)
	b.ResetTimer()
	e.Run(End)
}

// BenchmarkScheduleCall measures the prebuilt-callback flavor used for
// one-shot deliveries that are not FIFO (a reordering impairer's jittered
// packets): a stable func(any) plus a pointer-shaped arg. Also must be 0
// allocs/op.
func BenchmarkScheduleCall(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	n := 0
	type payload struct{ v int }
	p := &payload{}
	var call func(any)
	call = func(x any) {
		n++
		if n < b.N {
			e.ScheduleCall(time.Microsecond, call, x)
		}
	}
	e.ScheduleCall(time.Microsecond, call, p)
	b.ResetTimer()
	e.Run(End)
}

// BenchmarkTimerReset measures the indexed-timer reschedule path: each
// Reset moves the entry in place (no tombstones, no new heap node), so a
// retransmission timer that is re-armed on every ACK costs O(log n) swaps
// and zero allocations.
func BenchmarkTimerReset(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	t := NewTimer(e, func() {})
	// A realistic pending population so the reschedule actually sifts.
	for i := 0; i < 1024; i++ {
		e.Schedule(time.Duration(i+1)*time.Hour, func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Reset(time.Duration(i%100+1) * time.Millisecond)
	}
	b.StopTimer()
	if e.Stats().TimerMoves == 0 && b.N > 1 {
		b.Fatal("expected in-place timer moves")
	}
}

// BenchmarkTickerSteadyState measures a free-running periodic ticker —
// the encoder frame clock and feedback loop shape — which re-arms its own
// entry each tick, re-keying the heap root in place, and must be
// allocation-free after Start.
func BenchmarkTickerSteadyState(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	n := 0
	tk := NewTicker(e, time.Millisecond, nil)
	tk.fn = func() {
		n++
		if n >= b.N {
			tk.Stop()
		}
	}
	tk.Start(true)
	b.ResetTimer()
	e.Run(End)
}

func BenchmarkRNG(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
