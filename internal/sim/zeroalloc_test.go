package sim

import (
	"testing"
	"time"
)

// TestSteadyStateZeroAlloc pins the tentpole guarantee: once the heap's
// backing array has grown to its working-set size, scheduling and
// dispatching events, re-arming timers, and ticking tickers perform zero
// allocations. Regressions here silently re-introduce GC pressure into
// every simulated packet.
func TestSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine(1)

	// Warm the heap's backing array. Runs are bounded (not Run(End)) so the
	// clock stays finite and later schedules remain valid.
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	e.RunFor(time.Second)

	var fn func()
	fn = func() {}
	if n := testing.AllocsPerRun(100, func() {
		e.Schedule(time.Microsecond, fn)
		e.RunFor(time.Second)
	}); n != 0 {
		t.Errorf("Schedule+Run with reused closure: %.1f allocs/op, want 0", n)
	}

	call := func(any) {}
	arg := new(int)
	if n := testing.AllocsPerRun(100, func() {
		e.ScheduleCall(time.Microsecond, call, arg)
		e.RunFor(time.Second)
	}); n != 0 {
		t.Errorf("ScheduleCall with pointer arg: %.1f allocs/op, want 0", n)
	}

	// A lane in steady state: a 30-item window in flight, each delivery
	// queueing the next.
	var ln *Lane
	ln = newLane(e, func(x any) { ln.ScheduleAt(e.Now().Add(30*time.Microsecond), x) })
	for i := 0; i < 30; i++ {
		ln.ScheduleAt(e.Now().Add(time.Duration(i+1)*time.Microsecond), arg)
	}
	e.RunFor(time.Millisecond)
	if n := testing.AllocsPerRun(100, func() {
		e.RunFor(time.Millisecond)
	}); n != 0 {
		t.Errorf("Lane steady state: %.1f allocs/op, want 0", n)
	}
	ln.fn = func(any) {}
	e.RunFor(time.Second) // drain, so the checks below start from an idle heap

	tm := NewTimer(e, func() {})
	if n := testing.AllocsPerRun(100, func() {
		tm.Reset(time.Microsecond) // fresh arm
		tm.Reset(time.Millisecond) // in-place move
		e.RunFor(time.Second)
	}); n != 0 {
		t.Errorf("Timer.Reset: %.1f allocs/op, want 0", n)
	}

	tk := NewTicker(e, time.Millisecond, nil)
	ticks := 0
	tk.fn = func() {
		ticks++
		if ticks%8 == 0 {
			tk.Stop()
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		tk.Start(false)
		e.RunFor(time.Second)
	}); n != 0 {
		t.Errorf("Ticker steady state: %.1f allocs/op, want 0", n)
	}
}

// TestEngineDispatchAllocBudget pins the whole-run allocation cost of the
// bare engine: a fresh engine dispatching a chain of 2M self-rescheduling
// events. Engine construction is a handful of allocations and dispatch
// adds none, so the ceiling sits one above today's count.
func TestEngineDispatchAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("dispatches 2M events")
	}
	const events, ceiling = 2_000_000, 6
	chain := func() {
		e := NewEngine(1)
		n := 0
		var fn func()
		fn = func() {
			n++
			if n < events {
				e.Schedule(time.Microsecond, fn)
			}
		}
		e.Schedule(time.Microsecond, fn)
		e.Run(End)
		if e.Processed() != events {
			t.Fatalf("dispatched %d events, want %d", e.Processed(), events)
		}
	}
	n := testing.AllocsPerRun(1, chain)
	if n > ceiling {
		t.Errorf("%.0f allocs/run, over the ceiling of %d", n, ceiling)
	} else {
		t.Logf("%.0f allocs/run, ceiling %d", n, ceiling)
	}
}

// TestPoppedSlotsZeroed verifies that dispatch and cancellation zero the
// vacated slot-table entries: a dispatched event's closure, call argument,
// entry and lane pointers must not linger in the table where they would pin
// otherwise-dead objects for the lifetime of the engine — in the table and
// in the first, embedded table it grew out of. The same holds for a lane's
// ring: a delivered item's argument (a packet, in the network
// elements) must not stay reachable from its ring cell.
func TestPoppedSlotsZeroed(t *testing.T) {
	e := NewEngine(1)
	big := make([]byte, 1<<10)
	ln := newLane(e, func(any) {})
	for i := 0; i < initCap; i++ { // outgrow the table embedded in the Engine
		e.ScheduleCall(time.Duration(i+1)*time.Millisecond, func(any) {}, &big)
	}
	for i := 0; i < 16; i++ {
		e.Schedule(time.Duration(i+1)*time.Millisecond, func() { _ = big })
		e.ScheduleCall(time.Duration(i+1)*time.Millisecond, func(any) {}, &big)
		ln.ScheduleAt(At(time.Duration(i+1)*time.Millisecond), &big)
	}
	tm := NewTimer(e, func() {})
	tm.Reset(5 * time.Millisecond)
	tm.Stop() // cancellation path must zero too
	fired := NewTimer(e, func() {})
	fired.Reset(7 * time.Millisecond)
	e.Run(End)

	if n := e.Pending(); n != 0 {
		t.Fatalf("%d events still pending", n)
	}
	if len(e.heap) != 0 {
		t.Fatalf("%d keys still in the heap", len(e.heap))
	}
	free := 0
	for s := e.free; s >= 0; s = e.pos[s] {
		free++
	}
	if free != len(e.slots) {
		t.Fatalf("%d of %d slots on the free list after the run", free, len(e.slots))
	}
	for i, sl := range append(e.slots0[:], e.slots[:cap(e.slots)]...) {
		if sl.call != nil || sl.arg != nil || sl.ent != nil || sl.lane != nil {
			t.Fatalf("vacated slot %d not zeroed: %+v", i, sl)
		}
	}
	for i, c := range ln.ring {
		if c.arg != nil {
			t.Fatalf("delivered lane cell %d still holds its argument", i)
		}
	}
}

// TestStopOnlyAffectsCurrentRun is the regression test for the old Stop
// semantics, where a single Stop left the engine permanently stopped and
// every later Run returned without dispatching anything. Run must clear the
// flag on entry so a stopped engine resumes from its pending queue.
func TestStopOnlyAffectsCurrentRun(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(1*time.Millisecond, func() { order = append(order, 1); e.Stop() })
	e.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	e.Schedule(3*time.Millisecond, func() { order = append(order, 3) })

	e.Run(End)
	if len(order) != 1 || e.Pending() != 2 {
		t.Fatalf("after stopped run: order=%v pending=%d, want [1] and 2", order, e.Pending())
	}
	if got := e.Now(); got != At(1*time.Millisecond) {
		t.Fatalf("clock advanced to %v during stopped run", got)
	}

	// The next Run resumes; Stop did not brick the engine.
	e.Run(At(time.Second))
	if len(order) != 3 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("resume dispatched %v, want [1 2 3]", order)
	}

	// Stop outside a run only affects the next Run's first iteration check;
	// Run clears it on entry, so scheduling and running still works.
	e.Stop()
	fired := false
	e.Schedule(time.Millisecond, func() { fired = true })
	e.Run(At(2 * time.Second))
	if !fired {
		t.Fatal("Run after out-of-run Stop dispatched nothing")
	}
}

// TestStatsCancelAndMoveCounters checks the extended Stats accounting: every
// event leaves the queue either by dispatch or by cancellation, in-place
// reschedules are counted as moves (not new schedules), and the invariant
// EventsDispatched == EventsScheduled - EventsCancelled - Pending holds
// through arbitrary timer churn.
func TestStatsCancelAndMoveCounters(t *testing.T) {
	e := NewEngine(1)
	check := func(ctx string) {
		s := e.Stats()
		if s.EventsDispatched != s.EventsScheduled-s.EventsCancelled-uint64(s.Pending) {
			t.Fatalf("%s: invariant broken: %+v", ctx, s)
		}
	}

	tm := NewTimer(e, func() {})
	tm.Reset(time.Millisecond) // push: scheduled
	tm.Reset(2 * time.Millisecond)
	tm.Reset(3 * time.Millisecond) // two in-place moves
	check("after resets")
	if s := e.Stats(); s.TimerMoves != 2 || s.EventsScheduled != 1 {
		t.Errorf("moves=%d scheduled=%d, want 2 and 1", s.TimerMoves, s.EventsScheduled)
	}

	tm.Stop()
	tm.Stop() // second stop is a no-op, not a second cancellation
	check("after stop")
	if s := e.Stats(); s.EventsCancelled != 1 {
		t.Errorf("cancelled=%d, want 1", s.EventsCancelled)
	}

	tk := NewTicker(e, time.Millisecond, nil)
	n := 0
	tk.fn = func() {
		n++
		if n == 5 {
			tk.Stop()
		}
	}
	tk.Start(true)
	e.Schedule(10*time.Millisecond, func() {})
	e.Run(End)
	check("after run")
	if s := e.Stats(); s.Pending != 0 || s.EventsDispatched == 0 {
		t.Errorf("unexpected final stats: %+v", s)
	}
}
