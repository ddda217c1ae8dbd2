package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestSameTimestampSeqOrderProperty is the randomized ordering property
// behind the batched drain loop: events sharing a timestamp fire in
// schedule (seq) order, including events scheduled mid-batch from inside
// callbacks at the very timestamp being drained, and batches larger than
// the fixed drain buffer. Batched and serial dispatch must produce the
// identical dispatch sequence.
func TestSameTimestampSeqOrderProperty(t *testing.T) {
	type fire struct {
		at  Time
		idx int // global schedule order
	}

	// run builds one randomized schedule (driven by a cloned PRNG so both
	// dispatch modes see the same schedule) and records dispatch order.
	run := func(seed int64, batched bool) []fire {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(1)
		e.SetBatchDispatch(batched)
		var got []fire
		idx := 0
		// Few distinct timestamps, many events: heavy collision pressure,
		// with some timestamps drawing far more than batchCap events.
		stamp := func() time.Duration {
			return time.Duration(1+rng.Intn(20)) * time.Millisecond
		}
		var sched func(d time.Duration)
		sched = func(d time.Duration) {
			i := idx
			idx++
			e.Schedule(d, func() {
				got = append(got, fire{e.Now(), i})
				// A few callbacks extend the current timestamp's cohort
				// (delay 0) or seed future ones, exercising mid-batch
				// scheduling against the drained buffer.
				if rng.Intn(10) == 0 {
					sched(0)
				}
				if rng.Intn(10) == 0 {
					sched(stamp())
				}
			})
		}
		for i := 0; i < 500; i++ {
			sched(stamp())
		}
		e.Run(End)
		return got
	}

	for seed := int64(1); seed <= 5; seed++ {
		b := run(seed, true)
		s := run(seed, false)
		if len(b) != len(s) {
			t.Fatalf("seed %d: batched fired %d events, serial %d", seed, len(b), len(s))
		}
		for i := range b {
			if b[i] != s[i] {
				t.Fatalf("seed %d: dispatch order diverged at %d: batched %+v, serial %+v",
					seed, i, b[i], s[i])
			}
		}
		// Within a timestamp, schedule order must be preserved. (Across
		// timestamps time is non-decreasing by construction of the heap.)
		for i := 1; i < len(b); i++ {
			if b[i].at < b[i-1].at {
				t.Fatalf("seed %d: time went backwards at %d: %+v after %+v", seed, i, b[i], b[i-1])
			}
			if b[i].at == b[i-1].at && b[i].idx < b[i-1].idx {
				t.Fatalf("seed %d: same-timestamp events out of schedule order: %+v after %+v",
					seed, b[i], b[i-1])
			}
		}
	}
}

// TestBatchWindowZeroAlloc extends the zero-alloc suite to the batch drain
// loop's new interaction sites: ScheduleCall while a same-timestamp batch
// is draining, a lane whose head sits in the batch and re-arms mid-batch,
// and Timer.Reset from inside a batch window (the in-place move path
// against an event sitting in the drained buffer — the likeliest new-bug
// site of the refactor).
func TestBatchWindowZeroAlloc(t *testing.T) {
	e := NewEngine(1)

	// Warm the heap's backing array well past batchCap.
	for i := 0; i < 256; i++ {
		e.Schedule(time.Millisecond, func() {})
	}
	e.RunFor(time.Second)

	// ScheduleCall under batch drain: a cohort of 100 same-timestamp
	// events (> batchCap, so the drain loop refills) each re-scheduling
	// via ScheduleCall from inside the batch.
	call := func(any) {}
	arg := new(int)
	reschedule := func(a any) { e.ScheduleCall(time.Microsecond, call, a) }
	if n := testing.AllocsPerRun(50, func() {
		for i := 0; i < 100; i++ {
			e.ScheduleCall(time.Microsecond, reschedule, arg)
		}
		e.RunFor(time.Second)
	}); n != 0 {
		t.Errorf("ScheduleCall under batch drain: %.1f allocs/op, want 0", n)
	}

	// A lane head inside a batch window: the lane's items share the batch
	// instant with a cohort of one-shots scheduled between them, so each
	// delivery re-arms the lane below the batch keys still waiting and the
	// merge rule dispatches the next item from the heap mid-batch.
	ln := newLane(e, call)
	if n := testing.AllocsPerRun(50, func() {
		at := e.Now().Add(time.Microsecond)
		for i := 0; i < 40; i++ {
			ln.ScheduleAt(at, arg)
			e.ScheduleCallAt(at, call, arg)
		}
		e.RunFor(time.Second)
	}); n != 0 {
		t.Errorf("Lane head inside batch window: %.1f allocs/op, want 0", n)
	}

	// Timer.Reset inside a batch window: the timer's event is drained into
	// the batch buffer alongside its same-timestamp peers, and a peer
	// callback Resets it before it dispatches — the pos<=-2 move path.
	tm := NewTimer(e, func() {})
	noop := func() {}
	move := func() { tm.Reset(time.Millisecond) } // hoisted: the closure itself is not under test
	if n := testing.AllocsPerRun(50, func() {
		tm.Reset(time.Microsecond)
		for i := 0; i < 100; i++ {
			e.Schedule(time.Microsecond, noop)
		}
		e.Schedule(time.Microsecond, move)
		e.RunFor(time.Second)
	}); n != 0 {
		t.Errorf("Timer.Reset inside batch window: %.1f allocs/op, want 0", n)
	}
}

// TestTimerResetMidBatchSemantics pins the behavior of a Reset targeting
// an event already drained into the batch buffer: the timer must not fire
// at the original deadline, must fire exactly once at the new one, and the
// Stats invariant must hold throughout.
func TestTimerResetMidBatchSemantics(t *testing.T) {
	for _, batched := range []bool{true, false} {
		e := NewEngine(1)
		e.SetBatchDispatch(batched)
		fired := 0
		var firedAt Time
		tm := NewTimer(e, func() { fired++; firedAt = e.Now() })
		// The mover is scheduled before the timer arms, so at 1 ms it has
		// the smaller seq and runs first — Resetting the timer while the
		// timer's event sits drained, undispatched, in the batch buffer.
		e.Schedule(time.Millisecond, func() { tm.Reset(5 * time.Millisecond) })
		tm.Reset(time.Millisecond)
		e.Run(End)

		if fired != 1 || firedAt != At(6*time.Millisecond) {
			t.Errorf("batched=%v: timer fired %d times at %v, want once at 6ms",
				batched, fired, firedAt)
		}
		s := e.Stats()
		if s.EventsDispatched != s.EventsScheduled-s.EventsCancelled-uint64(s.Pending) {
			t.Errorf("batched=%v: stats invariant broken: %+v", batched, s)
		}
	}
}

// TestTimerStopMidBatch pins the cancellation path against the drained
// buffer: a same-timestamp peer stops the timer after it has been pulled
// into the batch, so it must not fire at all and must count as cancelled.
func TestTimerStopMidBatch(t *testing.T) {
	for _, batched := range []bool{true, false} {
		e := NewEngine(1)
		e.SetBatchDispatch(batched)
		fired := false
		tm := NewTimer(e, func() { fired = true })
		e.Schedule(time.Millisecond, func() { tm.Stop() }) // earlier seq: runs first
		tm.Reset(time.Millisecond)                         // same timestamp, later seq
		e.Run(End)

		if fired {
			t.Errorf("batched=%v: stopped timer fired", batched)
		}
		if s := e.Stats(); s.EventsCancelled != 1 || s.Pending != 0 {
			t.Errorf("batched=%v: stats after mid-batch stop: %+v", batched, s)
		}
		if tm.Armed() {
			t.Errorf("batched=%v: timer still armed after mid-batch Stop", batched)
		}
	}
}
