package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestSameTimestampSeqOrderProperty is the randomized ordering property
// of the Run loop: time never goes backwards, and events sharing a
// timestamp fire in schedule (seq) order, including events scheduled from
// inside callbacks at the very timestamp being dispatched.
func TestSameTimestampSeqOrderProperty(t *testing.T) {
	type fire struct {
		at  Time
		idx int // global schedule order
	}

	// run builds one randomized schedule and records dispatch order.
	run := func(seed int64) []fire {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(1)
		var got []fire
		idx := 0
		// Few distinct timestamps, many events: dozens of events share
		// each timestamp.
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
				// (delay 0) or seed future ones.
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
		b := run(seed)
		// Within a timestamp, schedule order must be preserved, and across
		// timestamps time must be non-decreasing.
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

// TestBatchWindowZeroAlloc extends the zero-alloc suite to same-instant
// cohorts: ScheduleCall from inside a cohort of same-timestamp events, a
// lane head interleaved with one-shots at one instant, and Timer.Reset by
// a same-instant peer before the timer dispatches (the in-place move
// path).
func TestBatchWindowZeroAlloc(t *testing.T) {
	e := NewEngine(1)

	// Warm the heap's backing array well past the cohort sizes below.
	for i := 0; i < 256; i++ {
		e.Schedule(time.Millisecond, func() {})
	}
	e.RunFor(time.Second)

	// ScheduleCall inside a cohort: 100 same-timestamp events, each
	// re-scheduling via ScheduleCall from its callback.
	call := func(any) {}
	arg := new(int)
	reschedule := func(a any) { e.ScheduleCall(time.Microsecond, call, a) }
	if n := testing.AllocsPerRun(50, func() {
		for i := 0; i < 100; i++ {
			e.ScheduleCall(time.Microsecond, reschedule, arg)
		}
		e.RunFor(time.Second)
	}); n != 0 {
		t.Errorf("ScheduleCall inside a same-instant cohort: %.1f allocs/op, want 0", n)
	}

	// A lane head among one-shots: the lane's items share one instant with
	// a cohort of one-shots scheduled between them, so each delivery
	// re-arms the lane below the one-shots still waiting.
	ln := newLane(e, call)
	if n := testing.AllocsPerRun(50, func() {
		at := e.Now().Add(time.Microsecond)
		for i := 0; i < 40; i++ {
			ln.ScheduleAt(at, arg)
			e.ScheduleCallAt(at, call, arg)
		}
		e.RunFor(time.Second)
	}); n != 0 {
		t.Errorf("Lane head among same-instant one-shots: %.1f allocs/op, want 0", n)
	}

	// Timer.Reset by a peer: the timer shares its instant with 100 peers,
	// and the last one Resets it before it dispatches.
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
		t.Errorf("Timer.Reset by a same-instant peer: %.1f allocs/op, want 0", n)
	}
}

// TestTimerResetMidBatchSemantics pins the behavior of a Reset by a
// same-instant peer that dispatches before the timer: the timer must not
// fire at the original deadline, must fire exactly once at the new one, and
// the Stats invariant must hold throughout.
func TestTimerResetMidBatchSemantics(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	var firedAt Time
	tm := NewTimer(e, func() { fired++; firedAt = e.Now() })
	// The mover is scheduled before the timer arms, so at 1 ms it has the
	// smaller seq and runs first, Resetting the timer while the timer's
	// key for 1 ms is still queued.
	e.Schedule(time.Millisecond, func() { tm.Reset(5 * time.Millisecond) })
	tm.Reset(time.Millisecond)
	e.Run(End)

	if fired != 1 || firedAt != At(6*time.Millisecond) {
		t.Errorf("timer fired %d times at %v, want once at 6ms", fired, firedAt)
	}
	s := e.Stats()
	if s.EventsDispatched != s.EventsScheduled-s.EventsCancelled-uint64(s.Pending) {
		t.Errorf("stats invariant broken: %+v", s)
	}
}

// TestTimerStopMidBatch pins the cancellation path at one instant: a
// same-timestamp peer with the earlier seq stops the timer, so it must not
// fire at all and must count as cancelled.
func TestTimerStopMidBatch(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := NewTimer(e, func() { fired = true })
	e.Schedule(time.Millisecond, func() { tm.Stop() }) // earlier seq: runs first
	tm.Reset(time.Millisecond)                         // same timestamp, later seq
	e.Run(End)

	if fired {
		t.Errorf("stopped timer fired")
	}
	if s := e.Stats(); s.EventsCancelled != 1 || s.Pending != 0 {
		t.Errorf("stats after same-instant stop: %+v", s)
	}
	if tm.Armed() {
		t.Errorf("timer still armed after same-instant Stop")
	}
}
