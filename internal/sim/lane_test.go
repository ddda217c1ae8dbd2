package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func newLane(e *Engine, fn func(any)) *Lane {
	l := new(Lane)
	l.Init(e, fn)
	return l
}

// laneFuzzStep is one observation of a laneFuzzRun: the identity of a
// dispatched event (or -1 at the end of a Run call) with the engine's Stats
// at that moment, wall time zeroed.
type laneFuzzStep struct {
	id    int
	stats Stats
}

const (
	laneFuzzLanes  = 3
	laneFuzzTimers = 3
)

// laneFuzzRun decodes data into operations and replays them on a fresh
// engine, returning every dispatch with the Stats seen by its callback,
// and the Stats at the end of every Run call.
//
// The first byte sets how many operations run at time zero. After that,
// each dispatched event runs the next operation, if any bytes are left, and
// the top level alternates Run windows of 1–3 ms with one operation of its
// own, resuming after any Stop. An operation is an opcode byte and a
// parameter byte, p: delays are (p%4) ms, so equal times and zero delays
// are common, and p>>2 picks a lane or a timer. The operations are
// ScheduleCall, Schedule, a lane item (clamped to the lane's tail so lane
// times never decrease), Timer.Reset, Timer.Stop and Engine.Stop; at a
// shared instant, resets and stops hit keys queued for that same instant.
//
// With lanes false, every lane item is scheduled with ScheduleCallAt
// instead: the reference the lanes must reproduce exactly.
func laneFuzzRun(data []byte, lanes bool) []laneFuzzStep {
	e := NewEngine(1)
	var trace []laneFuzzStep
	record := func(id int) {
		s := e.Stats()
		s.WallTime = 0
		trace = append(trace, laneFuzzStep{id, s})
	}

	cur := 0
	ids := 0
	var op func()
	call := func(x any) {
		record(x.(int))
		op()
	}
	var ln [laneFuzzLanes]*Lane
	var tails [laneFuzzLanes]Time
	for k := range ln {
		ln[k] = newLane(e, call)
	}
	var timers [laneFuzzTimers]*Timer
	var armedID [laneFuzzTimers]int
	for k := range timers {
		k := k
		timers[k] = NewTimer(e, func() {
			record(armedID[k])
			op()
		})
	}

	op = func() {
		if cur+2 > len(data) {
			return
		}
		c, p := data[cur], data[cur+1]
		cur += 2
		at := e.Now().Add(time.Duration(p%4) * time.Millisecond)
		ids++
		id := ids
		switch c % 6 {
		case 0:
			e.ScheduleCallAt(at, call, id)
		case 1:
			k := int(p>>2) % laneFuzzLanes
			at = max(at, tails[k])
			tails[k] = at
			if lanes {
				ln[k].ScheduleAt(at, id)
			} else {
				e.ScheduleCallAt(at, call, id)
			}
		case 2:
			k := int(p>>2) % laneFuzzTimers
			armedID[k] = id
			timers[k].ResetAt(at)
		case 3:
			timers[int(p>>2)%laneFuzzTimers].Stop()
		case 4:
			e.Stop()
		case 5:
			e.ScheduleAt(at, func() {
				record(id)
				op()
			})
		}
	}

	if len(data) > 0 {
		n := int(data[0])
		cur = 1
		for i := 0; i < n; i++ {
			op()
		}
	}
	// Every event lies at most 3 ms past the one that scheduled it, so this
	// many windows drain a correct engine; the bound turns a lost event
	// into a failing trace instead of an endless loop.
	for w := 0; e.Pending() > 0 && w < 2*len(data)+16; w++ {
		e.Run(e.Now().Add(time.Duration(1+w%3) * time.Millisecond))
		record(-1)
		op()
	}
	return trace
}

// FuzzLaneOrder is the ordering proof for Lane: a lane dispatches its items
// exactly as if each had been scheduled on the engine with ScheduleCallAt —
// same sequence, same Stats at every step — under arbitrary interleavings
// with one-shot events, timer resets and stops (at shared instants too),
// and Stop/resume.
func FuzzLaneOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 1, 0, 1, 0, 1, 0, 0, 0})
	f.Add([]byte{8, 1, 4, 1, 8, 1, 4, 0, 0, 2, 0, 1, 4, 3, 0, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		want := laneFuzzRun(data, false)
		got := laneFuzzRun(data, true)
		for i := 0; i < len(want) && i < len(got); i++ {
			if got[i] != want[i] {
				t.Fatalf("step %d = %+v, want %+v", i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%d steps, want %d", len(got), len(want))
		}
	})
}

// TestLaneFIFO checks the basic contract: items dispatch in scheduling
// order at their own times, equal times included, and a lane that empties
// re-arms on its next item.
func TestLaneFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []string
	ln := newLane(e, func(x any) { got = append(got, fmt.Sprintf("%v@%v", x, e.Now())) })
	ms := func(n int) Time { return At(time.Duration(n) * time.Millisecond) }
	ln.ScheduleAt(ms(1), "a")
	ln.ScheduleAt(ms(1), "b")
	ln.ScheduleAt(ms(3), "c")
	if ln.n != 3 || e.Pending() != 3 {
		t.Fatalf("Len = %d, Pending = %d, want 3 and 3", ln.n, e.Pending())
	}
	e.Run(ms(5))
	ln.ScheduleAt(ms(6), "d")
	e.Run(End)
	if want := "a@1ms b@1ms c@3ms d@6ms"; strings.Join(got, " ") != want {
		t.Errorf("dispatched %q, want %q", strings.Join(got, " "), want)
	}
	if s := e.Stats(); s.EventsScheduled != 4 || s.EventsDispatched != 4 || s.PeakPending != 3 {
		t.Errorf("stats %+v, want 4 scheduled, 4 dispatched, peak 3", s)
	}
}

// TestLaneRingGrowth drives a lane past its initial ring while the ring has
// wrapped, so growth must unroll it in FIFO order, and must not leave the
// abandoned initial ring holding arguments.
func TestLaneRingGrowth(t *testing.T) {
	e := NewEngine(1)
	var got []int
	ln := newLane(e, func(x any) { got = append(got, x.(int)) })
	next := 0
	queue := func(n int) {
		for i := 0; i < n; i++ {
			ln.ScheduleAt(e.Now().Add(time.Duration(next)*time.Microsecond), next)
			next++
		}
	}
	queue(laneInitCap - 4)
	e.Run(At(time.Duration(laneInitCap/2) * time.Microsecond))
	queue(3 * laneInitCap)
	e.Run(End)
	if len(got) != next {
		t.Fatalf("delivered %d items, want %d", len(got), next)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery %d carried item %d", i, v)
		}
	}
	if len(ln.ring) <= laneInitCap {
		t.Errorf("ring never grew past %d cells", laneInitCap)
	}
	for i, c := range append(ln.ring0[:], ln.ring...) {
		if c.arg != nil {
			t.Fatalf("ring cell %d still holds an argument after delivery", i)
		}
	}
}

// mustPanic runs fn and fails the test unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	fn()
}

// TestLaneScheduleBeforeTailPanics: a lane is FIFO by contract, so an item
// timed before the lane's tail is a caller bug and must fail loudly rather
// than dispatch out of order.
func TestLaneScheduleBeforeTailPanics(t *testing.T) {
	e := NewEngine(1)
	ln := newLane(e, func(any) {})
	ln.ScheduleAt(At(2*time.Millisecond), nil)
	ln.ScheduleAt(At(2*time.Millisecond), nil) // equal times are fine
	mustPanic(t, "before its tail", func() { ln.ScheduleAt(At(time.Millisecond), nil) })
	e.Run(End)
	mustPanic(t, "before now", func() { ln.ScheduleAt(At(time.Millisecond), nil) })
}

// TestSlotTableOverflowPanics: a key packs its slot into slotBits bits, so
// queueing more keys than that can address must panic instead of aliasing
// slots. The limit is lowered here; in production it is 2^24.
func TestSlotTableOverflowPanics(t *testing.T) {
	defer func(n int) { slotLimit = n }(slotLimit)
	slotLimit = 8
	e := NewEngine(1)
	tm := NewTimer(e, func() {})
	tm.Reset(time.Millisecond)
	ln := newLane(e, func(any) {})
	for i := 0; i < 4; i++ {
		ln.ScheduleAt(At(time.Millisecond), nil) // one slot for all of them
	}
	for i := 0; i < 6; i++ {
		e.Schedule(time.Millisecond, func() {})
	}
	mustPanic(t, "more than 8 events queued", func() { e.Schedule(time.Millisecond, func() {}) })
}

// TestSequenceExhaustionPanics: sequence numbers take the 40 bits above the
// slot, and running out of them must panic instead of wrapping into a
// misordered key.
func TestSequenceExhaustionPanics(t *testing.T) {
	e := NewEngine(1)
	e.seq = maxSeq - 1
	e.Schedule(time.Millisecond, func() {})
	mustPanic(t, "sequence numbers exhausted", func() { e.Schedule(time.Millisecond, func() {}) })
}
