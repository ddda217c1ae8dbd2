// Package sim provides the discrete-event simulation engine that everything
// else in the testbed is built on: a virtual clock, a time-ordered event
// queue, timers, and a deterministic seeded random number generator.
//
// A simulation run is a pure function of its inputs and seed: the engine
// never consults the wall clock, and events scheduled for the same instant
// dispatch in the order they were scheduled, so two runs with identical
// configuration produce bit-identical results.
//
// The event core is built for zero steady-state allocations on the hot
// path (see docs/ARCHITECTURE.md, "hot path & memory discipline"):
//
//   - the queue is a 4-ary min-heap of pointer-free 16-byte keys
//     {at, seq<<24 | slot}, so a sift moves plain words and the garbage
//     collector never scans the heap;
//   - what a key dispatches — a call plus its argument, a Timer/Ticker
//     entry, or a Lane — lives in a slot table beside the heap, whose
//     int32 position column the sifts keep current and whose free slots
//     chain through that same column; vacated slots are zeroed so
//     dispatched closures and arguments become garbage-collectable
//     immediately;
//   - Timer and Ticker keep one slot while armed, and Reset/Stop move or
//     remove its key in place instead of abandoning tombstone events in
//     the queue;
//   - a Lane queues FIFO deliveries whose times never decrease (a link's
//     or delay line's packets in flight, a flow population's pre-drawn
//     ON/OFF schedule) in its own ring; only its head item holds a heap
//     key, so the heap stays a few entries deep however many packets are
//     on the wire or arrivals are still to come;
//   - the run loop dispatches from the heap root without popping it first:
//     a lane with another item queued, and a Timer or Ticker that re-arms
//     from its own callback, re-key the root in place with one sift down
//     instead of a pop plus an insert;
//   - ScheduleCall carries a pre-built func(arg) plus a pointer-shaped
//     argument, for one-shot deliveries that are neither FIFO nor
//     re-armed, with no per-event closure allocation.
package sim

import (
	"fmt"
	"math/bits"
	"time"
)

// Time is a virtual timestamp, in nanoseconds since the start of the run.
type Time int64

// Common instants.
const (
	Start Time = 0
	End   Time = Time(1<<63 - 1)
)

// At returns the Time d after the start of the run.
func At(d time.Duration) Time { return Time(d) }

// Add returns t advanced by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the duration since the start of the run.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns t in seconds since the start of the run.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// String formats t as a duration since the start of the run.
func (t Time) String() string { return time.Duration(t).String() }

// A key's ord word packs the event's sequence number above its slot index.
const (
	slotBits = 24
	slotMask = 1<<slotBits - 1
	maxSeq   = 1<<(64-slotBits) - 1
)

// slotLimit caps the slot table, and so the number of keys queued at once,
// at what slotBits can address. Tests lower it to reach the overflow panic.
var slotLimit = 1 << slotBits

// key is one heap element: the dispatch time and ord = seq<<slotBits | slot.
// Sequence numbers are unique, so ordering on (at, ord) is ordering on
// (at, seq): simultaneous events dispatch in scheduling order.
type key struct {
	at  Time
	ord uint64
}

func (k key) slot() int32 { return int32(k.ord & slotMask) }

func less(a, b key) bool { return a.at < b.at || (a.at == b.at && a.ord < b.ord) }

// slot holds what one queued key dispatches. Exactly one form is set:
// call+arg (a prebuilt function applied to an argument; one-shot closures
// from Schedule travel this way too, as runClosure applied to the func()
// boxed in arg — func values are pointer-shaped, so the boxing never
// allocates), ent (an armed Timer/Ticker entry), or lane (a Lane whose
// head item the key stands for).
type slot struct {
	call func(any)
	arg  any
	ent  *entry
	lane *Lane
}

// runClosure is the shared dispatch shim for Schedule: the scheduled func()
// rides in the slot's arg.
func runClosure(a any) { a.(func())() }

// entry is the reschedulable handle owned by a Timer or Ticker. While armed
// it holds one slot, and Reset and Stop find its key through the slot's
// position column in O(1), then move or remove it in O(log n) instead of
// abandoning a tombstone event per call.
//
// An entry fires through exactly one of two callback forms: fn (a plain
// func(), possibly a method value allocated at construction) or call+arg
// (a shared prebuilt func(any) applied to a pointer-shaped argument — the
// ScheduleCall pattern, which lets value-embedded timers initialise with
// zero allocations; see Timer.InitCall).
type entry struct {
	fn   func()
	call func(any)
	arg  any
	slot int32 // -1 when disarmed
}

// fire dispatches the entry's callback.
func (en *entry) fire() {
	if en.call != nil {
		en.call(en.arg)
		return
	}
	en.fn()
}

// initCap sizes the heap and slot-table arrays embedded in the Engine: a
// paper run keeps about ten keys queued, so neither grows, and a new engine
// costs no allocation for them, in the common case.
const initCap = 64

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now  Time
	seq  uint64 // ordering counter; advances on every (re)schedule
	heap []key
	// slots and pos form the slot table, indexed by a key's slot. For an
	// occupied slot, pos is the heap index of its key. For a free slot, pos
	// links to the next free slot; free heads the list (-1 ends it).
	slots []slot
	pos   []int32
	free  int32
	// firing is the slot of the Timer/Ticker entry whose callback is
	// running while its key still sits at the heap root, or -1. See Run.
	firing  int32
	stopped bool
	rng     *RNG
	// processed counts dispatched events, for diagnostics and benchmarks.
	processed uint64
	// scheduled counts events ever queued, lane items included.
	scheduled uint64
	// cancelled counts events removed from the queue without dispatching
	// (Timer/Ticker Stop). Before the indexed-timer design these lingered
	// as dead tombstone events and were dispatched as no-ops.
	cancelled uint64
	// moved counts in-place timer reschedules; each one is a tombstone the
	// old design would have leaked into the queue.
	moved uint64
	// peakPending is the high-water mark of pending events.
	peakPending int
	// wall accumulates wall-clock time spent inside Run. It never feeds
	// back into the simulation, so determinism is preserved.
	wall time.Duration

	// Initial backing arrays of heap, slots and pos.
	heap0  [initCap]key
	slots0 [initCap]slot
	pos0   [initCap]int32
}

// Stats is a snapshot of the engine's counters. All counters are maintained
// on the hot event loop at the cost of one integer compare per Schedule and
// two wall-clock reads per Run call, so snapshotting is always cheap and
// safe.
type Stats struct {
	// EventsDispatched is the number of events popped and executed.
	EventsDispatched uint64
	// EventsScheduled is the number of events ever pushed into the queue.
	// The invariant EventsDispatched == EventsScheduled - EventsCancelled -
	// uint64(Pending) holds at all times: events leave the queue either by
	// dispatching or by being cancelled in place.
	EventsScheduled uint64
	// EventsCancelled counts events removed from the queue without being
	// dispatched (Timer.Stop / Ticker.Stop on an armed entry). The old
	// heap left these behind as dead no-op events.
	EventsCancelled uint64
	// TimerMoves counts in-place reschedules of armed timers and tickers
	// (Timer.Reset on an armed timer). Each one is a dead event the
	// tombstone design would have queued and dispatched for nothing.
	TimerMoves uint64
	// Pending is the number of events still waiting to dispatch: keys in
	// the heap, plus items queued behind a Lane's head.
	Pending int
	// PeakPending is the high-water mark of Pending, a proxy for the
	// simulation's working-set size.
	PeakPending int
	// SimTime is the current virtual clock.
	SimTime Time
	// WallTime is the cumulative wall-clock time spent inside Run.
	WallTime time.Duration
}

// Speedup returns simulated seconds advanced per wall-clock second spent in
// Run — the figure that tells you how much faster than real time the
// simulation executes. Zero if no wall time has been recorded yet.
func (s Stats) Speedup() float64 {
	if s.WallTime <= 0 {
		return 0
	}
	return s.SimTime.Seconds() / s.WallTime.Seconds()
}

// EventsPerSecond returns dispatched events per wall-clock second, or zero
// if no wall time has been recorded yet.
func (s Stats) EventsPerSecond() float64 {
	if s.WallTime <= 0 {
		return 0
	}
	return float64(s.EventsDispatched) / s.WallTime.Seconds()
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		EventsDispatched: e.processed,
		EventsScheduled:  e.scheduled,
		EventsCancelled:  e.cancelled,
		TimerMoves:       e.moved,
		Pending:          e.Pending(),
		PeakPending:      e.peakPending,
		SimTime:          e.now,
		WallTime:         e.wall,
	}
}

// NewEngine returns an engine with its clock at zero and an RNG seeded with
// the given seed.
func NewEngine(seed uint64) *Engine {
	e := &Engine{free: -1, firing: -1, rng: NewRNG(seed)}
	e.heap = e.heap0[:0]
	e.slots = e.slots0[:0]
	e.pos = e.pos0[:0]
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random number generator.
func (e *Engine) Rand() *RNG { return e.rng }

// Processed reports how many events have been dispatched so far.
func (e *Engine) Processed() uint64 { return e.processed }

// --- 4-ary min-heap of keys ---
//
// Children of i live at 4i+1..4i+4; the parent of i is (i-1)/4. A 4-ary
// layout halves the tree depth versus binary, trading slightly wider
// sibling scans (four keys are one cache line) for fewer levels of sift
// work per push/pop. Every sift writes the moved keys' heap indexes into
// the position column; keys and positions hold no pointers, so neither
// write needs a GC write barrier.

// up places k at heap index i or above, moving a hole toward the root.
func (e *Engine) up(i int, k key) {
	h, pos := e.heap, e.pos
	for i > 0 {
		p := int(uint(i-1) >> 2)
		pk := h[p]
		if !less(k, pk) {
			break
		}
		h[i] = pk
		pos[pk.slot()] = int32(i)
		i = p
	}
	h[i] = k
	pos[k.slot()] = int32(i)
}

// down places k at heap index i or below, moving a hole toward the leaves;
// the 4-child minimum scan is unrolled.
func (e *Engine) down(i int, k key) {
	h, pos := e.heap, e.pos
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m, mk := c, h[c]
		if c+1 < n && less(h[c+1], mk) {
			m, mk = c+1, h[c+1]
		}
		if c+2 < n && less(h[c+2], mk) {
			m, mk = c+2, h[c+2]
		}
		if c+3 < n && less(h[c+3], mk) {
			m, mk = c+3, h[c+3]
		}
		if !less(mk, k) {
			break
		}
		h[i] = mk
		pos[mk.slot()] = int32(i)
		i = m
	}
	h[i] = k
	pos[k.slot()] = int32(i)
}

// fix places k at heap index i, sifting whichever way restores order.
func (e *Engine) fix(i int, k key) {
	if i > 0 && less(k, e.heap[(i-1)/4]) {
		e.up(i, k)
	} else {
		e.down(i, k)
	}
}

// insert adds k to the heap without touching the counters, which its
// callers book: a freshly scheduled event, a Timer or Ticker armed from
// disarmed, or the first item of an empty Lane.
func (e *Engine) insert(k key) {
	e.heap = append(e.heap, k)
	e.up(len(e.heap)-1, k)
}

// pop removes the root key. Its slot's position is left stale; the caller
// owns the slot from here.
func (e *Engine) pop() {
	h := e.heap
	n := len(h) - 1
	e.heap = h[:n]
	if n > 0 {
		e.down(0, h[n])
	}
}

// removeAt deletes the key at heap index i without dispatching it.
func (e *Engine) removeAt(i int) {
	h := e.heap
	n := len(h) - 1
	e.heap = h[:n]
	if i < n {
		e.fix(i, h[n])
	}
}

// --- slot table ---

// acquire takes a free slot, growing the table when none is left.
func (e *Engine) acquire() int32 {
	if s := e.free; s >= 0 {
		e.free = e.pos[s]
		return s
	}
	s := len(e.slots)
	if s >= slotLimit {
		panic(fmt.Sprintf("sim: more than %d events queued at once", slotLimit))
	}
	if s == cap(e.slots) {
		e.grow()
	}
	e.slots = e.slots[:s+1]
	e.pos = e.pos[:s+1]
	return int32(s)
}

// grow quadruples the slot table and the heap together. The heap never
// holds more keys than there are slots, so it never grows on its own, and
// a population thousands of events deep costs a few allocations. The old
// slots are cleared: the first table is embedded in the Engine, which would
// otherwise keep their closures and arguments reachable.
func (e *Engine) grow() {
	n := 4 * cap(e.slots)
	slots := make([]slot, len(e.slots), n)
	copy(slots, e.slots)
	clear(e.slots)
	pos := make([]int32, len(e.pos), n)
	copy(pos, e.pos)
	heap := make([]key, len(e.heap), n)
	copy(heap, e.heap)
	e.slots, e.pos, e.heap = slots, pos, heap
}

// release zeroes slot s, so its closure, argument and entry do not stay
// pinned, and returns it to the free list.
func (e *Engine) release(s int32) {
	e.slots[s] = slot{}
	e.pos[s] = e.free
	e.free = s
}

// nextOrd takes a fresh sequence number and packs it with slot s.
func (e *Engine) nextOrd(s int32) uint64 {
	e.seq++
	if e.seq > maxSeq {
		panic("sim: sequence numbers exhausted")
	}
	return e.seq<<slotBits | uint64(s)
}

// count books one newly scheduled event and the pending high-water mark.
func (e *Engine) count() {
	e.scheduled++
	if n := e.Pending(); n > e.peakPending {
		e.peakPending = n
	}
}

// checkFuture panics on scheduling in the past: silently reordering time
// would corrupt every queue model downstream.
func (e *Engine) checkFuture(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
}

// Schedule runs fn after delay d. A negative delay is treated as zero.
// Events at equal times run in scheduling order.
func (e *Engine) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.ScheduleAt(e.now.Add(d), fn)
}

// ScheduleAt runs fn at time t. Scheduling in the past is an error in the
// simulation logic and panics.
func (e *Engine) ScheduleAt(t Time, fn func()) {
	e.ScheduleCallAt(t, runClosure, fn)
}

// ScheduleCall runs fn(arg) after delay d (negative delays clamp to zero).
// Unlike Schedule, the callback and its argument are stored as given, so
// callers that reuse one prebuilt fn schedule without allocating a closure
// per event. Deliveries whose times never decrease, such as a schedule
// drawn up front, belong on a Lane, which keeps them out of the heap; a
// callback that re-arms itself belongs on a Timer, which re-keys the heap
// root in place.
func (e *Engine) ScheduleCall(d time.Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	e.ScheduleCallAt(e.now.Add(d), fn, arg)
}

// ScheduleCallAt runs fn(arg) at time t. See ScheduleCall.
func (e *Engine) ScheduleCallAt(t Time, fn func(any), arg any) {
	e.checkFuture(t)
	s := e.acquire()
	sl := &e.slots[s]
	sl.call = fn
	sl.arg = arg
	e.insert(key{t, e.nextOrd(s)})
	e.count()
}

// scheduleEntry arms (or re-arms) an indexed entry for time t. An armed
// entry's key is rekeyed in place; a disarmed one takes a slot. Either way
// it receives a fresh sequence number, so a re-armed timer orders after
// events already scheduled for the same instant, exactly as a freshly
// scheduled event would.
//
// An entry re-armed from its own callback is disarmed but still holds the
// heap root (see Run): it takes that slot back and re-keys the root with
// one sift down. That counts as a newly scheduled event, exactly as the
// pop plus insert it replaces did.
func (e *Engine) scheduleEntry(ent *entry, t Time) {
	e.checkFuture(t)
	s := ent.slot
	if s < 0 {
		if f := e.firing; f >= 0 && e.slots[f].ent == ent {
			e.firing = -1
			ent.slot = f
			e.down(0, key{t, e.nextOrd(f)})
			e.count()
			return
		}
		s = e.acquire()
		e.slots[s].ent = ent
		ent.slot = s
		e.insert(key{t, e.nextOrd(s)})
		e.count()
		return
	}
	// Re-arming an armed entry moves it: logical pending is unchanged.
	e.moved++
	e.fix(int(e.pos[s]), key{t, e.nextOrd(s)})
}

// cancelEntry removes an armed entry's key from the heap and releases the
// slot. Disarmed entries are a no-op.
func (e *Engine) cancelEntry(ent *entry) {
	s := ent.slot
	if s < 0 {
		return
	}
	e.cancelled++
	e.removeAt(int(e.pos[s]))
	ent.slot = -1
	e.release(s)
}

// Stop halts the run loop after the current event finishes. It only affects
// the Run call in progress: the next Run resumes from the pending queue.
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events in time order until the queue is empty, Stop is
// called, or the clock would pass until. Events scheduled exactly at until
// are dispatched. It returns the final virtual time.
//
// Run clears any previous Stop before dispatching, so an engine stopped
// mid-run can be resumed simply by calling Run again.
//
// The loop reads the root key without popping it. A one-shot event pops
// and releases its slot before its callback runs, so the callback may
// schedule into it again. A lane takes its head item and re-keys the root
// with its next item, or pops and gives up its slot when it empties,
// before its callback runs, so the heap again holds every lane's earliest
// item whatever the callback schedules. A Timer or Ticker entry fires
// disarmed with its key still at the root; if the callback re-arms it,
// scheduleEntry re-keys the root in place, and otherwise the loop pops the
// key and releases the slot afterwards. Leaving the firing key at the root
// through a callback is safe on two invariants:
//
//   - nothing the callback schedules can order before the firing key:
//     its time is at or after now and its sequence number is larger, so
//     an insert's sift up stops below the root;
//   - removing any other key (a Stop, or a Reset that moves it) never
//     moves the root, because every key left in the heap orders after it.
//
// A callback must not call Run. The slot table may grow during any
// callback, so the loop holds slot indexes across one, never pointers.
func (e *Engine) Run(until Time) Time {
	start := time.Now()
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		k := e.heap[0]
		if k.at > until {
			break
		}
		e.now = k.at
		e.processed++
		s := k.slot()
		sl := &e.slots[s]
		if l := sl.lane; l != nil {
			arg := l.take()
			if l.n > 0 {
				e.down(0, l.ring[l.head].key)
			} else {
				e.pop()
				e.release(s)
				l.slot = -1
			}
			l.fn(arg)
			continue
		}
		if ent := sl.ent; ent != nil {
			ent.slot = -1
			e.firing = s
			ent.fire()
			if e.firing == s { // not re-armed: the key is still at the root
				e.firing = -1
				e.pop()
				e.release(s)
			}
			continue
		}
		call, arg := sl.call, sl.arg
		e.pop()
		e.release(s)
		call(arg)
	}
	if e.now < until && !e.stopped {
		e.now = until
	}
	e.wall += time.Since(start)
	return e.now
}

// RunFor is shorthand for Run(Now().Add(d)).
func (e *Engine) RunFor(d time.Duration) Time { return e.Run(e.now.Add(d)) }

// Pending reports how many events are waiting to dispatch, including any
// queued behind a Lane's head.
func (e *Engine) Pending() int { return int(e.scheduled - e.processed - e.cancelled) }

// Lane is a FIFO of deliveries on an engine whose times never decrease —
// the packets in flight on a link or a delay line, which netem holds in one
// send-time-ordered queue per qdisc. Every item takes its sequence number
// when it is scheduled, exactly as ScheduleCallAt would, so dispatch order
// and Stats are the same as scheduling each item on the engine directly;
// but only the head item holds a heap key, and the rest wait in the lane's
// ring. Items count as pending while they wait. When the head item fires,
// the run loop re-keys the lane's root key to the next item in place.
//
// The zero Lane is not usable until Init. Lanes must not be copied once
// initialised.
type Lane struct {
	eng  *Engine
	fn   func(any)
	ring []laneItem // power-of-two ring, head first
	head int
	n    int
	tail Time  // time of the last scheduled item
	slot int32 // held while the lane has items; -1 when empty
	// ring0 is the ring's first backing array, so a lane embedded in a
	// network element holds a typical window in flight with no allocation.
	ring0 [laneInitCap]laneItem
}

// laneItem is one queued delivery. Every item in a ring carries the lane's
// current slot in its key: the lane keeps that slot until it empties.
type laneItem struct {
	key key
	arg any
}

// laneInitCap is a lane ring's first capacity: enough for the tens of
// packets in flight on a 25 Mb/s path; a burst beyond it grows the ring.
const laneInitCap = 64

// Init prepares a zero-value Lane in place to deliver each item's argument
// to fn. A network element embeds its Lane by value and initialises it with
// its prebuilt delivery callback, at no allocation at all.
func (l *Lane) Init(eng *Engine, fn func(any)) {
	l.eng = eng
	l.fn = fn
	l.slot = -1
	l.ring = l.ring0[:]
}

// ScheduleAt queues fn(arg) for time t. Scheduling in the past panics, as
// on the engine, and so does a time before the lane's last scheduled item:
// silently reordering a FIFO would corrupt every queue model downstream.
func (l *Lane) ScheduleAt(t Time, arg any) {
	e := l.eng
	e.checkFuture(t)
	if t < l.tail {
		panic(fmt.Sprintf("sim: lane schedule at %v before its tail %v", t, l.tail))
	}
	l.tail = t
	if l.n == len(l.ring) {
		l.resize(2 * len(l.ring))
	}
	s := l.slot
	empty := s < 0
	if empty {
		s = e.acquire()
		e.slots[s].lane = l
		l.slot = s
	}
	k := key{t, e.nextOrd(s)}
	c := &l.ring[(l.head+l.n)&(len(l.ring)-1)]
	c.key = k
	c.arg = arg
	l.n++
	if empty {
		e.insert(k)
	}
	e.count()
}

// Reserve grows the ring, if it must, to hold n queued items at once, so
// a caller that queues a known schedule up front pays one allocation
// instead of one per doubling.
func (l *Lane) Reserve(n int) {
	if n > len(l.ring) {
		l.resize(1 << bits.Len(uint(n-1)))
	}
}

// resize moves the ring to a new power-of-two size of at least l.n,
// unrolling it so the head lands at index 0. The old ring is cleared: when
// it is ring0, the Lane would otherwise keep its copies of the queued
// arguments reachable.
func (l *Lane) resize(size int) {
	r := make([]laneItem, size)
	k := copy(r[:l.n], l.ring[l.head:])
	copy(r[k:l.n], l.ring[:l.head])
	clear(l.ring)
	l.ring = r
	l.head = 0
}

// take removes the head item and returns its argument.
func (l *Lane) take() any {
	c := &l.ring[l.head]
	arg := c.arg
	c.arg = nil // delivered packets must not stay pinned by the ring
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return arg
}

// Timer is a cancellable, reschedulable single-shot timer bound to an engine.
// It is the building block for retransmission timeouts, delayed ACKs, and
// periodic application ticks.
//
// A Timer owns one indexed entry: Reset moves the armed key in place and
// Stop removes it, so no call on a Timer ever strands a dead event in the
// queue or allocates after construction. Timers must not be copied once
// created.
type Timer struct {
	eng *Engine
	fn  func()
	ent entry
}

// NewTimer returns a timer that calls fn when it fires. The timer starts
// disarmed.
func NewTimer(eng *Engine, fn func()) *Timer {
	t := &Timer{eng: eng, fn: fn}
	t.ent.slot = -1
	t.ent.fn = fn
	return t
}

// InitCall prepares a zero-value Timer in place to fire fn(arg), the
// value-embedding construction path: a struct that embeds a Timer by value
// and initialises it with a shared package-level fn and itself as arg arms
// and fires with no per-timer allocation at all (NewTimer costs the Timer
// box plus the callback's closure or method value). The timer starts
// disarmed. Like every Timer, it must not be copied once initialised.
func (t *Timer) InitCall(eng *Engine, fn func(any), arg any) {
	t.eng = eng
	t.ent.slot = -1
	t.ent.call = fn
	t.ent.arg = arg
}

// Reset (re)arms the timer to fire after d, cancelling any earlier deadline.
func (t *Timer) Reset(d time.Duration) {
	t.ResetAt(t.eng.now.Add(d))
}

// ResetAt (re)arms the timer to fire at the absolute time at.
func (t *Timer) ResetAt(at Time) {
	t.eng.scheduleEntry(&t.ent, at)
}

// Stop disarms the timer. It is safe to call on a disarmed timer.
func (t *Timer) Stop() { t.eng.cancelEntry(&t.ent) }

// Armed reports whether the timer is waiting to fire.
func (t *Timer) Armed() bool { return t.ent.slot >= 0 }

// Ticker invokes fn every interval until stopped. The first tick fires one
// interval after Start (or immediately if startNow). Like Timer, a Ticker
// reuses one indexed entry for its whole life, so steady-state ticking
// performs no allocation. Tickers must not be copied once created.
type Ticker struct {
	eng      *Engine
	fn       func()
	interval time.Duration
	running  bool
	ent      entry
}

// NewTicker returns a stopped ticker with the given interval and callback.
func NewTicker(eng *Engine, interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{eng: eng, fn: fn, interval: interval}
	t.ent.slot = -1
	t.ent.fn = t.tick
	return t
}

// tick runs one tick and re-arms the entry, unless the callback stopped the
// ticker or re-armed it itself (e.g. via Start).
func (t *Ticker) tick() {
	if !t.running {
		return
	}
	t.fn()
	if t.running && t.ent.slot < 0 {
		t.eng.scheduleEntry(&t.ent, t.eng.now.Add(t.interval))
	}
}

// Start begins ticking. If startNow, the first tick is dispatched at the
// current time (still via the event queue, preserving ordering). Starting a
// running ticker re-arms its pending tick.
func (t *Ticker) Start(startNow bool) {
	t.running = true
	at := t.eng.now.Add(t.interval)
	if startNow {
		at = t.eng.now
	}
	t.eng.scheduleEntry(&t.ent, at)
}

// SetInterval changes the tick interval; takes effect from the next arm.
func (t *Ticker) SetInterval(d time.Duration) {
	if d <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t.interval = d
}

// Interval returns the current tick interval.
func (t *Ticker) Interval() time.Duration { return t.interval }

// Stop halts the ticker. Safe to call repeatedly.
func (t *Ticker) Stop() {
	t.running = false
	t.eng.cancelEntry(&t.ent)
}

// Running reports whether the ticker is active.
func (t *Ticker) Running() bool { return t.running }
