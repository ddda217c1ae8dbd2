package sim

import (
	"testing"
	"time"
)

// TestHeapPropertyRandomOps drives the typed 4-ary heap with random
// interleavings of Schedule, ScheduleCall, Timer.Reset (both fresh arms and
// in-place moves), Timer.Stop and Ticker Start/Stop, across several Run
// windows, and checks every dispatch against a reference model: pending
// entries ordered by (at, seq), with seq mirroring the engine's ordering
// counter, and the engine's Stats counters mirrored one by one.
//
// Timer and ticker callbacks act too: they re-arm their own entry once or
// twice, re-arm then stop it, stop it while it is disarmed, reset another
// timer, or restart the ticker, often for the instant that is dispatching.
// Those are the paths where the run loop re-keys the firing key in place
// at the heap root instead of popping it. Any heap bookkeeping bug — a
// stale entry position after a sift, a missed zeroing, a wrong tiebreak, a
// re-armed key that keeps its old sequence number or is not counted —
// shows up as a dispatch-order or counter mismatch.
func TestHeapPropertyRandomOps(t *testing.T) {
	type ref struct {
		at  Time
		seq uint64
		id  int
	}
	// owner mirrors one Timer or the Ticker: whether it is armed in the
	// model, and the identity of its armed deadline.
	type owner struct {
		armed bool
		id    int
	}
	const tickEvery = 7 * time.Millisecond
	for trial := uint64(1); trial <= 50; trial++ {
		rng := NewRNG(trial)
		e := NewEngine(trial)

		var (
			model   []ref // reference pending set
			seq     uint64
			nextID  int
			until   Time
			quiesce bool // last round: callbacks only drain

			scheduled, cancelled, moves uint64
			dispatched                  int
		)
		newID := func() int { nextID++; return nextID }
		check := func(where string) {
			t.Helper()
			s := e.Stats()
			if s.EventsScheduled != scheduled || s.EventsCancelled != cancelled ||
				s.TimerMoves != moves || s.Pending != len(model) {
				t.Fatalf("trial %d %s: scheduled/cancelled/moves/pending = %d/%d/%d/%d, model %d/%d/%d/%d",
					trial, where, s.EventsScheduled, s.EventsCancelled, s.TimerMoves, s.Pending,
					scheduled, cancelled, moves, len(model))
			}
		}
		add := func(at Time) int {
			id := newID()
			seq++
			model = append(model, ref{at, seq, id})
			return id
		}
		remove := func(id int) {
			for i := range model {
				if model[i].id == id {
					model = append(model[:i], model[i+1:]...)
					return
				}
			}
			t.Fatalf("trial %d: id %d not in the model", trial, id)
		}
		// take checks that id is the model's earliest pending entry, due
		// now and inside the Run window, and removes it.
		take := func(id int) {
			t.Helper()
			dispatched++
			m := 0
			for i := range model {
				if model[i].at < model[m].at || (model[i].at == model[m].at && model[i].seq < model[m].seq) {
					m = i
				}
			}
			if len(model) == 0 || model[m].id != id || model[m].at != e.Now() || e.Now() > until {
				t.Fatalf("trial %d: dispatch %d is id %d at %v (until %v); model wants %+v",
					trial, dispatched, id, e.Now(), until, model[m])
			}
			model = append(model[:m], model[m+1:]...)
			check("after a dispatch")
		}
		arm := func(o *owner, at Time) {
			if o.armed {
				remove(o.id)
				moves++
			} else {
				scheduled++
			}
			o.armed = true
			o.id = add(at)
		}
		disarm := func(o *owner) {
			if o.armed {
				remove(o.id)
				cancelled++
				o.armed = false
			}
		}
		// Every time lies on a 1 ms grid, so equal times, and with them
		// the sequence-number tiebreak, are common.
		ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
		soon := func() Time { return e.Now().Add(ms(rng.Intn(3))) }

		var (
			timers  [4]*Timer
			towners [4]owner
			tk      *Ticker
			tkOwner owner
		)
		resetTimer := func(k int, at Time) {
			arm(&towners[k], at)
			timers[k].ResetAt(at)
		}
		stopTimer := func(k int) {
			disarm(&towners[k])
			timers[k].Stop()
		}
		startTicker := func(now bool) {
			at := e.Now().Add(tickEvery)
			if now {
				at = e.Now()
			}
			arm(&tkOwner, at)
			tk.Start(now)
		}
		stopTicker := func() {
			disarm(&tkOwner)
			tk.Stop()
		}
		for k := range timers {
			k := k
			timers[k] = NewTimer(e, func() {
				take(towners[k].id)
				towners[k].armed = false
				if timers[k].Armed() {
					t.Fatalf("trial %d: timer %d reads armed inside its own callback", trial, k)
				}
				if quiesce {
					return
				}
				switch rng.Intn(7) {
				case 1: // re-arm once: the in-place path
					resetTimer(k, soon())
				case 2: // re-arm twice: in place, then an ordinary move
					resetTimer(k, soon())
					resetTimer(k, soon())
				case 3: // re-arm, then stop
					resetTimer(k, soon())
					stopTimer(k)
				case 4: // stop while disarmed: a no-op
					stopTimer(k)
				case 5: // reset another timer
					resetTimer((k+1+rng.Intn(3))%len(timers), soon())
				case 6:
					startTicker(rng.Intn(2) == 0)
				}
			})
		}
		tk = NewTicker(e, tickEvery, func() {
			take(tkOwner.id)
			tkOwner.armed = false
			switch {
			case quiesce:
				stopTicker()
			default:
				switch rng.Intn(5) {
				case 1:
					stopTicker()
				case 2: // restart from its own tick: the in-place path
					startTicker(rng.Intn(2) == 0)
				case 3:
					resetTimer(rng.Intn(len(timers)), soon())
				}
			}
			// The ticker re-arms itself after this callback unless it was
			// stopped or already re-armed.
			if tk.Running() && !tkOwner.armed {
				scheduled++
				tkOwner.armed = true
				tkOwner.id = add(e.Now().Add(tickEvery))
			}
		})

		for round := 0; round < 6; round++ {
			for op := 0; op < 40; op++ {
				at := e.Now().Add(ms(1 + rng.Intn(100)))
				switch rng.Intn(7) {
				case 0, 1: // plain closure
					scheduled++
					id := add(at)
					e.ScheduleAt(at, func() { take(id) })
				case 2: // prebuilt call + arg
					scheduled++
					id := add(at)
					e.ScheduleCallAt(at, func(x any) { take(*x.(*int)) }, &id)
				case 3: // timer reset: fresh arm or in-place move
					resetTimer(rng.Intn(len(timers)), at)
				case 4: // timer stop
					stopTimer(rng.Intn(len(timers)))
				case 5:
					startTicker(rng.Intn(2) == 0)
				case 6:
					stopTicker()
				}
			}
			check("after scheduling")

			until = e.Now().Add(ms(rng.Intn(100)))
			if round == 5 {
				until, quiesce = End, true
			}
			e.Run(until)
			for _, r := range model {
				if r.at <= until {
					t.Fatalf("trial %d round %d: id %d due at %v left pending after Run(%v)",
						trial, round, r.id, r.at, until)
				}
			}
			check("after Run")
		}
		if e.Pending() != 0 {
			t.Fatalf("trial %d: %d events left after Run(End)", trial, e.Pending())
		}
	}
}
