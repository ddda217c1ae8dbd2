package netem

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Loss model selectors for Impairment.LossModel.
const (
	// LossBernoulli drops each packet independently with probability
	// LossRate — `netem loss <p>%`.
	LossBernoulli = "bernoulli"
	// LossGE is the two-state Gilbert-Elliott bursty loss model — `netem
	// loss gemodel p r 1-h 1-k`: the chain moves Good→Bad with probability
	// GEGoodBad and Bad→Good with GEBadGood per packet, and drops with
	// probability GELossGood / GELossBad in the respective state.
	LossGE = "ge"
)

// Impairment configures an Impairer. The zero value is a clean path. All
// fields are scalars so the struct stays comparable and can ride inside
// grid-condition keys.
type Impairment struct {
	// LossModel selects the drop process: "", LossBernoulli or LossGE.
	LossModel string
	// LossRate is the Bernoulli per-packet drop probability.
	LossRate float64
	// GEGoodBad (p) and GEBadGood (r) are the Gilbert-Elliott transition
	// probabilities per packet; GELossGood (1-k) and GELossBad (1-h) the
	// per-state drop probabilities. When both per-state probabilities are
	// zero the classic Gilbert model is assumed: lossless Good state,
	// fully lossy Bad state.
	GEGoodBad  float64
	GEBadGood  float64
	GELossGood float64
	GELossBad  float64
	// Jitter adds a per-packet extra delay uniform in [0, Jitter] — the
	// spread of `netem delay <d> <jitter>` (the base delay stays on the
	// Delay element). Without Reorder, delivery order is preserved, like
	// netem above a rate-limited child qdisc.
	Jitter time.Duration
	// Reorder lets jittered packets overtake each other, the behaviour
	// netem exhibits with a bare `delay ± jitter`.
	Reorder bool
	// Duplicate emits a copy of each packet with this probability —
	// `netem duplicate <p>%`.
	Duplicate float64
}

// Enabled reports whether the impairment does anything at all. Scenario
// builders use it to skip constructing (and RNG-forking for) an Impairer on
// clean-path runs, keeping their event and random streams unchanged.
func (im Impairment) Enabled() bool {
	return im.LossModel != "" || im.Jitter > 0 || im.Duplicate > 0
}

// String renders the impairment compactly and deterministically, e.g.
// "loss2%+jit3ms~+dup1%" or "geP0.01R0.25". The zero value renders "none".
func (im Impairment) String() string {
	var parts []string
	switch im.LossModel {
	case LossBernoulli:
		parts = append(parts, fmt.Sprintf("loss%g%%", im.LossRate*100))
	case LossGE:
		s := fmt.Sprintf("geP%gR%g", im.GEGoodBad, im.GEBadGood)
		if im.GELossGood != 0 || im.GELossBad != 0 {
			s += fmt.Sprintf("g%gb%g", im.GELossGood, im.GELossBad)
		}
		parts = append(parts, s)
	}
	if im.Jitter > 0 {
		s := "jit" + im.Jitter.String()
		if im.Reorder {
			s += "~"
		}
		parts = append(parts, s)
	}
	if im.Duplicate > 0 {
		parts = append(parts, fmt.Sprintf("dup%g%%", im.Duplicate*100))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// ImpairStats accumulates an Impairer's counters.
type ImpairStats struct {
	// Packets counts packets entering the impairer.
	Packets int
	// LossDrops counts packets killed by the loss model, FlapDrops the
	// ones killed because the link was down.
	LossDrops int
	FlapDrops int
	// Duplicates counts extra copies emitted, Reordered the packets that
	// overtook an earlier one.
	Duplicates int
	Reordered  int
	// Flaps counts down transitions; Down is cumulative link-down time
	// (use Snapshot to include an episode still open at end of run).
	Flaps int
	Down  time.Duration
}

// Impairer is the stochastic netem element: Bernoulli or Gilbert-Elliott
// loss, uniform delay jitter with optional reordering, duplicate injection,
// and a link-flap switch — everything `tc netem` adds beyond rate and fixed
// delay. It draws from its own forked RNG so runs stay deterministic and
// byte-identical regardless of worker count, and it releases every packet it
// drops back to the run's packet pool.
//
// All mutators (SetDown, SetLossRate, SetJitter) are safe to call mid-run
// from sim events; the Schedule layer in internal/experiment does exactly
// that.
type Impairer struct {
	eng  *sim.Engine
	cfg  Impairment
	rng  *sim.RNG
	next packet.Handler

	pool   *packet.Pool
	onDrop func(*packet.Packet)

	geBad     bool
	down      bool
	downSince sim.Time
	// lastOut is the latest scheduled delivery: the order clamp without
	// Reorder, the overtake detector with it.
	lastOut sim.Time
	// Without Reorder, jittered deliveries are FIFO and wait in inFlight;
	// with it they may overtake, so each is scheduled on the engine through
	// deliver. Reorder is fixed at construction, so one impairer never
	// mixes the two.
	inFlight sim.Lane
	deliver  func(any)
	Stats    ImpairStats
}

// NewImpairer returns an impairer delivering to next, drawing from rng. The
// classic Gilbert default (lossless Good, fully lossy Bad) is applied when a
// GE model leaves both per-state loss probabilities zero.
func NewImpairer(eng *sim.Engine, cfg Impairment, rng *sim.RNG, next packet.Handler) *Impairer {
	if cfg.LossModel == LossGE && cfg.GELossGood == 0 && cfg.GELossBad == 0 {
		cfg.GELossBad = 1
	}
	i := &Impairer{eng: eng, cfg: cfg, rng: rng, next: next}
	i.deliver = func(x any) { i.next.Handle(x.(*packet.Packet)) }
	i.inFlight.Init(eng, i.deliver)
	return i
}

// SetPool attaches the run's packet freelist; dropped packets (and nothing
// else) are released to it. A nil pool degrades to garbage collection.
func (i *Impairer) SetPool(p *packet.Pool) { i.pool = p }

// SetDropCallback registers fn to observe every packet the impairer kills
// (loss-model drops and link-down drops alike), before the packet returns to
// the pool. The callback must not retain the packet.
func (i *Impairer) SetDropCallback(fn func(*packet.Packet)) { i.onDrop = fn }

// SetDown raises or clears the link-flap state. While down, every packet is
// dropped. Transitions are edge-triggered; repeated calls with the same
// state are no-ops.
func (i *Impairer) SetDown(down bool) {
	if down == i.down {
		return
	}
	i.down = down
	if down {
		i.Stats.Flaps++
		i.downSince = i.eng.Now()
	} else {
		i.Stats.Down += i.eng.Now().Sub(i.downSince)
	}
}

// Down reports whether the link is currently flapped down.
func (i *Impairer) Down() bool { return i.down }

// SetLossRate retunes the Bernoulli drop probability mid-run, switching the
// loss model to Bernoulli if a different one was active.
func (i *Impairer) SetLossRate(p float64) {
	i.cfg.LossModel = LossBernoulli
	i.cfg.LossRate = p
}

// SetJitter retunes the jitter spread mid-run.
func (i *Impairer) SetJitter(j time.Duration) { i.cfg.Jitter = j }

// Config returns the impairer's current (possibly retuned) configuration.
func (i *Impairer) Config() Impairment { return i.cfg }

// Snapshot returns the counters with any still-open down episode accounted
// up to the current sim time.
func (i *Impairer) Snapshot() ImpairStats {
	s := i.Stats
	if i.down {
		s.Down += i.eng.Now().Sub(i.downSince)
	}
	return s
}

// Handle implements packet.Handler.
func (i *Impairer) Handle(p *packet.Packet) {
	i.Stats.Packets++
	if i.down {
		i.Stats.FlapDrops++
		i.drop(p)
		return
	}
	if i.shouldLose() {
		i.Stats.LossDrops++
		i.drop(p)
		return
	}
	if i.cfg.Duplicate > 0 && i.rng.Float64() < i.cfg.Duplicate {
		i.Stats.Duplicates++
		i.forward(i.pool.Clone(p))
	}
	i.forward(p)
}

// shouldLose advances the loss process one packet and returns its verdict.
func (i *Impairer) shouldLose() bool {
	switch i.cfg.LossModel {
	case LossBernoulli:
		return i.cfg.LossRate > 0 && i.rng.Float64() < i.cfg.LossRate
	case LossGE:
		if i.geBad {
			if i.rng.Float64() < i.cfg.GEBadGood {
				i.geBad = false
			}
		} else {
			if i.rng.Float64() < i.cfg.GEGoodBad {
				i.geBad = true
			}
		}
		pl := i.cfg.GELossGood
		if i.geBad {
			pl = i.cfg.GELossBad
		}
		switch {
		case pl <= 0:
			return false
		case pl >= 1:
			return true
		}
		return i.rng.Float64() < pl
	}
	return false
}

// forward delivers p, applying jitter. Without jitter the hand-off is
// synchronous — a loss-only impairer adds no events to the run at all.
func (i *Impairer) forward(p *packet.Packet) {
	if i.cfg.Jitter <= 0 {
		i.next.Handle(p)
		return
	}
	out := i.eng.Now().Add(time.Duration(i.rng.Float64() * float64(i.cfg.Jitter)))
	if out < i.lastOut {
		if i.cfg.Reorder {
			i.Stats.Reordered++
		} else {
			out = i.lastOut
		}
	}
	if out > i.lastOut {
		i.lastOut = out
	}
	if i.cfg.Reorder {
		i.eng.ScheduleCallAt(out, i.deliver, p)
		return
	}
	i.inFlight.ScheduleAt(out, p)
}

// drop runs the drop callback and recycles the packet.
func (i *Impairer) drop(p *packet.Packet) {
	if i.onDrop != nil {
		i.onDrop(p)
	}
	i.pool.Put(p)
}
