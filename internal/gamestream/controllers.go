package gamestream

import (
	"time"

	"repro/internal/sim"
	"repro/internal/units"
)

// congestedWindow is how long after a backoff a controller still reports
// congestion (drives the encoder's congestion frame-rate cap).
const congestedWindow = 3 * time.Second

// backoffTracker gives controllers a shared Congested() implementation.
type backoffTracker struct {
	lastBackoff sim.Time
	everBacked  bool
}

func (b *backoffTracker) noteBackoff(now sim.Time) {
	b.lastBackoff = now
	b.everBacked = true
}

// Congested reports whether a backoff happened within congestedWindow.
func (b *backoffTracker) Congested(now sim.Time) bool {
	return b.everBacked && now.Sub(b.lastBackoff) < congestedWindow
}

// DelayGradientConfig parameterises the GCC-style controller.
type DelayGradientConfig struct {
	Min, Max units.Rate
	// Start is the initial target (defaults to Max).
	Start units.Rate
	// IncreaseFactor is the multiplicative probe per feedback interval
	// while the path looks clean (e.g. 1.015 = +1.5%).
	IncreaseFactor float64
	// InitThreshold is the initial queuing-delay overuse threshold. Like
	// GCC's adaptive gamma, the working threshold inflates toward the
	// observed delay when persistently exceeded (so the controller is not
	// starved by a queue a loss-based competitor holds full) and decays
	// back when conditions clear.
	InitThreshold time.Duration
	// MaxThreshold caps the adaptation: queuing delay beyond it always
	// counts as overuse, which is what makes the controller yield under
	// bufferbloat but not under moderate standing queues.
	MaxThreshold time.Duration
	// GainUp and GainDown are the per-second proportional adaptation
	// rates of the threshold (GCC draft k_u >> k_d).
	GainUp, GainDown float64
	// Beta scales the received rate on overuse backoff.
	Beta float64
	// LossThreshold is the window loss fraction beyond which the loss
	// branch cuts the rate (GCC uses 0.10).
	LossThreshold float64
	// HoldAfterBackoff suppresses probing after a backoff.
	HoldAfterBackoff time.Duration
	// AdditiveStep replaces multiplicative probing once the target is
	// within 10% of the link-capacity estimate learned at the last
	// backoff, mirroring GCC's near-convergence additive mode. Zero
	// disables the additive mode.
	AdditiveStep units.Rate
}

// DelayGradient is a Google-Congestion-Control-style controller: it
// estimates queuing delay from one-way delay samples, backs off
// multiplicatively on overuse (rising delay beyond a threshold) or heavy
// loss, and otherwise probes multiplicatively. This is the Stadia-profile
// mechanism: tolerant of shallow queues (it out-competes loss-based TCP
// there) but strongly averse to bufferbloat.
type DelayGradient struct {
	backoffTracker
	cfg      DelayGradientConfig
	target   units.Rate
	baseOWD  time.Duration
	prevQD   time.Duration
	holdTil  sim.Time
	linkCap  units.Rate    // capacity estimate learned at the last overuse
	gamma    time.Duration // adaptive overuse threshold
	lastSeen sim.Time
}

// NewDelayGradient returns a delay-gradient controller.
func NewDelayGradient(cfg DelayGradientConfig) *DelayGradient {
	start := cfg.Start
	if start == 0 {
		start = cfg.Max
	}
	return &DelayGradient{cfg: cfg, target: start, baseOWD: -1, gamma: cfg.InitThreshold}
}

// Name implements Controller.
func (d *DelayGradient) Name() string { return "delay-gradient" }

// Target implements Controller.
func (d *DelayGradient) Target() units.Rate { return d.target }

// Threshold returns the current adaptive overuse threshold (for tests).
func (d *DelayGradient) Threshold() time.Duration { return d.gamma }

// adaptiveThreshold is the GCC-style inflating delay threshold shared by
// the controllers: it rises quickly toward a persistently-exceeded queuing
// delay (so exogenous standing queues stop triggering) and decays slowly.
type adaptiveThreshold struct {
	gamma    time.Duration
	init     time.Duration
	max      time.Duration
	gainUp   float64
	gainDown float64
	lastSeen sim.Time
}

func newAdaptiveThreshold(init, max time.Duration, up, down float64) adaptiveThreshold {
	return adaptiveThreshold{gamma: init, init: init, max: max, gainUp: up, gainDown: down}
}

// observe updates gamma for the observed queuing delay and returns the
// threshold value in effect before the update.
func (a *adaptiveThreshold) observe(now sim.Time, qd time.Duration) time.Duration {
	prev := a.gamma
	dt := now.Sub(a.lastSeen).Seconds()
	a.lastSeen = now
	if dt <= 0 || dt > 1 {
		dt = 0.1
	}
	if qd > a.gamma {
		a.gamma += time.Duration(a.gainUp * dt * float64(qd-a.gamma))
	} else {
		a.gamma -= time.Duration(a.gainDown * dt * float64(a.gamma-qd))
	}
	if a.gamma < a.init {
		a.gamma = a.init
	}
	if a.gamma > a.max {
		a.gamma = a.max
	}
	return prev
}

func (d *DelayGradient) adaptThreshold(now sim.Time, qd time.Duration) {
	dt := now.Sub(d.lastSeen).Seconds()
	d.lastSeen = now
	if dt <= 0 || dt > 1 {
		dt = 0.1
	}
	if qd > d.gamma {
		d.gamma += time.Duration(d.cfg.GainUp * dt * float64(qd-d.gamma))
	} else {
		d.gamma -= time.Duration(d.cfg.GainDown * dt * float64(d.gamma-qd))
	}
	if d.gamma < d.cfg.InitThreshold {
		d.gamma = d.cfg.InitThreshold
	}
	if d.gamma > d.cfg.MaxThreshold {
		d.gamma = d.cfg.MaxThreshold
	}
}

// OnFeedback implements Controller.
func (d *DelayGradient) OnFeedback(now sim.Time, fb *Feedback) {
	if fb.OWDMin >= 0 && (d.baseOWD < 0 || fb.OWDMin < d.baseOWD) {
		d.baseOWD = fb.OWDMin
	}
	qd := time.Duration(0)
	if d.baseOWD >= 0 && fb.OWDAvg > d.baseOWD {
		qd = fb.OWDAvg - d.baseOWD
	}
	rising := qd > d.prevQD+time.Millisecond
	d.prevQD = qd

	loss := fb.LossFraction()
	overuse := qd > d.gamma+3*time.Millisecond && (rising || qd > d.gamma*3/2)
	d.adaptThreshold(now, qd)

	switch {
	case loss > d.cfg.LossThreshold:
		d.target = d.clamp(units.Rate(float64(d.target) * (1 - 0.5*loss)))
		d.noteBackoff(now)
		d.holdTil = now.Add(d.cfg.HoldAfterBackoff)
	case overuse:
		base := fb.RxRate
		if base <= 0 {
			base = d.target
		}
		d.linkCap = base
		next := d.clamp(base.Scale(d.cfg.Beta))
		if next < d.target {
			d.target = next
			d.noteBackoff(now)
			d.holdTil = now.Add(d.cfg.HoldAfterBackoff)
		}
	case now >= d.holdTil && loss < 0.02:
		if d.cfg.AdditiveStep > 0 && d.linkCap > 0 && d.target > d.linkCap.Scale(0.9) {
			// Near the learned capacity: probe gently (additive).
			d.target = d.clamp(d.target + d.cfg.AdditiveStep)
		} else {
			d.target = d.clamp(d.target.Scale(d.cfg.IncreaseFactor))
		}
	}
}

func (d *DelayGradient) clamp(r units.Rate) units.Rate {
	if r < d.cfg.Min {
		return d.cfg.Min
	}
	if r > d.cfg.Max {
		return d.cfg.Max
	}
	return r
}

// ConservativeConfig parameterises the headroom-tracking controller.
type ConservativeConfig struct {
	Min, Max units.Rate
	Start    units.Rate
	// Headroom scales the received-rate estimate when constrained; the
	// target settles below the fair share by design.
	Headroom float64
	// LossThreshold and DelayThreshold define "constrained".
	LossThreshold  float64
	DelayThreshold time.Duration
	// CleanBeforeRamp is how long the path must look clean before the
	// target ramps back up.
	CleanBeforeRamp time.Duration
	// RampPerSec is the additive recovery rate.
	RampPerSec units.Rate
	// DescentPerSec bounds how fast the target falls toward the
	// constrained level (0 = immediately). A slow descent reproduces
	// GeForce's measured sluggish response to arriving flows.
	DescentPerSec units.Rate
}

// Conservative is a headroom-tracking controller: whenever the path shows
// any sign of constraint (loss or queuing delay), it sets its target to a
// fraction of the currently received rate, deliberately deferring to
// cross traffic; it ramps back linearly only after a sustained clean
// period. This is the GeForce-profile mechanism — the paper found GeForce
// always takes less than its fair share, more so against BBR.
type Conservative struct {
	backoffTracker
	cfg        ConservativeConfig
	target     units.Rate
	baseOWD    time.Duration
	cleanSince sim.Time
	haveClean  bool
}

// NewConservative returns a conservative headroom-tracking controller.
func NewConservative(cfg ConservativeConfig) *Conservative {
	start := cfg.Start
	if start == 0 {
		start = cfg.Max
	}
	return &Conservative{cfg: cfg, target: start, baseOWD: -1}
}

// Name implements Controller.
func (c *Conservative) Name() string { return "conservative" }

// Target implements Controller.
func (c *Conservative) Target() units.Rate { return c.target }

// OnFeedback implements Controller.
func (c *Conservative) OnFeedback(now sim.Time, fb *Feedback) {
	if fb.OWDMin >= 0 && (c.baseOWD < 0 || fb.OWDMin < c.baseOWD) {
		c.baseOWD = fb.OWDMin
	}
	qd := time.Duration(0)
	if c.baseOWD >= 0 && fb.OWDAvg > c.baseOWD {
		qd = fb.OWDAvg - c.baseOWD
	}
	constrained := fb.LossFraction() > c.cfg.LossThreshold || qd > c.cfg.DelayThreshold

	if constrained {
		c.haveClean = false
		base := fb.RxRate
		if base <= 0 {
			base = c.target
		}
		next := c.clamp(base.Scale(c.cfg.Headroom))
		if next < c.target {
			if c.cfg.DescentPerSec > 0 {
				step := units.Rate(float64(c.cfg.DescentPerSec) * fb.Interval.Seconds())
				if floor := c.target - step; next < floor {
					next = floor
				}
			}
			c.target = c.clamp(next)
			c.noteBackoff(now)
		}
		return
	}
	if !c.haveClean {
		c.haveClean = true
		c.cleanSince = now
		return
	}
	if now.Sub(c.cleanSince) >= c.cfg.CleanBeforeRamp {
		step := units.Rate(float64(c.cfg.RampPerSec) * fb.Interval.Seconds())
		c.target = c.clamp(c.target + step)
	}
}

func (c *Conservative) clamp(r units.Rate) units.Rate {
	if r < c.cfg.Min {
		return c.cfg.Min
	}
	if r > c.cfg.Max {
		return c.cfg.Max
	}
	return r
}

// LossAIMDConfig parameterises the loss-based controller.
type LossAIMDConfig struct {
	Min, Max units.Rate
	Start    units.Rate
	// Beta is the multiplicative decrease on a loss event.
	Beta float64
	// LossThreshold is the window loss fraction that makes a window count
	// as lossy.
	LossThreshold float64
	// PersistWindows is how many consecutive lossy windows constitute a
	// loss event. Isolated bursts (a competing Cubic flow's periodic
	// overflow) are tolerated; persistent loss (a competing BBR flow's
	// standing pressure) triggers cuts.
	PersistWindows int
	// EventDebounce merges loss reports into one event.
	EventDebounce time.Duration
	// GrowthPerSec is the multiplicative increase rate while clean
	// (e.g. 0.015 = +1.5%/s), applied per feedback interval.
	GrowthPerSec float64
	// DelayThreshold, when non-zero, also cuts (like a loss event) when
	// the estimated queuing delay persists above it — the latency guard a
	// cloud-gaming service needs even if its rate control is loss-driven.
	// The working threshold adapts upward under persistent exogenous
	// delay (to MaxDelayThreshold), so a competitor that parks a full
	// queue does not permanently starve the stream.
	DelayThreshold time.Duration
	// MaxDelayThreshold caps the adaptation (default 3x DelayThreshold).
	MaxDelayThreshold time.Duration
	// RxHeadroom, when non-zero, caps the target at RxHeadroom × the
	// latest received rate, so the encoder cannot run far ahead of
	// goodput and fill queues on its own (e.g. 1.1).
	RxHeadroom float64
}

// LossAIMD is a loss-signal AIMD controller at streaming timescales: it
// ignores delay entirely, cuts multiplicatively on loss events, and climbs
// back multiplicatively (slowly, in absolute terms, when starting from a
// deep cut). This is the Luna-profile mechanism — sharing on even terms
// with loss-based Cubic, but starved by BBR, whose queue occupation causes
// recurring overflow loss that BBR itself ignores; after a deep cut the
// multiplicative climb can exceed the paper's 170 s recovery window, the
// observed "Luna never recovers" case.
type LossAIMD struct {
	backoffTracker
	cfg       LossAIMDConfig
	target    units.Rate
	lastEvent sim.Time
	lossyRun  int
	delayRun  int
	baseOWD   time.Duration
	guard     adaptiveThreshold
}

// NewLossAIMD returns a loss-based AIMD controller.
func NewLossAIMD(cfg LossAIMDConfig) *LossAIMD {
	start := cfg.Start
	if start == 0 {
		start = cfg.Max
	}
	if cfg.PersistWindows <= 0 {
		cfg.PersistWindows = 1
	}
	l := &LossAIMD{cfg: cfg, target: start}
	if cfg.DelayThreshold > 0 {
		max := cfg.MaxDelayThreshold
		if max <= 0 {
			max = 3 * cfg.DelayThreshold
		}
		l.guard = newAdaptiveThreshold(cfg.DelayThreshold, max, 1.5, 0.01)
	}
	return l
}

// Name implements Controller.
func (l *LossAIMD) Name() string { return "loss-aimd" }

// Target implements Controller.
func (l *LossAIMD) Target() units.Rate { return l.target }

// OnFeedback implements Controller.
func (l *LossAIMD) OnFeedback(now sim.Time, fb *Feedback) {
	if fb.OWDMin >= 0 && (l.baseOWD <= 0 || fb.OWDMin < l.baseOWD) {
		l.baseOWD = fb.OWDMin
	}
	qd := time.Duration(0)
	if l.baseOWD > 0 && fb.OWDAvg > l.baseOWD {
		qd = fb.OWDAvg - l.baseOWD
	}

	cut := func() {
		if now.Sub(l.lastEvent) >= l.cfg.EventDebounce {
			l.lastEvent = now
			l.target = l.clamp(l.target.Scale(l.cfg.Beta))
			l.noteBackoff(now)
		}
	}

	if fb.LossFraction() > l.cfg.LossThreshold {
		l.lossyRun++
		if l.lossyRun >= l.cfg.PersistWindows {
			cut()
		}
		return
	}
	l.lossyRun = 0

	// Latency guard: persistent queuing delay beyond the (adaptive)
	// threshold also counts as congestion, even without loss.
	if l.cfg.DelayThreshold > 0 {
		thresh := l.guard.observe(now, qd)
		// Hysteresis: a sawtooth competitor whose delay peaks ride just
		// above the adapted threshold must not re-trigger every cycle.
		if qd > thresh+6*time.Millisecond {
			l.delayRun++
			if l.delayRun >= l.cfg.PersistWindows {
				cut()
			}
			return
		}
	}
	l.delayRun = 0

	growth := 1 + l.cfg.GrowthPerSec*fb.Interval.Seconds()
	next := l.target.Scale(growth)
	// Goodput ceiling: do not run far ahead of what is being received.
	if l.cfg.RxHeadroom > 0 && fb.RxRate > 0 {
		if cap := fb.RxRate.Scale(l.cfg.RxHeadroom); next > cap && cap > l.cfg.Min {
			next = cap
		}
	}
	if next > l.target {
		l.target = l.clamp(next)
	}
}

func (l *LossAIMD) clamp(r units.Rate) units.Rate {
	if r < l.cfg.Min {
		return l.cfg.Min
	}
	if r > l.cfg.Max {
		return l.cfg.Max
	}
	return r
}
