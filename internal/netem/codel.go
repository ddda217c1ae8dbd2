package netem

import (
	"math"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// CoDel default parameters from RFC 8289.
const (
	CoDelTarget   = 5 * time.Millisecond
	CoDelInterval = 100 * time.Millisecond
)

// CoDel is the Controlled Delay AQM (RFC 8289) over a byte-limited FIFO.
// It drops at dequeue when the head packet's sojourn time has exceeded
// Target for at least Interval, then accelerates drops by sqrt(count).
// The paper lists AQM (specifically the CoDel family) as future work; it is
// included here so the contention experiments can be rerun without
// drop-tail's bufferbloat.
type CoDel struct {
	limit    units.ByteSize
	target   time.Duration
	interval time.Duration

	q          fifo
	onDrop     func(*packet.Packet)
	dropping   bool
	dropNext   sim.Time
	count      int
	lastCount  int
	firstAbove sim.Time

	// Drops counts packets dropped since creation.
	Drops int
}

// NewCoDel returns a CoDel queue with RFC-default target and interval and
// the given byte limit (0 = unlimited; overflow still drops like drop-tail).
func NewCoDel(limit units.ByteSize) *CoDel {
	return &CoDel{limit: limit, target: CoDelTarget, interval: CoDelInterval}
}

// Enqueue implements Queue.
func (c *CoDel) Enqueue(p *packet.Packet, now sim.Time) bool {
	if c.limit > 0 && c.q.bytes+units.ByteSize(p.Size) > c.limit {
		c.drop(p)
		return false
	}
	c.q.push(queued{p: p, at: now})
	return true
}

func (c *CoDel) drop(p *packet.Packet) {
	c.Drops++
	if c.onDrop != nil {
		c.onDrop(p)
	}
}

// shouldDrop updates the first-above-target tracking and reports whether the
// packet popped at now has been queued too long.
func (c *CoDel) shouldDrop(q queued, now sim.Time) bool {
	sojourn := now.Sub(q.at)
	if sojourn < c.target || c.q.bytes < packet.MTU {
		c.firstAbove = 0
		return false
	}
	if c.firstAbove == 0 {
		c.firstAbove = now.Add(c.interval)
		return false
	}
	return now >= c.firstAbove
}

// controlLaw returns the next drop time after t given the current count.
func (c *CoDel) controlLaw(t sim.Time) sim.Time {
	return t.Add(time.Duration(float64(c.interval) / math.Sqrt(float64(c.count))))
}

// Dequeue implements Queue, applying the CoDel state machine.
func (c *CoDel) Dequeue(now sim.Time) *packet.Packet {
	q, ok := c.q.pop()
	if !ok {
		c.dropping = false
		return nil
	}
	okToDrop := c.shouldDrop(q, now)
	if c.dropping {
		if !okToDrop {
			c.dropping = false
			return q.p
		}
		for now >= c.dropNext && c.dropping {
			c.drop(q.p)
			c.count++
			nq, ok := c.q.pop()
			if !ok {
				c.dropping = false
				return nil
			}
			q = nq
			if !c.shouldDrop(q, now) {
				c.dropping = false
				return q.p
			}
			c.dropNext = c.controlLaw(c.dropNext)
		}
		return q.p
	}
	if okToDrop && (now.Sub(c.dropNext) < c.interval || now.Sub(c.firstAbove) >= c.interval) {
		c.drop(q.p)
		nq, ok := c.q.pop()
		c.dropping = true
		// RFC 8289 hysteresis: resume from a higher count if we were
		// recently dropping.
		if now.Sub(c.dropNext) < c.interval && c.lastCount > 2 {
			c.count = c.lastCount - 2
		} else {
			c.count = 1
		}
		c.lastCount = c.count
		c.dropNext = c.controlLaw(now)
		if !ok {
			c.dropping = false
			return nil
		}
		return nq.p
	}
	return q.p
}

// Peek implements Queue.
func (c *CoDel) Peek() *packet.Packet {
	q, ok := c.q.peek()
	if !ok {
		return nil
	}
	return q.p
}

// HeadSojourn implements HeadSojourner.
func (c *CoDel) HeadSojourn(now sim.Time) (time.Duration, bool) {
	q, ok := c.q.peek()
	if !ok {
		return 0, false
	}
	return now.Sub(q.at), true
}

// Len implements Queue.
func (c *CoDel) Len() int { return c.q.len() }

// Bytes implements Queue.
func (c *CoDel) Bytes() units.ByteSize { return c.q.bytes }

// SetDropCallback implements Queue.
func (c *CoDel) SetDropCallback(fn func(*packet.Packet)) { c.onDrop = fn }

// FQCoDel approximates the FQ-CoDel scheduler (RFC 8290): packets hash by
// flow into per-flow CoDel queues served by deficit round robin, with
// new flows given priority for one quantum. This keeps a bulk TCP flow from
// starving the latency-sensitive game stream at the bottleneck.
type FQCoDel struct {
	limit   units.ByteSize
	quantum int

	flows  map[packet.FlowID]*fqFlow
	newQ   []*fqFlow
	oldQ   []*fqFlow
	bytes  units.ByteSize
	onDrop func(*packet.Packet)

	// Drops counts packets dropped since creation.
	Drops int
}

type fqFlow struct {
	id      packet.FlowID
	codel   *CoDel
	deficit int
	queued  bool // on newQ or oldQ
	isNew   bool
}

// NewFQCoDel returns an FQ-CoDel queue with total byte limit and an MTU
// quantum.
func NewFQCoDel(limit units.ByteSize) *FQCoDel {
	return &FQCoDel{
		limit:   limit,
		quantum: packet.MTU,
		flows:   make(map[packet.FlowID]*fqFlow),
	}
}

// Enqueue implements Queue.
func (f *FQCoDel) Enqueue(p *packet.Packet, now sim.Time) bool {
	if f.limit > 0 && f.bytes+units.ByteSize(p.Size) > f.limit {
		f.Drops++
		if f.onDrop != nil {
			f.onDrop(p)
		}
		return false
	}
	fl, ok := f.flows[p.Flow]
	if !ok {
		fl = &fqFlow{id: p.Flow, codel: NewCoDel(0)}
		fl.codel.SetDropCallback(func(dp *packet.Packet) {
			f.Drops++
			f.bytes -= units.ByteSize(dp.Size)
			if f.onDrop != nil {
				f.onDrop(dp)
			}
		})
		f.flows[p.Flow] = fl
	}
	fl.codel.Enqueue(p, now)
	f.bytes += units.ByteSize(p.Size)
	if !fl.queued {
		fl.queued = true
		fl.isNew = true
		fl.deficit = f.quantum
		f.newQ = append(f.newQ, fl)
	}
	return true
}

// Dequeue implements Queue, running one DRR scheduling decision.
func (f *FQCoDel) Dequeue(now sim.Time) *packet.Packet {
	for i := 0; i < 2*(len(f.newQ)+len(f.oldQ))+2; i++ {
		fl := f.head()
		if fl == nil {
			return nil
		}
		if fl.deficit <= 0 {
			fl.deficit += f.quantum
			f.rotateToOld(fl)
			continue
		}
		p := fl.codel.Dequeue(now)
		if p == nil {
			// Flow empty: a new flow moves to old (per RFC to prevent
			// starvation games); an old empty flow leaves the schedule.
			f.popHead(fl)
			continue
		}
		f.bytes -= units.ByteSize(p.Size)
		fl.deficit -= p.Size
		return p
	}
	return nil
}

func (f *FQCoDel) head() *fqFlow {
	if len(f.newQ) > 0 {
		return f.newQ[0]
	}
	if len(f.oldQ) > 0 {
		return f.oldQ[0]
	}
	return nil
}

func (f *FQCoDel) rotateToOld(fl *fqFlow) {
	if len(f.newQ) > 0 && f.newQ[0] == fl {
		f.newQ = f.newQ[1:]
	} else if len(f.oldQ) > 0 && f.oldQ[0] == fl {
		f.oldQ = f.oldQ[1:]
	}
	fl.isNew = false
	f.oldQ = append(f.oldQ, fl)
}

func (f *FQCoDel) popHead(fl *fqFlow) {
	if len(f.newQ) > 0 && f.newQ[0] == fl {
		f.newQ = f.newQ[1:]
		// Empty new flow becomes old if it may still receive packets;
		// since its queue is empty we simply deschedule it.
	} else if len(f.oldQ) > 0 && f.oldQ[0] == fl {
		f.oldQ = f.oldQ[1:]
	}
	fl.queued = false
}

// Peek implements Queue.
func (f *FQCoDel) Peek() *packet.Packet {
	if fl := f.head(); fl != nil {
		if p := fl.codel.Peek(); p != nil {
			return p
		}
		// Head flow may be empty pending a scheduling pass; scan others.
		for _, q := range append(append([]*fqFlow{}, f.newQ...), f.oldQ...) {
			if p := q.codel.Peek(); p != nil {
				return p
			}
		}
	}
	return nil
}

// Len implements Queue.
func (f *FQCoDel) Len() int {
	n := 0
	for _, fl := range f.flows {
		n += fl.codel.Len()
	}
	return n
}

// Bytes implements Queue.
func (f *FQCoDel) Bytes() units.ByteSize { return f.bytes }

// SetDropCallback implements Queue.
func (f *FQCoDel) SetDropCallback(fn func(*packet.Packet)) { f.onDrop = fn }
