package netem

import (
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// Stats accumulates per-element forwarding counters.
type Stats struct {
	Packets int
	Bytes   units.ByteSize
	Drops   int
}

// Link models a store-and-forward link: packets serialise at Rate one at a
// time and then propagate for Delay. The internal buffer is unbounded — use
// a Shaper with a Queue where a bounded bottleneck is required. Packets are
// delivered in order: their delivery times never decrease, so they wait in
// one sim.Lane, and only the earliest holds a key in the engine's heap.
type Link struct {
	eng   *sim.Engine
	rate  units.Rate
	delay time.Duration
	next  packet.Handler

	busyUntil sim.Time
	inFlight  sim.Lane // packets serialised or propagating, in delivery order
	Stats     Stats
}

// NewLink returns a link serialising at rate with propagation delay d,
// delivering to next. A non-positive rate serialises instantaneously.
func NewLink(eng *sim.Engine, rate units.Rate, d time.Duration, next packet.Handler) *Link {
	l := &Link{eng: eng, rate: rate, delay: d, next: next}
	l.inFlight.Init(eng, func(x any) { l.next.Handle(x.(*packet.Packet)) })
	return l
}

// Handle implements packet.Handler.
func (l *Link) Handle(p *packet.Packet) {
	now := l.eng.Now()
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	done := start.Add(l.rate.TimeToTransmit(units.ByteSize(p.Size)))
	l.busyUntil = done
	l.Stats.Packets++
	l.Stats.Bytes += units.ByteSize(p.Size)
	l.inFlight.ScheduleAt(done.Add(l.delay), p)
}

// Delay forwards packets after a fixed delay, preserving order — the
// equivalent of `netem delay <d>`. With jitter configured it matches
// `netem delay <d> <jitter>`: per-packet delays vary uniformly in
// [d-jitter, d+jitter] but delivery order is still preserved (like netem
// with a rate-limited child qdisc, reordering is suppressed). Like netem's
// send-time-ordered queue, delayed packets wait in one sim.Lane.
type Delay struct {
	eng    *sim.Engine
	d      time.Duration
	next   packet.Handler
	jitter time.Duration
	rng    *sim.RNG
	// lastOut enforces in-order delivery under jitter and delay changes.
	lastOut  sim.Time
	inFlight sim.Lane
	Stats    Stats
}

// NewDelay returns a fixed-delay element delivering to next.
func NewDelay(eng *sim.Engine, d time.Duration, next packet.Handler) *Delay {
	de := &Delay{eng: eng, d: d, next: next}
	de.inFlight.Init(eng, func(x any) { de.next.Handle(x.(*packet.Packet)) })
	return de
}

// SetJitter enables uniform ± jitter around the base delay, drawn from rng.
func (d *Delay) SetJitter(jitter time.Duration, rng *sim.RNG) {
	d.jitter = jitter
	d.rng = rng
}

// Handle implements packet.Handler.
func (d *Delay) Handle(p *packet.Packet) {
	d.Stats.Packets++
	d.Stats.Bytes += units.ByteSize(p.Size)
	delay := d.d
	if d.jitter > 0 && d.rng != nil {
		delay += time.Duration((2*d.rng.Float64() - 1) * float64(d.jitter))
		if delay < 0 {
			delay = 0
		}
	}
	out := d.eng.Now().Add(delay)
	if out < d.lastOut {
		out = d.lastOut // preserve order
	}
	d.lastOut = out
	d.inFlight.ScheduleAt(out, p)
}

// SetDelay changes the delay for subsequently handled packets.
func (d *Delay) SetDelay(nd time.Duration) { d.d = nd }

// Shaper is a token-bucket filter with an attached queue: the software
// equivalent of `tc qdisc ... tbf rate R burst B limit L` (with the queue
// type swappable for AQM experiments). Tokens accrue at Rate up to Burst
// bytes; packets that cannot be sent immediately wait in the queue, whose
// policy decides drops.
type Shaper struct {
	eng   *sim.Engine
	rate  units.Rate
	burst units.ByteSize
	queue Queue
	next  packet.Handler

	tokens     float64 // bytes
	lastRefill sim.Time
	drainTimer *sim.Timer
	Stats      Stats

	// onEnqueue/onDequeue, when non-nil, observe packets entering and
	// leaving the attached queue (the probe layer's lifecycle taps). They
	// do not fire for packets that pass straight through on spare tokens —
	// those never touch the queue.
	onEnqueue func(*packet.Packet)
	onDequeue func(*packet.Packet)
}

// NewShaper returns a shaper emitting to next. Burst is clamped below at one
// MTU so a full-size packet can always eventually pass.
func NewShaper(eng *sim.Engine, rate units.Rate, burst units.ByteSize, q Queue, next packet.Handler) *Shaper {
	if burst < packet.MTU {
		burst = packet.MTU
	}
	s := &Shaper{
		eng:    eng,
		rate:   rate,
		burst:  burst,
		queue:  q,
		tokens: float64(burst),
		next:   next,
	}
	s.drainTimer = sim.NewTimer(eng, s.drain)
	return s
}

// Queue exposes the attached queue (e.g. for occupancy probes in tests).
func (s *Shaper) Queue() Queue { return s.queue }

// Rate returns the configured shaping rate.
func (s *Shaper) Rate() units.Rate { return s.rate }

// SetRate changes the shaping rate mid-run — `tc qdisc change ... tbf rate R`.
// Tokens already accrued at the old rate are kept (capped at the burst), and
// a pending drain is re-armed so a queued head packet waits the right time
// under the new rate. Non-positive rates are ignored.
func (s *Shaper) SetRate(r units.Rate) {
	if r <= 0 {
		return
	}
	s.refill() // account the elapsed interval at the old rate first
	s.rate = r
	s.drainTimer.Stop()
	s.armDrain()
}

// SetQueueTap registers observers for packets entering and leaving the
// attached queue. Either may be nil; unset taps cost one nil check per
// packet.
func (s *Shaper) SetQueueTap(onEnqueue, onDequeue func(*packet.Packet)) {
	s.onEnqueue = onEnqueue
	s.onDequeue = onDequeue
}

func (s *Shaper) refill() {
	now := s.eng.Now()
	elapsed := now.Sub(s.lastRefill)
	if elapsed > 0 {
		s.tokens += float64(s.rate) / 8 * elapsed.Seconds()
		if s.tokens > float64(s.burst) {
			s.tokens = float64(s.burst)
		}
	}
	s.lastRefill = now
}

// Handle implements packet.Handler.
func (s *Shaper) Handle(p *packet.Packet) {
	s.refill()
	if s.queue.Len() == 0 && s.tokens >= float64(p.Size) {
		s.emit(p)
		return
	}
	if s.queue.Enqueue(p, s.eng.Now()) {
		if s.onEnqueue != nil {
			s.onEnqueue(p)
		}
		s.armDrain()
	} else {
		s.Stats.Drops++
	}
}

func (s *Shaper) emit(p *packet.Packet) {
	s.tokens -= float64(p.Size)
	s.Stats.Packets++
	s.Stats.Bytes += units.ByteSize(p.Size)
	s.next.Handle(p)
}

func (s *Shaper) armDrain() {
	if s.drainTimer.Armed() {
		return
	}
	head := s.queue.Peek()
	if head == nil {
		return
	}
	need := float64(head.Size) - s.tokens
	var wait time.Duration
	if need > 0 {
		wait = time.Duration(need * 8 / float64(s.rate) * float64(time.Second))
		if wait <= 0 {
			wait = time.Nanosecond
		}
	}
	s.drainTimer.Reset(wait)
}

func (s *Shaper) drain() {
	s.refill()
	for {
		head := s.queue.Peek()
		if head == nil {
			return
		}
		if s.tokens < float64(head.Size) {
			break
		}
		p := s.queue.Dequeue(s.eng.Now())
		if p == nil {
			// AQM dropped the whole backlog during dequeue.
			return
		}
		if s.onDequeue != nil {
			s.onDequeue(p)
		}
		s.emit(p)
	}
	s.armDrain()
}

// maxDenseAddr bounds the Addr range served by the router's dense route
// table; scenario builders assign small consecutive addresses, so every
// route lands in the table and the map spill stays empty.
const maxDenseAddr = 1 << 10

// Router forwards packets by destination address through per-destination
// egress pipelines, with optional taps invoked on every forwarded packet
// (the simulator's Wireshark capture point).
type Router struct {
	// routes is a dense table indexed by Addr: per-packet forwarding is a
	// bounds check plus a slice load. Addresses at or above maxDenseAddr
	// (or negative) spill into routesHi.
	routes   []packet.Handler
	routesHi map[packet.Addr]packet.Handler
	taps     []func(*packet.Packet)
	Stats    Stats
}

// NewRouter returns an empty router.
func NewRouter() *Router {
	return &Router{}
}

// Route installs the egress pipeline for packets addressed to dst.
func (r *Router) Route(dst packet.Addr, next packet.Handler) {
	if dst >= 0 && dst < maxDenseAddr {
		if int(dst) >= len(r.routes) {
			nr := make([]packet.Handler, dst+1)
			copy(nr, r.routes)
			r.routes = nr
		}
		r.routes[dst] = next
		return
	}
	if r.routesHi == nil {
		r.routesHi = make(map[packet.Addr]packet.Handler)
	}
	r.routesHi[dst] = next
}

// Tap registers fn to observe every packet the router forwards.
func (r *Router) Tap(fn func(*packet.Packet)) {
	r.taps = append(r.taps, fn)
}

// Handle implements packet.Handler. Packets with no route are dropped and
// counted, which in a correctly wired scenario indicates a configuration
// bug; tests assert the drop counter stays zero.
func (r *Router) Handle(p *packet.Packet) {
	for _, tap := range r.taps {
		tap(p)
	}
	var next packet.Handler
	if d := p.Dst; d >= 0 && int(d) < len(r.routes) {
		next = r.routes[d]
	} else {
		next = r.routesHi[d]
	}
	if next == nil {
		r.Stats.Drops++
		return
	}
	r.Stats.Packets++
	r.Stats.Bytes += units.ByteSize(p.Size)
	next.Handle(p)
}

// maxDenseFlow bounds the FlowID range served by the hosts' dense dispatch
// tables; scenario builders assign small consecutive IDs, so in practice
// every flow lands in the table and the map spill stays empty.
const maxDenseFlow = 1 << 14

// Host is a network endpoint: applications register per-flow handlers for
// delivery and send packets via the host's first hop.
type Host struct {
	Addr packet.Addr

	eng *sim.Engine
	out packet.Handler
	// flows is a dense dispatch table indexed by FlowID: per-packet
	// dispatch is a bounds check plus a slice load, O(1) in the flow
	// population size. IDs at or above maxDenseFlow spill into flowsHi.
	flows    []packet.Handler
	flowsHi  map[packet.FlowID]packet.Handler
	fallback packet.Handler
	nextID   *uint64 // shared packet ID counter
	pool     *packet.Pool
}

// NewHost returns a host with address addr sending into out. ids is the
// shared packet-ID counter for the scenario.
func NewHost(eng *sim.Engine, addr packet.Addr, out packet.Handler, ids *uint64) *Host {
	return &Host{
		Addr:   addr,
		eng:    eng,
		out:    out,
		nextID: ids,
	}
}

// SetOut changes the host's first hop.
func (h *Host) SetOut(out packet.Handler) { h.out = out }

// SetPool attaches a per-run packet freelist. Endpoints on the host then
// allocate via NewPacket, and every packet the host delivers is recycled
// after its flow handler returns — handlers must copy what they need and
// must not retain the *Packet (or its App payload) past Handle. All hosts
// of one engine share one pool; a nil pool (the default) means packets are
// ordinary garbage-collected allocations.
func (h *Host) SetPool(p *packet.Pool) { h.pool = p }

// Pool returns the attached freelist, or nil.
func (h *Host) Pool() *packet.Pool { return h.pool }

// NewPacket returns a zeroed packet, reusing a recycled one when a pool is
// attached.
func (h *Host) NewPacket() *packet.Packet { return h.pool.Get() }

// Bind registers handler to receive packets for flow.
func (h *Host) Bind(flow packet.FlowID, handler packet.Handler) {
	if flow >= 0 && flow < maxDenseFlow {
		if int(flow) >= len(h.flows) {
			if int(flow) < cap(h.flows) {
				h.flows = h.flows[:flow+1]
			} else {
				// Grow geometrically: population flow IDs ascend one at
				// a time, and reallocating per new maximum would make
				// binding N flows O(N²).
				newCap := 2 * (int(flow) + 1)
				nf := make([]packet.Handler, flow+1, newCap)
				copy(nf, h.flows)
				h.flows = nf
			}
		}
		h.flows[flow] = handler
		return
	}
	if h.flowsHi == nil {
		h.flowsHi = make(map[packet.FlowID]packet.Handler)
	}
	h.flowsHi[flow] = handler
}

// BindFallback registers a handler for packets whose flow has no binding.
func (h *Host) BindFallback(handler packet.Handler) { h.fallback = handler }

// Handle implements packet.Handler, dispatching to the bound flow handler.
// The host is the end of a packet's life: once the handler returns, the
// packet is released to the pool (when one is attached).
func (h *Host) Handle(p *packet.Packet) {
	var hd packet.Handler
	if f := p.Flow; f >= 0 && int(f) < len(h.flows) {
		hd = h.flows[f]
	} else if h.flowsHi != nil {
		hd = h.flowsHi[p.Flow]
	}
	if hd != nil {
		hd.Handle(p)
	} else if h.fallback != nil {
		h.fallback.Handle(p)
	}
	h.pool.Put(p)
}

// Send stamps and transmits p via the host's first hop.
func (h *Host) Send(p *packet.Packet) {
	*h.nextID++
	p.ID = *h.nextID
	p.Src = h.Addr
	p.SentAt = h.eng.Now()
	h.out.Handle(p)
}

// Now returns the current simulation time, a convenience for applications
// holding only a host reference.
func (h *Host) Now() sim.Time { return h.eng.Now() }

// Engine returns the simulation engine driving this host.
func (h *Host) Engine() *sim.Engine { return h.eng }
