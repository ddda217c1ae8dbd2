package gamestream

import (
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// clientRingSize is the initial frame-reassembly ring capacity. Frames are
// produced in id order and resolved (displayed, FEC-repaired, or expired)
// within the playout window, so the live span is a few dozen frames; the
// ring doubles in the pathological case where it is ever outgrown.
const clientRingSize = 256

// frameSlot is one ring entry tracking reassembly of one frame at the
// client. Slots live in a flat ring indexed by frame id; the id field is the
// generation tag that validates a hit, and resolved keeps the frame's fate
// visible to late fragments until the ring slides past it. Arrival
// bookkeeping is a bitset plus two counters and NACK pacing is a flat
// per-fragment timestamp array, so reassembly, duplicate suppression, and
// retransmission-request pacing are all O(1) per fragment with zero
// steady-state allocations and no map traffic.
type frameSlot struct {
	id       int64 // frame occupying this slot; -1 when never used
	resolved bool  // frame finished (displayed or dropped); id stays valid
	key      bool
	need     int // data fragment count
	parity   int
	gotData  int   // distinct data fragments received
	gotTotal int   // distinct fragments received (data + parity)
	seqBase  int64 // sequence number of fragment index 0
	sentAt   sim.Time
	gotBits  []uint64   // arrival bitset over need+parity fragment indices
	nackAt   []sim.Time // last retransmission request per data fragment; 0 = never
}

// slotArrays is one frame's pair of reassembly arrays, parked on the
// client's spare list while no frame uses it.
type slotArrays struct {
	gotBits []uint64
	nackAt  []sim.Time
}

func (fs *frameSlot) has(i int) bool { return fs.gotBits[i>>6]&(1<<(uint(i)&63)) != 0 }
func (fs *frameSlot) set(i int)      { fs.gotBits[i>>6] |= 1 << (uint(i) & 63) }

// FrameResult reports the fate of one frame to observers.
type FrameResult struct {
	FrameID   int64
	KeyFrame  bool
	Displayed bool
	At        sim.Time
}

// Client is the player-side half of a streaming session: it reassembles
// frames from fragments (using FEC parity when available), enforces the
// playout deadline, requests retransmissions, and sends periodic receiver
// reports that drive the server's rate controller. Its displayed-frame
// counter is the PresentMon equivalent in the paper's methodology.
type Client struct {
	host    *netem.Host
	eng     *sim.Engine
	flow    packet.FlowID
	peer    packet.Addr
	profile Profile

	// ring holds per-frame reassembly state keyed by frame id & ringMask
	// (see frameSlot). loID..maxID bounds the possibly-active id span the
	// feedback tick scans, advancing loID past the resolved prefix.
	ring     []frameSlot
	ringMask int64
	maxID    int64
	loID     int64
	// High-watermark capacities for the per-slot arrays (see initSlot).
	bitsCapHW int
	nackCapHW int
	// bitsArena/nackArena are carve-forward blocks backing fresh slot
	// arrays, and spare holds the arrays of resolved frames: finishFrame
	// parks a slot's arrays there and initSlot takes them back, so the
	// arrays in existence track the few dozen live frames rather than the
	// whole ring.
	bitsArena []uint64
	nackArena []sim.Time
	spare     []slotArrays

	ticker *sim.Ticker

	// Freelist and scratch buffers keeping the steady-state feedback path
	// allocation-free.
	fbPool     feedbackPool
	nackBuf    []int64
	expiredBuf []int64

	// Sequence-gap loss accounting.
	highestSeq int64
	haveSeq    bool
	winArrived int
	winBase    int64 // highestSeq at window start

	// Window accumulators for feedback.
	winBytes  units.ByteSize
	owdMin    time.Duration
	owdSum    time.Duration
	owdCount  int
	lastFback sim.Time

	// OnFrame, when set, observes every resolved frame.
	OnFrame func(FrameResult)

	// Counters for the harness.
	FramesDisplayed int64
	FramesDropped   int64
	FragmentsRecv   int64
	BytesRecv       int64
	FECRecovered    int64
	NackSent        int64
}

// NewClient creates a client for flow on host, reporting to peer.
func NewClient(host *netem.Host, flow packet.FlowID, peer packet.Addr, profile Profile) *Client {
	c := &Client{
		host:     host,
		eng:      host.Engine(),
		flow:     flow,
		peer:     peer,
		profile:  profile,
		ring:     make([]frameSlot, clientRingSize),
		spare:    make([]slotArrays, 0, clientRingSize),
		ringMask: clientRingSize - 1,
		maxID:    -1,
		owdMin:   -1,
	}
	for i := range c.ring {
		c.ring[i].id = -1
	}
	c.ticker = sim.NewTicker(c.eng, FeedbackInterval, c.feedbackTick)
	c.ticker.Start(false)
	host.Bind(flow, c)
	return c
}

// Handle implements packet.Handler, processing video fragments.
func (c *Client) Handle(p *packet.Packet) {
	if p.Kind != packet.KindFrame {
		return
	}
	info, ok := p.App.(*FrameInfo)
	if !ok {
		return
	}
	now := c.eng.Now()
	c.FragmentsRecv++
	c.BytesRecv += int64(p.Size)
	c.winBytes += units.ByteSize(p.Size)

	// One-way delay statistics (the simulator clock is global, so OWD is
	// exact — standing in for the paper's synchronised-capture analysis).
	owd := now.Sub(p.SentAt)
	if c.owdMin < 0 || owd < c.owdMin {
		c.owdMin = owd
	}
	c.owdSum += owd
	c.owdCount++

	// Sequence accounting (retransmissions reuse their original number
	// and do not advance the frontier).
	if !p.Retx {
		if !c.haveSeq {
			c.haveSeq = true
			c.highestSeq = p.Seq - 1
			c.winBase = p.Seq - 1
		}
		if p.Seq > c.highestSeq {
			c.highestSeq = p.Seq
		}
		c.winArrived++
	}

	fs := c.slotFor(info)
	if fs == nil {
		return // frame already resolved (or past the ring horizon)
	}
	idx := info.Index(p.Seq)
	if idx < 0 || idx >= fs.need+fs.parity || fs.has(idx) {
		return
	}
	fs.set(idx)
	fs.gotTotal++
	if idx < fs.need {
		fs.gotData++
	}

	// Any `need` of the need+parity fragments decode the frame
	// (idealised erasure code).
	if fs.gotTotal >= fs.need {
		usedParity := fs.gotData < fs.need
		deadline := fs.sentAt.Add(c.profile.PlayoutDelay)
		displayed := now <= deadline
		if displayed && usedParity {
			c.FECRecovered++
		}
		c.finishFrame(info.FrameID, fs, displayed, now)
	}
}

// slotFor returns the reassembly slot for info's frame, claiming and
// initialising a ring slot on first sight. It returns nil when the frame is
// already resolved — including frames the ring has slid past, which by
// construction expired long ago.
func (c *Client) slotFor(info *FrameInfo) *frameSlot {
	id := info.FrameID
	if id+int64(len(c.ring)) <= c.maxID {
		return nil
	}
	fs := &c.ring[id&c.ringMask]
	for fs.id != id {
		if fs.id >= 0 && !fs.resolved {
			// The previous occupant is still reassembling: the live window
			// outgrew the ring. Double it and re-probe.
			c.growRing()
			fs = &c.ring[id&c.ringMask]
			continue
		}
		c.initSlot(fs, info)
		if id > c.maxID {
			c.maxID = id
		}
		if id < c.loID {
			// First sight of a frame the feedback scan already passed
			// (out-of-order first arrival): pull the scan bound back so the
			// frame is still expired and counted.
			c.loID = id
		}
		return fs
	}
	if fs.resolved {
		return nil
	}
	return fs
}

// slotArenaChunk is how many high-watermark-sized slot arrays one arena
// block backs.
const slotArenaChunk = 64

// initSlot prepares fs for the frame described by info, taking a bitset
// and NACK-timestamp array pair off the spare list (zeroed here) or
// carving a fresh one. Arrays grow to the client-wide high-watermark, so
// once the largest frame shape has been seen every array reaches a stable
// capacity after at most one more growth and the client stops touching
// the allocator.
func (c *Client) initSlot(fs *frameSlot, info *FrameInfo) {
	if n := len(c.spare); n > 0 {
		fs.gotBits, fs.nackAt = c.spare[n-1].gotBits, c.spare[n-1].nackAt
		c.spare = c.spare[:n-1]
	}
	words := (info.Count + info.Parity + 63) / 64
	if words > c.bitsCapHW {
		c.bitsCapHW = roundPow2(words)
	}
	if cap(fs.gotBits) < words {
		if len(c.bitsArena) < c.bitsCapHW {
			c.bitsArena = make([]uint64, slotArenaChunk*c.bitsCapHW)
		}
		fs.gotBits = c.bitsArena[:words:c.bitsCapHW]
		c.bitsArena = c.bitsArena[c.bitsCapHW:]
	} else {
		fs.gotBits = fs.gotBits[:words]
		for i := range fs.gotBits {
			fs.gotBits[i] = 0
		}
	}
	if info.Count > c.nackCapHW {
		c.nackCapHW = roundPow2(info.Count)
	}
	if cap(fs.nackAt) < info.Count {
		if len(c.nackArena) < c.nackCapHW {
			c.nackArena = make([]sim.Time, slotArenaChunk*c.nackCapHW)
		}
		fs.nackAt = c.nackArena[:info.Count:c.nackCapHW]
		c.nackArena = c.nackArena[c.nackCapHW:]
	} else {
		fs.nackAt = fs.nackAt[:info.Count]
		for i := range fs.nackAt {
			fs.nackAt[i] = 0
		}
	}
	fs.id = info.FrameID
	fs.resolved = false
	fs.need = info.Count
	fs.parity = info.Parity
	fs.gotData = 0
	fs.gotTotal = 0
	fs.seqBase = info.SeqBase
	fs.sentAt = info.SentAt
	fs.key = info.KeyFrame
}

// roundPow2 returns the smallest power of two >= n.
func roundPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// growRing doubles the ring, re-seating every live slot at its new position.
func (c *Client) growRing() {
	old := c.ring
	ring := make([]frameSlot, 2*len(old))
	for i := range ring {
		ring[i].id = -1
	}
	mask := int64(len(ring) - 1)
	for i := range old {
		if old[i].id >= 0 {
			ring[old[i].id&mask] = old[i]
		}
	}
	c.ring = ring
	c.ringMask = mask
}

// finishFrame resolves a frame and parks its slot's arrays on the spare
// list: a resolved slot's arrays are never read again.
func (c *Client) finishFrame(id int64, fs *frameSlot, displayed bool, now sim.Time) {
	fs.resolved = true
	c.spare = append(c.spare, slotArrays{fs.gotBits, fs.nackAt})
	fs.gotBits, fs.nackAt = nil, nil
	if displayed {
		c.FramesDisplayed++
	} else {
		c.FramesDropped++
	}
	if c.OnFrame != nil {
		c.OnFrame(FrameResult{FrameID: id, KeyFrame: fs.key, Displayed: displayed, At: now})
	}
}

// feedbackTick expires overdue frames, assembles NACKs, and sends the
// receiver report. Scanning the ring in ascending frame-id order makes the
// expiry and NACK lists naturally sorted (fragment sequence numbers are
// monotone in frame id), where the old map-based path sorted them per tick.
func (c *Client) feedbackTick() {
	now := c.eng.Now()

	// Expire frames past their playout deadline.
	nack := c.nackBuf[:0]
	expired := c.expiredBuf[:0]
	contig := true // still walking the resolved prefix; loID may advance
	for id := c.loID; id <= c.maxID; id++ {
		fs := &c.ring[id&c.ringMask]
		if fs.id != id || fs.resolved {
			if contig {
				c.loID = id + 1
			}
			continue
		}
		contig = false
		deadline := fs.sentAt.Add(c.profile.PlayoutDelay)
		if now > deadline {
			expired = append(expired, id)
			continue
		}
		if c.profile.NACK {
			// Request missing data fragments still worth repairing; a
			// fragment is re-requested only after the previous request
			// has had time to be answered.
			missing := fs.need - fs.gotTotal
			if missing > 0 {
				for i := 0; i < fs.need && missing > 0; i++ {
					if fs.has(i) {
						continue
					}
					seq := fs.seqBase + int64(i)
					// Only gap-evidenced losses: a fragment not yet
					// overtaken by a later arrival may simply still be
					// in flight (or in the server's pacer).
					if seq >= c.highestSeq {
						continue
					}
					if last := fs.nackAt[i]; last != 0 && now.Sub(last) < nackRetryAfter {
						missing--
						continue
					}
					fs.nackAt[i] = now
					nack = append(nack, seq)
					missing--
				}
			}
		}
	}
	for _, id := range expired {
		c.finishFrame(id, &c.ring[id&c.ringMask], false, now)
	}
	if len(nack) > 0 {
		c.NackSent += int64(len(nack))
	}

	interval := now.Sub(c.lastFback)
	if c.lastFback == 0 {
		interval = FeedbackInterval
	}
	c.lastFback = now

	expectedPkts := int(c.highestSeq - c.winBase)
	lost := expectedPkts - c.winArrived
	if lost < 0 {
		lost = 0
	}
	var owdAvg time.Duration
	if c.owdCount > 0 {
		owdAvg = c.owdSum / time.Duration(c.owdCount)
	}
	fb := c.fbPool.get()
	fb.Interval = interval
	fb.RxRate = units.RateFromBytes(c.winBytes, interval)
	fb.ExpectedPkts = expectedPkts
	fb.LostPkts = lost
	fb.OWDMin = c.owdMin
	fb.OWDAvg = owdAvg
	fb.Nack = append(fb.Nack[:0], nack...)
	fb.Retain() // the on-wire reference, released by the packet pool
	p := c.host.NewPacket()
	p.Flow = c.flow
	p.Kind = packet.KindFeedback
	p.Dst = c.peer
	p.Size = FeedbackSize + 8*len(nack)
	p.App = fb
	c.host.Send(p)

	// Park the grown scratch buffers for the next tick, then reset the
	// window accumulators.
	c.nackBuf = nack[:0]
	c.expiredBuf = expired[:0]
	c.winBytes = 0
	c.winArrived = 0
	c.winBase = c.highestSeq
	c.owdMin = -1
	c.owdSum = 0
	c.owdCount = 0
}
