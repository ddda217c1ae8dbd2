package tcp

import (
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// RFC 6298 / Linux-flavoured retransmission timer bounds.
const (
	minRTO     = 200 * time.Millisecond
	maxRTO     = 60 * time.Second
	initialRTO = time.Second

	dupThresh = 3 // segments of SACK advance before a hole is declared lost

	// initialWindow is the IW10 initial congestion window (RFC 6928).
	initialWindow = 10
)

// seg is one in-flight segment on the sender's scoreboard, carrying the
// per-packet state for delivery-rate estimation.
type seg struct {
	seq           int64
	len           int64
	sentAt        sim.Time
	delivered     int64
	deliveredTime sim.Time
	firstSentTime sim.Time
	appLimited    bool
	retx          bool
	sacked        bool
	lost          bool
}

// ackMeta is the TCP option block attached to ACK packets (SACK ranges and
// the ECN echo flag).
type ackMeta struct {
	sack [][2]int64 // [start, end) byte ranges above the cumulative ACK
	ece  bool       // congestion experienced since the last ACK

	// sackBuf is the inline backing store for sack on pooled records: SACK
	// is capped at maxSackBlocks ranges per ACK, so the whole option block
	// is one allocation for the life of the pool record.
	sackBuf [maxSackBlocks][2]int64
	refs    int
	owner   *ackMetaPool
}

// Retain and Release implement packet.AppRef, so the packet pool recycles
// option blocks alongside the packets that carry them.
func (m *ackMeta) Retain() { m.refs++ }

func (m *ackMeta) Release() {
	m.refs--
	if m.refs < 0 {
		panic("tcp: ackMeta over-released")
	}
	if m.refs == 0 && m.owner != nil {
		m.owner.put(m)
	}
}

// ackMetaPool recycles ACK option blocks (and their SACK backing arrays)
// through the packet refcount protocol, so a lossy ACK stream — every ACK
// carrying SACK ranges — allocates nothing in steady state.
type ackMetaPool struct{ free []*ackMeta }

func (pl *ackMetaPool) get() *ackMeta {
	if n := len(pl.free); n > 0 {
		m := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		return m
	}
	m := &ackMeta{owner: pl}
	m.sack = m.sackBuf[:0]
	return m
}

func (pl *ackMetaPool) put(m *ackMeta) {
	m.sack = m.sack[:0]
	m.ece = false
	pl.free = append(pl.free, m)
}

// Stats holds sender-side counters exposed to the harness.
type Stats struct {
	BytesSent    int64
	BytesAcked   int64
	Retransmits  int
	RTOs         int
	LossEvents   int
	AckedPackets int
	ECNResponses int
}

// Sender is a TCP data sender: an unbounded (or byte-limited) source, a
// SACK scoreboard, loss detection and recovery, RTT/RTO estimation,
// delivery-rate sampling, and optional pacing, with the congestion window
// delegated to a CongestionControl.
type Sender struct {
	host *netem.Host
	eng  *sim.Engine
	flow packet.FlowID
	dst  packet.Addr
	cc   CongestionControl
	mss  int64

	running bool
	sndNxt  int64
	sndUna  int64
	// limit is the total payload bytes to send; 0 means unbounded.
	limit int64

	segs        []*seg
	segBase     []*seg   // full-capacity backing array of segs (see pushSeg)
	segFree     []*seg   // freelist of scoreboard records (per-sender, deterministic)
	segShared   *SegPool // optional shared freelist (population senders); overrides segFree
	pipeBytes   int64    // bytes considered in flight
	highSacked  int64    // highest sequence+len SACKed
	retxPending int      // segments marked lost awaiting retransmit

	// Delivery-rate estimation state (per the rate-sample algorithm used
	// by Linux/BBR).
	delivered     int64
	deliveredTime sim.Time
	firstSentTime sim.Time
	appLimitedSeq int64 // delivered-marker below which samples are app-limited

	srtt, rttvar, rto time.Duration
	minRTT            time.Duration
	rtoTimer          sim.Timer
	backoff           uint

	inRecovery  bool
	recoveryEnd int64

	// ECN state: when enabled, data is sent ECN-capable and ECE echoes
	// trigger a once-per-RTT congestion response without retransmission.
	ecn          bool
	ecnNextReact sim.Time

	roundTrips         int64
	nextRoundDelivered int64

	// rackTime is the transmit time of the most recently sent segment
	// known delivered, for RACK-style loss detection (catches lost
	// retransmissions without waiting for an RTO).
	rackTime sim.Time

	paceNext  sim.Time
	paceTimer sim.Timer

	// lastRate retains the most recent valid delivery-rate sample so
	// interval-based probes can read it between ACKs.
	lastRate units.Rate

	// ackObs, when non-nil, observes every AckSample handed to the
	// congestion controller (the probe layer's per-ACK sampling hook).
	ackObs func(AckSample)

	// Stats accumulates counters for the harness.
	Stats Stats
}

// NewSender creates a sender on host for the given flow, destined for dst,
// governed by cc. The sender binds itself to the host for ACK delivery.
func NewSender(host *netem.Host, flow packet.FlowID, dst packet.Addr, cc CongestionControl) *Sender {
	s := &Sender{}
	s.Init(host, flow, dst, cc)
	return s
}

// senderRTO and senderTrySend are the shared timer dispatch shims: every
// Sender's timers carry the same two package-level functions plus the
// sender itself as the argument, so arming a value-embedded sender's timers
// never allocates a closure or method value.
func senderRTO(a any)     { a.(*Sender).onRTO() }
func senderTrySend(a any) { a.(*Sender).trySend() }

// Init prepares a zero-value Sender in place — the value-embedding
// construction path for flow populations, where hundreds of senders live
// inside one backing array and construction must not allocate per slot.
// Like NewSender, it binds the sender to the host for ACK delivery. A
// Sender must be Init'ed exactly once, before any use, and (like its
// timers) must not be copied afterwards.
func (s *Sender) Init(host *netem.Host, flow packet.FlowID, dst packet.Addr, cc CongestionControl) {
	s.host = host
	s.eng = host.Engine()
	s.flow = flow
	s.dst = dst
	s.cc = cc
	s.mss = packet.MSS
	s.rto = initialRTO
	s.minRTT = -1
	s.rtoTimer.InitCall(s.eng, senderRTO, s)
	s.paceTimer.InitCall(s.eng, senderTrySend, s)
	cc.Init(s.mss)
	host.Bind(flow, s)
}

// EnableECN marks outgoing data ECN-capable (RFC 3168). ECE echoes from
// the receiver then cut the congestion window like a loss event, but
// without retransmissions — pair with an ECN-enabled CoDel bottleneck.
func (s *Sender) EnableECN() { s.ecn = true }

// SetLimit bounds the total payload bytes this sender will transmit.
func (s *Sender) SetLimit(n int64) { s.limit = n }

// Enqueue adds n more payload bytes to the send limit — the application
// write path for request/response workloads (e.g. a video server pushing
// one segment at a time). A sender created without a limit is an unbounded
// source and ignores Enqueue.
func (s *Sender) Enqueue(n int64) {
	if n <= 0 || s.limit == 0 {
		return
	}
	s.limit += n
	if s.running {
		s.trySend()
	}
}

// Outstanding returns payload bytes accepted from the application but not
// yet acknowledged (0 for unbounded senders).
func (s *Sender) Outstanding() int64 {
	if s.limit == 0 {
		return 0
	}
	return s.limit - s.sndUna
}

// Start begins transmitting.
func (s *Sender) Start() {
	s.running = true
	s.trySend()
}

// StopSending halts new transmissions; in-flight data drains normally and
// remains subject to retransmission until acknowledged.
func (s *Sender) StopSending() {
	s.running = false
}

// CC returns the congestion controller, for state inspection by tests and
// the harness.
func (s *Sender) CC() CongestionControl { return s.cc }

// Reset rearms the sender as a fresh connection on the same flow and host
// binding, governed by a new congestion controller (nil re-initialises the
// current one in place, the allocation-free path when the algorithm does
// not change) — the slot-reuse path for N-flow populations, where one
// Sender serves many short connection lifetimes without reallocating its
// scoreboard or timers. The sequence space continues from sndNxt rather
// than restarting at zero, so a stray ACK from the previous lifetime still
// in flight satisfies Ack <= sndUna and is absorbed as a no-op instead of
// corrupting the new connection. Cumulative Stats are retained; the RTT
// estimator, rate sampler, and recovery state start over.
func (s *Sender) Reset(cc CongestionControl) {
	s.running = false
	s.rtoTimer.Stop()
	s.paceTimer.Stop()
	for i, sg := range s.segs {
		s.segs[i] = nil
		s.freeSeg(sg)
	}
	if len(s.segBase) > 0 {
		s.segs = s.segBase[:0]
	} else {
		s.segs = s.segs[:0]
	}
	s.sndUna = s.sndNxt
	s.limit = 0
	s.pipeBytes = 0
	s.highSacked = s.sndNxt
	s.retxPending = 0
	s.appLimitedSeq = 0
	s.nextRoundDelivered = s.delivered
	s.roundTrips = 0
	s.srtt, s.rttvar = 0, 0
	s.rto = initialRTO
	s.minRTT = -1
	s.backoff = 0
	s.inRecovery = false
	s.recoveryEnd = 0
	s.ecnNextReact = 0
	s.rackTime = 0
	s.paceNext = 0
	s.lastRate = 0
	if cc != nil {
		s.cc = cc
	}
	s.cc.Init(s.mss)
}

// SndNxt returns the next sequence number to be sent — after Reset, the
// base of the new connection's sequence space (for Receiver.ResetAt).
func (s *Sender) SndNxt() int64 { return s.sndNxt }

// SRTT returns the smoothed RTT estimate.
func (s *Sender) SRTT() time.Duration { return s.srtt }

// RTTVar returns the RTT variance estimate (RFC 6298).
func (s *Sender) RTTVar() time.Duration { return s.rttvar }

// MinRTT returns the connection's lifetime minimum RTT (-1 before any
// sample).
func (s *Sender) MinRTT() time.Duration { return s.minRTT }

// Delivered returns the connection's total delivered bytes.
func (s *Sender) Delivered() int64 { return s.delivered }

// DeliveryRate returns the most recent valid delivery-rate sample (0 before
// the first one).
func (s *Sender) DeliveryRate() units.Rate { return s.lastRate }

// InRecovery reports whether the sender is in loss recovery.
func (s *Sender) InRecovery() bool { return s.inRecovery }

// SetAckObserver registers fn to observe every AckSample handed to the
// congestion controller, after the controller has processed it. One
// observer at most; nil disables. The hook costs a nil check per ACK when
// unset, so leaving it unwired has no measurable overhead.
func (s *Sender) SetAckObserver(fn func(AckSample)) { s.ackObs = fn }

// Inflight returns the bytes currently considered in flight.
func (s *Sender) Inflight() int64 { return s.pipeBytes }

// dataAvail reports whether new payload remains to send.
func (s *Sender) dataAvail() bool {
	if !s.running {
		return false
	}
	return s.limit == 0 || s.sndNxt < s.limit
}

// nextSegLen returns the payload size for the next new segment.
func (s *Sender) nextSegLen() int64 {
	n := s.mss
	if s.limit > 0 && s.limit-s.sndNxt < n {
		n = s.limit - s.sndNxt
	}
	return n
}

// trySend transmits retransmissions first, then new data, subject to the
// congestion window and (if the controller requests it) pacing.
func (s *Sender) trySend() {
	for {
		wantRetx := s.retxPending > 0
		if !wantRetx && !s.dataAvail() {
			s.markAppLimited()
			return
		}
		if !wantRetx && s.pipeBytes+s.nextSegLen() > s.cc.CwndBytes() {
			return
		}
		if wantRetx && s.pipeBytes >= s.cc.CwndBytes() && s.pipeBytes > 0 {
			// Even retransmits respect the window, except that a
			// silent pipe may always retransmit one segment.
			return
		}
		if pr := s.cc.PacingRate(); pr > 0 {
			now := s.eng.Now()
			if now < s.paceNext {
				s.paceTimer.Reset(s.paceNext.Sub(now))
				return
			}
		}
		if wantRetx {
			s.retransmitOne()
		} else {
			s.sendNew()
		}
	}
}

// markAppLimited records that the sender ran out of data with window to
// spare, so subsequent rate samples must not drag down max filters.
func (s *Sender) markAppLimited() {
	if s.pipeBytes < s.cc.CwndBytes() {
		marker := s.delivered + s.pipeBytes
		if marker > s.appLimitedSeq {
			s.appLimitedSeq = marker
		}
	}
}

func (s *Sender) paceAfter(bytes int64) {
	pr := s.cc.PacingRate()
	if pr <= 0 {
		return
	}
	interval := pr.TimeToTransmit(units.ByteSize(bytes))
	now := s.eng.Now()
	if s.paceNext < now {
		s.paceNext = now
	}
	s.paceNext = s.paceNext.Add(interval)
}

// segBlock is how many scoreboard records a freelist miss allocates at
// once: records are only ever needed in window-sized bursts, so block
// allocation divides the miss cost without changing peak memory much.
const segBlock = 16

// SegPool is a shared scoreboard-record freelist. Senders that share one
// bottleneck (an N-flow population's slots) attach the same pool via
// SetSegPool, so the records in circulation are bounded by the total
// in-flight window across the population rather than by per-sender
// high-water marks — a 200-sender population warms up one freelist, not
// two hundred. Get/put order is deterministic (the engine is
// single-goroutine), so sharing never perturbs run output.
type SegPool struct {
	free []*seg
	// boards is a carve-forward arena handing pool-attached senders their
	// initial scoreboard backing, so a population's 200 scoreboards cost a
	// few chunk allocations instead of a geometric-growth ladder each.
	boards []*seg
}

// boardCap is the initial scoreboard capacity carved for pool-attached
// senders: enough for a full BDP worth of in-flight segments on the
// shared-bottleneck scenarios populations model, so pushSeg's growth
// path is reserved for genuinely window-heavy flows.
const boardCap = 64

// boardChunk is how many boards one arena block holds.
const boardChunk = 32

func (p *SegPool) board() []*seg {
	if len(p.boards) < boardCap {
		p.boards = make([]*seg, boardChunk*boardCap)
	}
	b := p.boards[:boardCap:boardCap]
	p.boards = p.boards[boardCap:]
	return b
}

// get returns a zeroed record, replenishing a block at a time on miss.
func (p *SegPool) get() *seg {
	if len(p.free) == 0 {
		block := make([]seg, segBlock)
		for i := range block {
			p.free = append(p.free, &block[i])
		}
	}
	n := len(p.free)
	sg := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	*sg = seg{}
	return sg
}

func (p *SegPool) put(sg *seg) { p.free = append(p.free, sg) }

// SetSegPool attaches a shared scoreboard-record freelist, replacing the
// sender's private one. Call before the first transmission; records from
// the private freelist are handed to the shared pool so none strand.
func (s *Sender) SetSegPool(p *SegPool) {
	p.free = append(p.free, s.segFree...)
	s.segFree = nil
	s.segShared = p
	if cap(s.segs) == 0 && len(s.segBase) == 0 {
		b := p.board()
		s.segBase = b
		s.segs = b[:0]
	}
}

// newSeg returns a zeroed scoreboard record, reusing a retired one when
// available and replenishing the freelist a block at a time otherwise.
func (s *Sender) newSeg() *seg {
	if s.segShared != nil {
		return s.segShared.get()
	}
	if len(s.segFree) == 0 {
		block := make([]seg, segBlock)
		for i := range block {
			s.segFree = append(s.segFree, &block[i])
		}
	}
	n := len(s.segFree)
	sg := s.segFree[n-1]
	s.segFree[n-1] = nil
	s.segFree = s.segFree[:n-1]
	*sg = seg{}
	return sg
}

// freeSeg retires a scoreboard record to whichever freelist the sender
// draws from.
func (s *Sender) freeSeg(sg *seg) {
	if s.segShared != nil {
		s.segShared.put(sg)
		return
	}
	s.segFree = append(s.segFree, sg)
}

// pushSeg appends sg to the scoreboard. The scoreboard is a sliding
// window over a stable backing array (segBase): cumulative ACKs advance
// the front by re-slicing, and pushSeg reclaims the dead front space by
// compacting in place once at least half the array is dead. Compacting
// no more often than every len(segs) pops keeps the amortised cost O(1)
// and means the steady-state data path never reallocates the scoreboard,
// however many segments pass through the connection.
func (s *Sender) pushSeg(sg *seg) {
	if len(s.segs) == cap(s.segs) {
		dead := len(s.segBase) - cap(s.segs)
		if dead > 0 && dead >= len(s.segs) {
			n := copy(s.segBase, s.segs)
			for i := n; i < n+dead; i++ {
				s.segBase[i] = nil
			}
			s.segs = s.segBase[:n]
		} else {
			grown := make([]*seg, len(s.segs), 2*len(s.segBase)+8)
			copy(grown, s.segs)
			s.segs = grown
			s.segBase = grown[:cap(grown)]
		}
	}
	s.segs = append(s.segs, sg)
}

func (s *Sender) sendNew() {
	n := s.nextSegLen()
	now := s.eng.Now()
	if s.pipeBytes == 0 {
		s.firstSentTime = now
		s.deliveredTime = now
	}
	sg := s.newSeg()
	*sg = seg{
		seq:           s.sndNxt,
		len:           n,
		sentAt:        now,
		delivered:     s.delivered,
		deliveredTime: s.deliveredTime,
		firstSentTime: s.firstSentTime,
		appLimited:    s.delivered < s.appLimitedSeq,
	}
	s.firstSentTime = now
	s.pushSeg(sg)
	s.sndNxt += n
	s.pipeBytes += n
	s.transmit(sg)
}

func (s *Sender) retransmitOne() {
	for _, sg := range s.segs {
		if sg.lost {
			sg.lost = false
			sg.retx = true
			now := s.eng.Now()
			sg.sentAt = now
			sg.delivered = s.delivered
			sg.deliveredTime = s.deliveredTime
			sg.firstSentTime = now
			s.retxPending--
			s.pipeBytes += sg.len
			s.Stats.Retransmits++
			s.transmit(sg)
			return
		}
	}
	// Scoreboard out of sync; repair the counter.
	s.retxPending = 0
}

func (s *Sender) transmit(sg *seg) {
	p := s.host.NewPacket()
	p.Flow = s.flow
	p.Kind = packet.KindData
	p.Dst = s.dst
	p.Seq = sg.seq
	p.Payload = int(sg.len)
	p.Size = int(sg.len) + packet.EthIPOverhead + packet.TCPHeader + 12 // TS option
	p.ECT = s.ecn
	p.Retx = sg.retx
	s.Stats.BytesSent += sg.len
	s.host.Send(p)
	s.paceAfter(sg.len + packet.EthIPOverhead + packet.TCPHeader + 12)
	if !s.rtoTimer.Armed() {
		s.rtoTimer.Reset(s.curRTO())
	}
}

func (s *Sender) curRTO() time.Duration {
	d := s.rto << s.backoff
	if s.rto > 0 && d/s.rto != 1<<s.backoff {
		d = maxRTO // overflow guard
	}
	if d > maxRTO {
		d = maxRTO
	}
	return d
}

// Handle implements packet.Handler, processing ACKs.
func (s *Sender) Handle(p *packet.Packet) {
	if p.Kind != packet.KindAck {
		return
	}
	now := s.eng.Now()
	s.Stats.AckedPackets++

	// ECN congestion response: at most once per SRTT.
	if meta, ok := p.App.(*ackMeta); ok && meta.ece && s.ecn && now >= s.ecnNextReact {
		hold := s.srtt
		if hold < 10*time.Millisecond {
			hold = 10 * time.Millisecond
		}
		s.ecnNextReact = now.Add(hold)
		s.Stats.ECNResponses++
		s.cc.OnLoss(now, s.pipeBytes)
	}

	var newlyDelivered int64
	// sample is a copy of the most recently sent delivered segment's state;
	// a copy rather than a pointer because cumulatively ACKed segments are
	// released to the freelist below and may be reused before the rate
	// sample is taken.
	var sample seg
	haveSample := false

	// Cumulative ACK advance.
	if p.Ack > s.sndUna {
		for len(s.segs) > 0 {
			sg := s.segs[0]
			if sg.seq+sg.len > p.Ack {
				break
			}
			if !sg.sacked {
				newlyDelivered += sg.len
				if !sg.lost {
					s.pipeBytes -= sg.len
				} else {
					s.retxPending--
				}
				s.accountDelivered(sg, now)
			}
			if !haveSample || sg.delivered > sample.delivered {
				sample = *sg
				haveSample = true
			}
			s.segs[0] = nil
			s.segs = s.segs[1:]
			s.freeSeg(sg)
		}
		if len(s.segs) == 0 && len(s.segBase) > 0 {
			s.segs = s.segBase[:0]
		}
		s.Stats.BytesAcked += p.Ack - s.sndUna
		s.sndUna = p.Ack
		s.backoff = 0
	}

	// SACK processing.
	if meta, ok := p.App.(*ackMeta); ok {
		for _, blk := range meta.sack {
			for _, sg := range s.segs {
				if sg.sacked || sg.seq < blk[0] {
					continue
				}
				if sg.seq+sg.len > blk[1] {
					break
				}
				sg.sacked = true
				newlyDelivered += sg.len
				if sg.lost {
					sg.lost = false
					s.retxPending--
				} else {
					s.pipeBytes -= sg.len
				}
				s.accountDelivered(sg, now)
				if end := sg.seq + sg.len; end > s.highSacked {
					s.highSacked = end
				}
				if !haveSample || sg.delivered > sample.delivered {
					sample = *sg
					haveSample = true
				}
			}
		}
	}

	// RTT from the timestamp echo (valid for retransmits too, since the
	// receiver echoes the arriving segment's own transmit timestamp).
	var rtt time.Duration
	if p.EchoTS > 0 {
		rtt = now.Sub(p.EchoTS)
		if rtt > 0 {
			s.updateRTT(rtt)
		}
	}

	// Loss detection. Two rules, as in Linux v5.4:
	//  - SACK: a hole is lost once the SACK frontier is dupThresh
	//    segments beyond it (first transmissions only);
	//  - RACK: any segment (retransmissions included) sent a reordering
	//    window before the most recently delivered segment is lost.
	reoWnd := s.srtt / 4
	if reoWnd < time.Millisecond {
		reoWnd = time.Millisecond
	}
	lossDetected := false
	for _, sg := range s.segs {
		if sg.sacked || sg.lost {
			continue
		}
		sackLost := !sg.retx && sg.seq+dupThresh*s.mss <= s.highSacked
		rackLost := s.rackTime > 0 && sg.sentAt.Add(reoWnd) < s.rackTime
		if sackLost || rackLost {
			sg.lost = true
			s.pipeBytes -= sg.len
			s.retxPending++
			lossDetected = true
		}
	}
	if lossDetected && !s.inRecovery {
		s.inRecovery = true
		s.recoveryEnd = s.sndNxt
		s.Stats.LossEvents++
		s.cc.OnLoss(now, s.pipeBytes)
	}
	if s.inRecovery && s.sndUna >= s.recoveryEnd {
		s.inRecovery = false
		s.cc.OnExitRecovery(now)
	}

	// Delivery-rate sample from the most recently sent delivered segment.
	var rateSample units.Rate
	rateAppLimited := false
	if haveSample && newlyDelivered > 0 {
		sendElapsed := sample.sentAt.Sub(sample.firstSentTime)
		ackElapsed := now.Sub(sample.deliveredTime)
		interval := sendElapsed
		if ackElapsed > interval {
			interval = ackElapsed
		}
		// Discard samples measured over less than the path min-RTT:
		// they arise from ACK compression and spurious-retransmission
		// bursts and would wildly overestimate bandwidth (same guard as
		// Linux's rate sampler).
		if interval > 0 && (s.minRTT <= 0 || interval >= s.minRTT) {
			rateSample = units.RateFromBytes(units.ByteSize(s.delivered-sample.delivered), interval)
		}
		rateAppLimited = sample.appLimited
		// Round accounting.
		if sample.delivered >= s.nextRoundDelivered {
			s.roundTrips++
			s.nextRoundDelivered = s.delivered
		}
	}

	if rateSample > 0 {
		s.lastRate = rateSample
	}
	if newlyDelivered > 0 || rtt > 0 {
		ack := AckSample{
			Now:            now,
			BytesAcked:     newlyDelivered,
			RTT:            rtt,
			MinRTT:         s.minRTT,
			SRTT:           s.srtt,
			Delivered:      s.delivered,
			DeliveryRate:   rateSample,
			RateAppLimited: rateAppLimited,
			Inflight:       s.pipeBytes,
			InRecovery:     s.inRecovery,
			RoundTrips:     s.roundTrips,
			MSS:            s.mss,
		}
		s.cc.OnAck(ack)
		if s.ackObs != nil {
			s.ackObs(ack)
		}
	}

	// Retransmission timer management.
	if s.pipeBytes > 0 || s.retxPending > 0 {
		if newlyDelivered > 0 {
			s.rtoTimer.Reset(s.curRTO())
		}
	} else if len(s.segs) == 0 {
		s.rtoTimer.Stop()
	}

	s.trySend()
}

// accountDelivered updates connection-level delivery state for a segment
// leaving the network.
func (s *Sender) accountDelivered(sg *seg, now sim.Time) {
	s.delivered += sg.len
	s.deliveredTime = now
	if sg.sentAt > s.firstSentTime {
		s.firstSentTime = sg.sentAt
	}
	if sg.sentAt > s.rackTime {
		s.rackTime = sg.sentAt
	}
}

func (s *Sender) updateRTT(rtt time.Duration) {
	if s.minRTT < 0 || rtt < s.minRTT {
		s.minRTT = rtt
	}
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		diff := s.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < minRTO {
		s.rto = minRTO
	}
	if s.rto > maxRTO {
		s.rto = maxRTO
	}
}

// onRTO fires when the retransmission timer expires: every outstanding
// segment is marked lost and recovery restarts from sndUna.
func (s *Sender) onRTO() {
	if len(s.segs) == 0 {
		return
	}
	now := s.eng.Now()
	s.Stats.RTOs++
	for _, sg := range s.segs {
		if sg.sacked || sg.lost {
			continue
		}
		sg.lost = true
		sg.retx = false
		s.pipeBytes -= sg.len
		s.retxPending++
	}
	s.inRecovery = true
	s.recoveryEnd = s.sndNxt
	s.backoff++
	s.cc.OnRTO(now, s.pipeBytes)
	s.rtoTimer.Reset(s.curRTO())
	// Pacing must not delay the recovery retransmit.
	s.paceNext = now
	s.trySend()
}
