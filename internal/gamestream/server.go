package gamestream

import (
	"math"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// encRateSlew bounds how fast the encoder's operating bitrate moves toward
// the controller target, per second, as a fraction of the span (video
// encoders re-key their rate control smoothly rather than stepping).
const encRateSlew = 4.0

// nackRetain is how long transmitted fragments stay buffered for
// retransmission requests.
const nackRetain = time.Second

// paceGain is the fragment pacing rate relative to the encoder bitrate.
// Pacing spreads key-frame bursts over a few frame intervals instead of
// slamming the bottleneck queue — commercial streamers do the same.
const paceGain = 1.5

// Congestion-indicator parameters for the encoder frame-rate cap: the
// stream is "congested" if a recent feedback window carried noticeable
// loss, or the operating rate is starved relative to the encoder maximum.
const (
	congestionLossSignal = 0.015
	congestionRateFrac   = 0.45
)

// Server is the cloud-side half of a game-streaming session: it generates
// frames at the encoder frame rate, sizes them from the controller's target
// bitrate and the scripted-gameplay complexity process, packetises and
// (optionally) FEC-protects them, paces fragments onto the wire, and
// answers NACKs from its retransmit buffer. Profile rates are on-wire
// bitrates (what Wireshark would report), so FEC and header overhead are
// budgeted inside the encoder's frame sizing.
type Server struct {
	host    *netem.Host
	eng     *sim.Engine
	flow    packet.FlowID
	dst     packet.Addr
	profile Profile
	ctrl    Controller
	rng     *sim.RNG

	encRate    units.Rate // operating on-wire bitrate (slews toward target)
	fps        int
	complexity float64 // AR(1) scene-complexity state
	frameID    int64
	fragSeq    int64
	lastKey    sim.Time
	lastTick   sim.Time
	ticker     *sim.Ticker
	running    bool

	// fragQ is a head-indexed queue of paced fragments; popping advances
	// fragHead and the backing array is reused once drained, so steady
	// state pacing allocates nothing.
	fragQ     []pendingFrag
	fragHead  int
	paceNext  sim.Time
	paceTimer *sim.Timer

	lossyTimes []sim.Time // recent feedback windows with noticeable loss

	// retxRing is the retransmit buffer: a power-of-two ring of frame
	// descriptors keyed by fragment sequence number, each entry holding one
	// FrameInfo reference. Inserting a fragment evicts (and releases) the
	// slot's previous occupant, so the live entry count is bounded by the
	// ring size by construction; lookups additionally age-check against
	// nackRetain so a hit is never older than the map-based prune horizon.
	retxRing []retxSlot
	retxMask int64
	retxTail int64 // oldest fragment seq possibly still retained
	infoPool frameInfoPool

	// Stats counters for the harness.
	FramesSent    int64
	FragmentsSent int64
	BytesSent     int64
	Retransmits   int64
}

// pendingFrag is one queue entry awaiting pacing; info carries a counted
// reference that emit transfers to the outgoing packet.
type pendingFrag struct {
	seq  int64
	info *FrameInfo
	retx bool
}

// retxSlot is one retransmit-ring entry; seq is the generation tag that
// validates a lookup hit.
type retxSlot struct {
	seq  int64
	info *FrameInfo
}

// retxRingSize returns the retransmit ring capacity for a profile: enough
// slots that a fragment stays resident for several times nackRetain even at
// the encoder's maximum rate, so every NACK the client can still usefully
// send finds its descriptor before the ring slides past it.
func retxRingSize(p Profile) int {
	fragsPerSec := p.MaxRate.BytesPerSec() / FragmentPayload
	n := 4096
	for float64(n) < 4*fragsPerSec {
		n *= 2
	}
	return n
}

// NewServer creates a streaming server on host for flow, sending to dst,
// with the given behavioural profile. rng drives the workload process.
func NewServer(host *netem.Host, flow packet.FlowID, dst packet.Addr, profile Profile, rng *sim.RNG) *Server {
	s := &Server{
		host:       host,
		eng:        host.Engine(),
		flow:       flow,
		dst:        dst,
		profile:    profile,
		ctrl:       profile.NewController(),
		rng:        rng,
		encRate:    profile.MaxRate,
		fps:        profile.BaseFPS,
		complexity: 1,
		retxRing:   make([]retxSlot, retxRingSize(profile)),
	}
	s.retxMask = int64(len(s.retxRing) - 1)
	s.ticker = sim.NewTicker(s.eng, time.Second/time.Duration(s.fps), s.tick)
	s.paceTimer = sim.NewTimer(s.eng, s.drainFragQ)
	host.Bind(flow, s)
	return s
}

// Controller exposes the rate controller for probes and tests.
func (s *Server) Controller() Controller { return s.ctrl }

// EncoderRate returns the current operating on-wire bitrate.
func (s *Server) EncoderRate() units.Rate { return s.encRate }

// FPS returns the current encoder frame rate.
func (s *Server) FPS() int { return s.fps }

// Congested reports the congestion indicator driving the frame-rate cap:
// a persistent loss signal (two or more lossy feedback windows within the
// congestion window — a solo probe overshoot produces isolated ones) or a
// starved operating rate.
func (s *Server) Congested() bool {
	now := s.eng.Now()
	recent := 0
	for _, t := range s.lossyTimes {
		if now.Sub(t) < congestedWindow {
			recent++
		}
	}
	if recent >= 2 {
		return true
	}
	return s.encRate < s.profile.MaxRate.Scale(congestionRateFrac)
}

// Start begins streaming.
func (s *Server) Start() {
	if s.running {
		return
	}
	s.running = true
	s.lastTick = s.eng.Now()
	s.lastKey = s.eng.Now().Add(-KeyFrameInterval) // first frame is a key frame
	s.ticker.Start(true)
}

// Stop halts streaming and discards any paced backlog, releasing the
// backlog's frame-descriptor references.
func (s *Server) Stop() {
	s.running = false
	s.ticker.Stop()
	for i := s.fragHead; i < len(s.fragQ); i++ {
		s.fragQ[i].info.Release()
		s.fragQ[i] = pendingFrag{}
	}
	s.fragQ = s.fragQ[:0]
	s.fragHead = 0
}

// wireFactor converts video payload bytes to on-wire bytes: FEC parity plus
// per-fragment header overhead.
func (s *Server) wireFactor() float64 {
	return (1 + s.profile.FECRate) *
		float64(FragmentPayload+FragmentOverhead) / float64(FragmentPayload)
}

// tick emits one encoded frame.
func (s *Server) tick() {
	if !s.running {
		return
	}
	now := s.eng.Now()
	s.updateEncoder(now)

	// Scripted-gameplay workload: AR(1) complexity process, identical in
	// distribution across runs via the seeded RNG.
	draw := s.rng.NormClamped(1, s.profile.ComplexityStdDev, 0.55, 1.7)
	s.complexity = 0.85*s.complexity + 0.15*draw

	key := now.Sub(s.lastKey) >= KeyFrameInterval
	if key {
		s.lastKey = now
	}
	// Normalise P-frame sizes so the long-run mean bitrate matches the
	// encoder rate despite periodic 2x key frames.
	framesPerGOP := float64(s.fps) * KeyFrameInterval.Seconds()
	pScale := (framesPerGOP - KeyFrameScale) / (framesPerGOP - 1)
	scale := pScale
	if key {
		scale = KeyFrameScale
	}

	frameBytes := float64(s.encRate) / 8 / float64(s.fps) * s.complexity * scale / s.wireFactor()
	if frameBytes < FragmentPayload/2 {
		frameBytes = FragmentPayload / 2
	}
	s.sendFrame(now, int(frameBytes), key)
}

// updateEncoder slews the operating bitrate toward the controller target
// and applies the frame-rate ladder and congestion cap.
func (s *Server) updateEncoder(now sim.Time) {
	target := s.ctrl.Target()
	if target > s.profile.MaxRate {
		target = s.profile.MaxRate
	}
	if target < s.profile.MinRate {
		target = s.profile.MinRate
	}
	dt := now.Sub(s.lastTick).Seconds()
	s.lastTick = now
	maxStep := units.Rate(float64(s.profile.MaxRate) * encRateSlew * dt)
	switch {
	case target > s.encRate:
		s.encRate = minRate(s.encRate+maxStep, target)
	case target < s.encRate:
		s.encRate = maxRate(s.encRate-maxStep, target)
	}

	fps := s.profile.EncoderFPS(s.encRate)
	if cap := s.profile.CongestionFPSCap; cap > 0 && fps > cap && s.Congested() {
		fps = cap
	}
	if fps != s.fps && fps > 0 {
		s.fps = fps
		s.ticker.SetInterval(time.Second / time.Duration(fps))
	}
}

// sendFrame packetises one frame into data + parity fragments and hands
// them to the pacer.
func (s *Server) sendFrame(now sim.Time, frameBytes int, key bool) {
	count := (frameBytes + FragmentPayload - 1) / FragmentPayload
	if count < 1 {
		count = 1
	}
	parity := int(math.Ceil(float64(count) * s.profile.FECRate))
	s.FramesSent++
	id := s.frameID
	s.frameID++

	info := s.infoPool.get()
	info.FrameID = id
	info.Count = count
	info.Parity = parity
	info.KeyFrame = key
	info.SeqBase = s.fragSeq
	info.SentAt = now
	if rem := frameBytes - (count-1)*FragmentPayload; rem > 0 {
		info.LastSize = rem
	}
	for i := 0; i < count+parity; i++ {
		seq := s.fragSeq
		s.fragSeq++
		info.Retain()
		sl := &s.retxRing[seq&s.retxMask]
		if sl.info != nil {
			// The window slides: release the descriptor reference held by
			// the slot's previous (long-expired) occupant.
			sl.info.Release()
		}
		sl.seq = seq
		sl.info = info
		info.Retain()
		s.fragQ = append(s.fragQ, pendingFrag{seq: seq, info: info})
	}
	s.sweepRetx(now)
	s.drainFragQ()
}

// sweepRetx releases retransmit-ring references past the nackRetain horizon.
// Fragments enter the ring in sequence order, so age is monotone in seq and
// a tail cursor retires each entry exactly once: O(1) amortised per
// fragment, no scan. Lookups age-check independently, so the sweep only
// bounds how long frame descriptors wait to return to the pool.
func (s *Server) sweepRetx(now sim.Time) {
	for s.retxTail < s.fragSeq {
		sl := &s.retxRing[s.retxTail&s.retxMask]
		if sl.info != nil && sl.seq == s.retxTail {
			if now.Sub(sl.info.SentAt) <= nackRetain {
				return
			}
			sl.info.Release()
			sl.info = nil
		}
		s.retxTail++
	}
}

// drainFragQ emits queued fragments at the pacing rate.
func (s *Server) drainFragQ() {
	now := s.eng.Now()
	paceRate := maxRate(s.encRate.Scale(paceGain), units.Mbps(4))
	for s.fragHead < len(s.fragQ) {
		if now < s.paceNext {
			s.paceTimer.Reset(s.paceNext.Sub(now))
			return
		}
		f := s.fragQ[s.fragHead]
		s.fragQ[s.fragHead] = pendingFrag{}
		s.fragHead++
		if s.fragHead == len(s.fragQ) {
			s.fragQ = s.fragQ[:0]
			s.fragHead = 0
		}
		payload := f.info.PayloadAt(f.info.Index(f.seq))
		s.emit(f.seq, f.info, f.retx, payload)
		wire := units.ByteSize(payload + FragmentOverhead)
		if s.paceNext < now {
			s.paceNext = now
		}
		s.paceNext = s.paceNext.Add(paceRate.TimeToTransmit(wire))
	}
}

// emit puts one fragment on the wire. The caller's FrameInfo reference is
// transferred to the packet: the packet pool releases it when the fragment
// is finally consumed or dropped.
func (s *Server) emit(seq int64, info *FrameInfo, retx bool, payload int) {
	p := s.host.NewPacket()
	p.Flow = s.flow
	p.Kind = packet.KindFrame
	p.Dst = s.dst
	p.Seq = seq
	p.Payload = payload
	p.Size = payload + FragmentOverhead
	p.Retx = retx
	p.App = info
	s.FragmentsSent++
	s.BytesSent += int64(p.Size)
	s.host.Send(p)
}

// RetxLive reports how many retransmit-ring slots currently hold a frame
// descriptor reference. It is bounded by the ring size by construction.
func (s *Server) RetxLive() int {
	n := 0
	for i := range s.retxRing {
		if s.retxRing[i].info != nil {
			n++
		}
	}
	return n
}

// RetxCap returns the retransmit ring capacity.
func (s *Server) RetxCap() int { return len(s.retxRing) }

// Handle implements packet.Handler, processing receiver reports.
func (s *Server) Handle(p *packet.Packet) {
	if p.Kind != packet.KindFeedback {
		return
	}
	fb, ok := p.App.(*Feedback)
	if !ok {
		return
	}
	now := s.eng.Now()
	if fb.LossFraction() >= congestionLossSignal {
		s.lossyTimes = append(s.lossyTimes, now)
		if len(s.lossyTimes) > 64 {
			s.lossyTimes = s.lossyTimes[32:]
		}
	}
	s.ctrl.OnFeedback(now, fb)
	if s.profile.NACK && s.running {
		for _, seq := range fb.Nack {
			sl := &s.retxRing[seq&s.retxMask]
			info := sl.info
			if info == nil || sl.seq != seq || now.Sub(info.SentAt) > nackRetain {
				continue
			}
			// Skip requests already waiting in the pacer queue.
			pending := false
			for _, f := range s.fragQ[s.fragHead:] {
				if f.seq == seq {
					pending = true
					break
				}
			}
			if pending {
				continue
			}
			s.Retransmits++
			info.Retain()
			s.fragQ = append(s.fragQ, pendingFrag{seq: seq, info: info, retx: true})
		}
		s.drainFragQ()
	}
}

func minRate(a, b units.Rate) units.Rate {
	if a < b {
		return a
	}
	return b
}

func maxRate(a, b units.Rate) units.Rate {
	if a > b {
		return a
	}
	return b
}
