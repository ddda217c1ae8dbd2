// Package dash implements an HTTP-adaptive-streaming (DASH/HLS-style)
// video session over TCP — the "streaming video (e.g., Netflix)" competitor
// the paper's future-work section calls for. A client requests fixed-length
// segments; each segment's size is picked from a bitrate ladder by a
// throughput-and-buffer rule; the server pushes the bytes over a TCP
// connection (Cubic or BBR). The resulting on-off traffic is the classic
// ABR pattern: bursts at link rate while a segment downloads, idle once the
// playback buffer is full.
package dash

import (
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/units"
)

// ladder is the available bitrate ladder: a typical video ladder,
// ascending.
var ladder = []units.Rate{
	units.Kbps(600), units.Mbps(1.5), units.Mbps(3), units.Mbps(5),
	units.Mbps(8), units.Mbps(12), units.Mbps(16),
}

const (
	// segmentDur is the media duration per segment.
	segmentDur = 4 * time.Second
	// maxBuffer is the playback buffer level at which the client pauses
	// requesting (players use 20-30 s).
	maxBuffer = 24 * time.Second
	// safetyFactor scales the throughput estimate when picking a rung.
	safetyFactor = 0.8
)

// Session is one adaptive-video session: the server side owns the TCP
// sender, the client side owns the receiver, rate adaptation runs at the
// client as segments complete.
type Session struct {
	eng *sim.Engine

	Sender   *tcp.Sender
	Receiver *tcp.Receiver

	running   bool
	quality   int // current ladder index
	buffer    time.Duration
	lastDrain sim.Time

	segStart    sim.Time
	segBytes    int64
	segReceived int64
	waiting     bool // paused on a full buffer
	throughput  units.Rate

	// Stats for the harness.
	SegmentsFetched int
	Stalls          int
	QualitySum      int64 // for mean quality
}

// New creates a session between serverHost and clientHost on the given
// flow, transferring over TCP congestion control cca. Call Start to begin
// fetching.
func New(serverHost, clientHost *netem.Host, flow packet.FlowID, cca string) *Session {
	s := &Session{eng: serverHost.Engine()}
	s.Sender = tcp.NewSender(serverHost, flow, clientHost.Addr, tcp.New(cca))
	s.Sender.SetLimit(1) // bounded source: segments arrive via Enqueue
	s.Receiver = tcp.NewReceiver(clientHost, flow, serverHost.Addr)
	s.Receiver.OnDeliver = s.onBytes
	return s
}

// Start begins the session at the lowest rung.
func (s *Session) Start() {
	if s.running {
		return
	}
	s.running = true
	s.lastDrain = s.eng.Now()
	s.Sender.Start()
	s.requestSegment()
}

// Stop halts after the in-flight segment.
func (s *Session) Stop() {
	s.running = false
	s.Sender.StopSending()
}

// Quality returns the current ladder index.
func (s *Session) Quality() int { return s.quality }

// MeanQuality returns the average ladder index over fetched segments.
func (s *Session) MeanQuality() float64 {
	if s.SegmentsFetched == 0 {
		return 0
	}
	return float64(s.QualitySum) / float64(s.SegmentsFetched)
}

// Buffer returns the playback buffer level.
func (s *Session) Buffer() time.Duration {
	s.drainBuffer()
	return s.buffer
}

// drainBuffer advances playback against wall (simulation) time.
func (s *Session) drainBuffer() {
	now := s.eng.Now()
	elapsed := now.Sub(s.lastDrain)
	s.lastDrain = now
	if elapsed <= 0 {
		return
	}
	s.buffer -= elapsed
	if s.buffer < 0 {
		s.buffer = 0
	}
}

// requestSegment begins the next segment download. The request itself is
// modelled as instantaneous control traffic (a few bytes upstream are
// negligible next to the segment).
func (s *Session) requestSegment() {
	if !s.running {
		return
	}
	s.segStart = s.eng.Now()
	s.segReceived = 0
	rate := ladder[s.quality]
	s.segBytes = int64(rate.BytesIn(segmentDur))
	s.Sender.Enqueue(s.segBytes)
}

// onBytes accounts delivered segment bytes and completes segments.
func (s *Session) onBytes(n int64) {
	if s.segBytes == 0 {
		return
	}
	s.segReceived += n
	if s.segReceived < s.segBytes {
		return
	}
	// Segment complete.
	now := s.eng.Now()
	dur := now.Sub(s.segStart)
	if dur > 0 {
		s.throughput = units.RateFromBytes(units.ByteSize(s.segBytes), dur)
	}
	s.drainBuffer()
	if s.buffer == 0 && s.SegmentsFetched > 0 {
		s.Stalls++
	}
	s.buffer += segmentDur
	s.SegmentsFetched++
	s.QualitySum += int64(s.quality)
	s.segBytes = 0
	s.pickQuality()
	s.scheduleNext()
}

// pickQuality selects the highest rung below safetyFactor x throughput,
// stepping at most one rung up at a time (standard conservative ABR).
func (s *Session) pickQuality() {
	est := s.throughput.Scale(safetyFactor)
	best := 0
	for i, r := range ladder {
		if r <= est {
			best = i
		}
	}
	switch {
	case best > s.quality:
		s.quality++
	case best < s.quality:
		s.quality = best
	}
}

// scheduleNext requests immediately while the buffer has room, otherwise
// waits until playback frees one segment of space.
func (s *Session) scheduleNext() {
	if !s.running {
		return
	}
	s.drainBuffer()
	if s.buffer+segmentDur <= maxBuffer {
		s.requestSegment()
		return
	}
	wait := s.buffer + segmentDur - maxBuffer
	s.eng.Schedule(wait, s.scheduleNext)
}
