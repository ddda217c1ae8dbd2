// Package gamestream implements the cloud game-streaming systems under
// test: a video streaming server (frame source, encoder ladder, packetiser,
// FEC, NACK retransmission), a client (reassembly, playout deadline,
// receiver reports), and three adaptive-bitrate controllers calibrated to
// the observable behaviour of Google Stadia, NVidia GeForce Now, and Amazon
// Luna as measured by Xu & Claypool (IMC 2022).
//
// The real platforms are proprietary black boxes; what the paper
// characterises is their emergent congestion response. Each profile here is
// a mechanistically distinct controller (delay-gradient, conservative
// headroom tracking, loss-based AIMD) whose interaction with real TCP
// Cubic/BBR competitors reproduces the paper's findings. See DESIGN.md §4.
package gamestream

import (
	"time"

	"repro/internal/sim"
	"repro/internal/units"
)

// Wire constants.
const (
	// FragmentPayload is the payload carried per UDP fragment.
	FragmentPayload = 1200
	// FragmentOverhead is Ethernet + IP + UDP + 12-byte RTP-style header.
	FragmentOverhead = 14 + 20 + 8 + 12
	// FeedbackInterval is how often the client sends receiver reports.
	FeedbackInterval = 100 * time.Millisecond
	// FeedbackSize is the on-wire size of a receiver report.
	FeedbackSize = 120
	// KeyFrameInterval is the I-frame period.
	KeyFrameInterval = 2 * time.Second
	// KeyFrameScale is the size multiplier for I-frames.
	KeyFrameScale = 2.0
	// nackRetryAfter is how long a client waits before re-requesting a
	// fragment it has already NACKed.
	nackRetryAfter = 150 * time.Millisecond
)

// FrameInfo is the flyweight frame descriptor shared by every fragment of
// one encoded frame. The server draws one per frame from its freelist and
// each holder — an on-wire fragment's App field, a retransmit-buffer entry,
// a pacer-queue entry — keeps a counted reference (packet.AppRef), so the
// steady-state fragment path allocates nothing: per-fragment values (index,
// payload size) are derived from the packet's sequence number instead of
// being stamped onto every packet.
type FrameInfo struct {
	FrameID  int64
	Count    int // data fragments in the frame
	Parity   int // parity fragments appended for FEC
	KeyFrame bool
	// SeqBase is the fragment sequence number of index 0; a frame's
	// count+parity fragments carry consecutive sequence numbers, so a
	// fragment's index is Seq - SeqBase.
	SeqBase int64
	// LastSize is the payload of data fragment Count-1 (the remainder
	// after slicing into FragmentPayload pieces); every other fragment
	// carries FragmentPayload bytes.
	LastSize int
	// SentAt is when the frame left the encoder, driving the client's
	// playout deadline.
	SentAt sim.Time

	refs  int
	owner *frameInfoPool
}

// Index returns the fragment index within the frame for a fragment
// sequence number.
func (fi *FrameInfo) Index(seq int64) int { return int(seq - fi.SeqBase) }

// PayloadAt returns the payload size of the fragment at index.
func (fi *FrameInfo) PayloadAt(index int) int {
	if index == fi.Count-1 && fi.LastSize > 0 {
		return fi.LastSize
	}
	return FragmentPayload
}

// Retain implements packet.AppRef.
func (fi *FrameInfo) Retain() { fi.refs++ }

// Release implements packet.AppRef; at zero references the descriptor
// returns to its owning freelist.
func (fi *FrameInfo) Release() {
	fi.refs--
	if fi.refs < 0 {
		panic("gamestream: FrameInfo over-released")
	}
	if fi.refs == 0 && fi.owner != nil {
		fi.owner.put(fi)
	}
}

// frameInfoPool is a LIFO freelist of frame descriptors, one per server.
// Like packet.Pool it is single-goroutine and deterministic.
type frameInfoPool struct{ free []*FrameInfo }

func (pl *frameInfoPool) get() *FrameInfo {
	if n := len(pl.free); n > 0 {
		fi := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		*fi = FrameInfo{owner: pl}
		return fi
	}
	return &FrameInfo{owner: pl}
}

func (pl *frameInfoPool) put(fi *FrameInfo) { pl.free = append(pl.free, fi) }

// Feedback is the receiver report the client sends every FeedbackInterval,
// carried as packet App payload. It is the only signal the server-side
// controller sees, mirroring a WebRTC-style RTCP loop.
type Feedback struct {
	// Interval covered by this report.
	Interval time.Duration
	// RxRate is the goodput observed in the interval.
	RxRate units.Rate
	// ExpectedPkts and LostPkts describe sequence-gap loss in the interval.
	ExpectedPkts int
	LostPkts     int
	// OWDMin and OWDAvg are one-way delay statistics over the interval.
	OWDMin time.Duration
	OWDAvg time.Duration
	// Nack lists fragment sequence numbers the client wants retransmitted.
	Nack []int64

	refs  int
	owner *feedbackPool
}

// Retain implements packet.AppRef.
func (f *Feedback) Retain() { f.refs++ }

// Release implements packet.AppRef; at zero references the report returns
// to its owning freelist (a Feedback literal with no owner is simply left
// to the garbage collector, so tests can build them directly).
func (f *Feedback) Release() {
	f.refs--
	if f.refs < 0 {
		panic("gamestream: Feedback over-released")
	}
	if f.refs == 0 && f.owner != nil {
		f.owner.put(f)
	}
}

// feedbackPool recycles receiver reports (and their NACK backing arrays),
// removing the one steady-state allocation per feedback tick — the term
// that would otherwise scale with the flow count in N-flow populations.
type feedbackPool struct{ free []*Feedback }

func (pl *feedbackPool) get() *Feedback {
	if n := len(pl.free); n > 0 {
		fb := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		nack := fb.Nack[:0]
		*fb = Feedback{Nack: nack, owner: pl}
		return fb
	}
	return &Feedback{owner: pl}
}

func (pl *feedbackPool) put(fb *Feedback) { pl.free = append(pl.free, fb) }

// LossFraction returns the fraction of packets lost in the interval.
func (f *Feedback) LossFraction() float64 {
	if f.ExpectedPkts <= 0 {
		return 0
	}
	return float64(f.LostPkts) / float64(f.ExpectedPkts)
}

// Controller is the adaptive bitrate algorithm: it consumes receiver
// reports and produces a target encoder bitrate. Implementations are pure
// state machines.
type Controller interface {
	// Name identifies the algorithm for traces.
	Name() string
	// OnFeedback processes one receiver report.
	OnFeedback(now sim.Time, fb *Feedback)
	// Target returns the current target bitrate.
	Target() units.Rate
}

// FPSRung maps a bitrate floor to an encoder frame rate.
type FPSRung struct {
	MinRate units.Rate
	FPS     int
}

// Profile is the complete behavioural description of one game-streaming
// system: encoder limits, frame-rate ladder, loss-repair machinery, and the
// rate controller. Calibration targets for each stock profile are
// documented in DESIGN.md §4 and validated in EXPERIMENTS.md.
type Profile struct {
	// Name of the system, e.g. "stadia".
	Name string
	// MaxRate and MinRate bound the encoder bitrate ladder.
	MaxRate units.Rate
	MinRate units.Rate
	// ComplexityStdDev is the relative per-frame size variation driven by
	// scene content (the scripted-gameplay workload process).
	ComplexityStdDev float64
	// FPSLadder maps target bitrate to encoder frame rate; entries must
	// be sorted descending by MinRate. An empty ladder means constant
	// BaseFPS.
	FPSLadder []FPSRung
	// CongestionFPSCap caps the encoder frame rate while the controller
	// reports congestion (0 = no cap).
	CongestionFPSCap int
	// BaseFPS is the uncongested frame rate (the 60 f/s target).
	BaseFPS int
	// FECRate is the fraction of parity fragments added per frame
	// (0 = none). Any k-of-n recovery is assumed (idealised Reed-Solomon).
	FECRate float64
	// NACK enables client retransmission requests for missing fragments.
	NACK bool
	// PlayoutDelay is how long after a frame's first transmission the
	// client will still display it; later frames are dropped.
	PlayoutDelay time.Duration
	// NewController builds this profile's rate controller.
	NewController func() Controller
}

// EncoderFPS returns the frame rate the profile's ladder selects for a
// target bitrate, before any congestion cap.
func (p *Profile) EncoderFPS(target units.Rate) int {
	for _, rung := range p.FPSLadder {
		if target >= rung.MinRate {
			return rung.FPS
		}
	}
	if n := len(p.FPSLadder); n > 0 {
		return p.FPSLadder[n-1].FPS
	}
	return p.BaseFPS
}
