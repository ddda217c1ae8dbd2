// Package tcp implements the TCP senders that serve as the paper's
// competing iperf flows: a sender with a SACK scoreboard, RFC 6298
// retransmission timing, NewReno-style recovery, delivery-rate sampling
// (for BBR), optional pacing, and pluggable congestion control — Cubic
// (RFC 8312), BBR v1.0, Reno, and Vegas.
//
// The implementation purposefully skips connection establishment and
// teardown (flows start established, as in most simulation studies); all of
// the congestion-relevant machinery — cwnd, ssthresh, RTO, fast retransmit,
// SACK-based loss detection, pacing — is implemented in full, because the
// paper's findings depend on exactly these dynamics.
package tcp

import (
	"time"

	"repro/internal/sim"
	"repro/internal/units"
)

// AckSample summarises one ACK arrival for the congestion controller.
type AckSample struct {
	Now        sim.Time
	BytesAcked int64 // newly cumulatively-acked plus newly-SACKed bytes

	// RTT is the round-trip sample from the timestamp echo, 0 if none.
	RTT time.Duration
	// MinRTT is the connection's lifetime minimum RTT.
	MinRTT time.Duration
	// SRTT is the smoothed RTT estimate.
	SRTT time.Duration

	// Delivered is the connection's total delivered bytes.
	Delivered int64
	// DeliveryRate is the rate sample computed per the delivery-rate
	// estimation algorithm (0 if unavailable).
	DeliveryRate units.Rate
	// RateAppLimited marks the rate sample as taken while the sender was
	// application-limited, so it only raises (never lowers) a max filter.
	RateAppLimited bool

	// Inflight is bytes outstanding after processing this ACK.
	Inflight int64
	// InRecovery reports whether the sender is in loss recovery.
	InRecovery bool
	// RoundTrips counts completed delivery rounds (for BBR's filters).
	RoundTrips int64
	// MSS is the sender's maximum segment size in bytes.
	MSS int64
}

// CongestionControl is the pluggable congestion-control algorithm driven by
// the Sender. Implementations are pure state machines: they never touch the
// network directly.
type CongestionControl interface {
	// Name returns the algorithm name, e.g. "cubic".
	Name() string
	// Init is called once with the sender's MSS before any traffic.
	Init(mss int64)
	// OnAck processes an ACK arrival.
	OnAck(s AckSample)
	// OnLoss is called once per loss event (entering recovery), with the
	// bytes in flight at detection time.
	OnLoss(now sim.Time, inflight int64)
	// OnRTO is called when the retransmission timer fires.
	OnRTO(now sim.Time, inflight int64)
	// OnExitRecovery is called when recovery completes.
	OnExitRecovery(now sim.Time)
	// CwndBytes returns the current congestion window in bytes.
	CwndBytes() int64
	// PacingRate returns the pacing rate, or 0 for pure window clocking.
	PacingRate() units.Rate
}

// CCState is a point-in-time snapshot of a congestion controller's internal
// model, the simulator's analogue of Linux's tcp_probe / ss -i output. Only
// the fields relevant to the algorithm are populated; the rest stay zero.
// Snapshots are cheap (a handful of loads) so probes may take one per ACK.
type CCState struct {
	// Mode is the algorithm's phase label: "slow_start"/"avoidance" for the
	// loss-based family, the state-machine phase (STARTUP, DRAIN, PROBE_BW,
	// PROBE_RTT) for BBR/BBRv2.
	Mode string
	// SsthreshBytes is the slow-start threshold (loss-based algorithms).
	SsthreshBytes int64
	// WMaxSegs and KSec are Cubic's epoch anchor: the window (in segments)
	// where loss last occurred and the cubic-function inflection time.
	WMaxSegs float64
	KSec     float64
	// BtlBw and RTProp are the BBR path model: max-filtered bottleneck
	// bandwidth and min-filtered round-trip propagation delay.
	BtlBw  units.Rate
	RTProp time.Duration
	// InflightHiBytes is BBRv2's loss-derived inflight bound (0 = unset).
	InflightHiBytes int64
	// BaseRTT is the delay-based floor estimate (Vegas, LEDBAT).
	BaseRTT time.Duration
}

// Inspector is the optional introspection side of a CongestionControl:
// controllers that implement it expose their internal model for the probe
// layer. All controllers shipped by this package implement it; external
// ones may not, so callers must type-assert.
type Inspector interface {
	InspectCC() CCState
}

// Algorithm names accepted by New.
const (
	AlgCubic = "cubic"
	AlgBBR   = "bbr"
	AlgReno  = "reno"
	AlgVegas = "vegas"
)

// constructors maps every algorithm name New accepts to its constructor.
var constructors = map[string]func() CongestionControl{
	AlgCubic:  func() CongestionControl { return NewCubic() },
	AlgBBR:    func() CongestionControl { return NewBBR() },
	AlgBBR2:   func() CongestionControl { return NewBBR2() },
	AlgReno:   func() CongestionControl { return NewReno() },
	AlgVegas:  func() CongestionControl { return NewVegas() },
	AlgLEDBAT: func() CongestionControl { return NewLEDBAT() },
}

// New returns a congestion controller by name. It panics on an unknown
// name, which is a configuration error.
func New(name string) CongestionControl {
	if f, ok := constructors[name]; ok {
		return f()
	}
	panic("tcp: unknown congestion control " + name)
}

// Known reports whether New accepts name, so spec parsers can reject a bad
// name with an error instead of a run-time panic.
func Known(name string) bool {
	_, ok := constructors[name]
	return ok
}

// NewBulk returns n independent controllers of the named algorithm. Cubic
// controllers — the default for large flow populations — come from one
// backing array, so constructing hundreds costs one allocation; other
// algorithms fall back to per-controller construction.
func NewBulk(name string, n int) []CongestionControl {
	out := make([]CongestionControl, n)
	if name == AlgCubic {
		arr := make([]Cubic, n)
		for i := range out {
			out[i] = &arr[i]
		}
		return out
	}
	for i := range out {
		out[i] = New(name)
	}
	return out
}
