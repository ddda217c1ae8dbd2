// Package iperf implements the bulk-download traffic generator from the
// paper's testbed: a TCP connection (Cubic or BBR) that transfers as fast
// as congestion control allows between a start and stop time, emulating
// `iperf` run for the middle three minutes of each trace.
//
// The flow's entire data path is allocation-free in steady state: segments
// come from the tcp.Sender's freelist and packets from the host's
// packet.Pool, so a bulk flow adds no GC pressure beyond its (amortised)
// goodput-bin growth.
package iperf

import (
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/units"
)

// Flow is one bulk-download TCP flow: the sender lives on the server host,
// the receiver (the "iperf client" doing the download) on the client host.
// The endpoints are embedded by value so a population of flows can live in
// one bulk array; Sender and Receiver point at the embedded state.
type Flow struct {
	Sender   *tcp.Sender
	Receiver *tcp.Receiver
	sender   tcp.Sender
	receiver tcp.Receiver
	eng      *sim.Engine

	startAt sim.Time
	started bool

	// rx[i] accumulates bytes received in half-second bin i, for the
	// competing-flow side of the paper's bitrate comparisons.
	binDur sim.Time
	rxBins []int64
}

// New creates a bulk flow with the given congestion control algorithm
// ("cubic" or "bbr"), sending from serverHost to clientHost. binDur sets
// the goodput time-series resolution.
func New(serverHost, clientHost *netem.Host, flow packet.FlowID, alg string, binDur sim.Time) *Flow {
	f := &Flow{}
	f.Init(serverHost, clientHost, flow, alg, binDur)
	return f
}

// Init readies a zero-valued Flow in place — the bulk-array twin of New.
// A Flow must not be copied after Init (the embedded endpoints hold
// intrusive timer state).
func (f *Flow) Init(serverHost, clientHost *netem.Host, flow packet.FlowID, alg string, binDur sim.Time) {
	f.InitWithCC(serverHost, clientHost, flow, tcp.New(alg), binDur)
}

// InitWithCC is Init with a caller-supplied congestion controller, for
// populations that construct controllers in bulk (tcp.NewBulk).
func (f *Flow) InitWithCC(serverHost, clientHost *netem.Host, flow packet.FlowID, cc tcp.CongestionControl, binDur sim.Time) {
	f.eng = serverHost.Engine()
	f.binDur = binDur
	f.sender.Init(serverHost, flow, clientHost.Addr, cc)
	f.receiver.Init(clientHost, flow, serverHost.Addr)
	f.Sender = &f.sender
	f.Receiver = &f.receiver
	f.receiver.SetSink(f)
}

// Deliver implements tcp.DeliverSink, accumulating goodput bins.
func (f *Flow) Deliver(n int64) {
	if f.binDur <= 0 {
		return
	}
	bin := int(f.eng.Now() / f.binDur)
	for len(f.rxBins) <= bin {
		f.rxBins = append(f.rxBins, 0)
	}
	f.rxBins[bin] += n
}

// ShareSegPool attaches a shared scoreboard freelist to the flow's sender
// and a shared ACK-option pool to its receiver; see tcp.Sender.SetSegPool.
func (f *Flow) ShareSegPool(segs *tcp.SegPool, acks *tcp.AckPool) {
	f.sender.SetSegPool(segs)
	f.receiver.SetAckPool(acks)
}

// SetBinStore hands the flow a preallocated (empty) goodput-bin backing
// array, letting populations carve per-slot bins from one bulk allocation.
func (f *Flow) SetBinStore(buf []int64) {
	f.rxBins = buf[:0]
}

// Restart rearms the flow as a fresh connection with the given congestion
// control algorithm and begins sending immediately. It is the slot-reuse
// path for flow populations: the tcp endpoints are reset in place (sender
// first, so the receiver's new frontier matches the sender's continued
// sequence space) instead of being reallocated per arrival, and the
// congestion controller is re-initialised in place when the algorithm is
// unchanged — a repeat arrival allocates nothing.
func (f *Flow) Restart(alg string) {
	if alg == f.Sender.CC().Name() {
		f.Sender.Reset(nil)
	} else {
		f.Sender.Reset(tcp.New(alg))
	}
	f.Receiver.ResetAt(f.Sender.SndNxt())
	f.startAt = f.eng.Now()
	f.started = true
	f.Sender.Start()
}

// Stop halts transmission; in-flight data drains and remains subject to
// retransmission until acknowledged.
func (f *Flow) Stop() { f.Sender.StopSending() }

// ScheduleRun arms the flow to start at `start` and stop at `stop`
// (simulation times).
func (f *Flow) ScheduleRun(start, stop sim.Time) {
	f.startAt = start
	f.eng.ScheduleAt(start, func() {
		f.started = true
		f.Sender.Start()
	})
	f.eng.ScheduleAt(stop, func() {
		f.Sender.StopSending()
	})
}

// GoodputBins returns per-bin goodput in bits/s.
func (f *Flow) GoodputBins() []float64 {
	out := make([]float64, len(f.rxBins))
	sec := f.binDur.Duration().Seconds()
	for i, b := range f.rxBins {
		out[i] = float64(b) * 8 / sec
	}
	return out
}

// GoodputBetween returns the average goodput over [from, to) from the bin
// series.
func (f *Flow) GoodputBetween(from, to sim.Time) units.Rate {
	if f.binDur <= 0 || to <= from {
		return 0
	}
	var total int64
	for i, b := range f.rxBins {
		t0 := sim.Time(i) * f.binDur
		if t0 >= from && t0 < to {
			total += b
		}
	}
	return units.RateFromBytes(units.ByteSize(total), to.Sub(from))
}
