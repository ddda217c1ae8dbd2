// Package trace is the simulator's Wireshark: a capture point that observes
// every packet arriving at the bottleneck router plus every drop at its
// queue, and aggregates per-flow bitrate and loss time series in the 0.5 s
// bins the paper's analysis uses.
package trace

import (
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// DefaultBin matches the paper's 0.5 s bitrate computation interval.
const DefaultBin = 500 * time.Millisecond

// binCount holds all four per-bin counters for one flow in one record, so
// each packet tap touches a single flat array (and usually a single cache
// line) instead of four separately grown slices.
type binCount struct {
	bytes int64 // offered at the router (pre-queue)
	pkts  int64
	drops int64
	dlv   int64 // delivered past the bottleneck (post-queue)
}

// FlowTrace accumulates one flow's per-bin counters.
type FlowTrace struct {
	bins []binCount

	// Totals since capture start.
	Packets   int64
	Bytes     int64
	Drops     int64
	Delivered int64
}

// maxDenseFlow bounds the FlowID range served by the capture's dense
// lookup table; larger IDs spill into a map (never hit in practice —
// scenario builders assign small consecutive IDs).
const maxDenseFlow = 1 << 14

// Capture observes packets at the bottleneck. Attach Tap to the router and
// OnDrop to the bottleneck queue's drop callback.
type Capture struct {
	eng    *sim.Engine
	binDur sim.Time
	// flows is a dense lookup table indexed by FlowID, so the per-packet
	// taps cost a bounds check and a slice load even with hundreds of
	// concurrent flows. IDs at or above maxDenseFlow spill into flowsHi.
	flows   []*FlowTrace
	flowsHi map[packet.FlowID]*FlowTrace
	// binHint is the expected final bin count (from SetHorizon); new flows
	// preallocate their bin slices to it, so the hot taps almost never
	// grow mid-run.
	binHint int
	// arena and binArena are the remainders of the current FlowTrace and
	// bin allocation blocks; binBlock is the flow count of the last bin
	// block. See newFlowTrace.
	arena    []FlowTrace
	binArena []binCount
	binBlock int
}

// NewCapture creates a capture with the given bin duration (DefaultBin if
// zero).
func NewCapture(eng *sim.Engine, bin time.Duration) *Capture {
	if bin <= 0 {
		bin = DefaultBin
	}
	return &Capture{
		eng:    eng,
		binDur: sim.At(bin),
	}
}

// BinDuration returns the configured bin width.
func (c *Capture) BinDuration() time.Duration { return c.binDur.Duration() }

// SetHorizon tells the capture how long the run is expected to last, so
// per-flow bin slices can be allocated once up front instead of growing
// bin by bin on the packet path. Runs past the horizon still work — grow
// falls back to doubling.
func (c *Capture) SetHorizon(d time.Duration) {
	if d <= 0 {
		c.binHint = 0
		return
	}
	c.binHint = int(sim.At(d)/c.binDur) + 1
}

func (c *Capture) flow(id packet.FlowID) *FlowTrace {
	if id >= 0 && id < maxDenseFlow {
		if int(id) >= len(c.flows) {
			if int(id) < cap(c.flows) {
				c.flows = c.flows[:id+1]
			} else {
				// Geometric growth: population flow IDs arrive in
				// ascending order, so per-maximum reallocation would be
				// quadratic in the flow count.
				nf := make([]*FlowTrace, id+1, 2*(int(id)+1))
				copy(nf, c.flows)
				c.flows = nf
			}
		}
		if f := c.flows[id]; f != nil {
			return f
		}
		f := c.newFlowTrace()
		c.flows[id] = f
		return f
	}
	if f := c.flowsHi[id]; f != nil {
		return f
	}
	if c.flowsHi == nil {
		c.flowsHi = make(map[packet.FlowID]*FlowTrace)
	}
	f := c.newFlowTrace()
	c.flowsHi[id] = f
	return f
}

// flowTraceChunk is how many FlowTrace records one arena block holds.
const flowTraceChunk = 32

func (c *Capture) newFlowTrace() *FlowTrace {
	// FlowTrace records are carved from chunked arena blocks: a campaign
	// population touches hundreds of flows, and one allocation per 32
	// keeps trace setup out of the per-flow cost.
	if len(c.arena) == 0 {
		c.arena = make([]FlowTrace, flowTraceChunk)
	}
	f := &c.arena[0]
	c.arena = c.arena[1:]
	if c.binHint > 0 {
		// Bin backings come from blocks that double from one flow up to
		// flowTraceChunk flows: a paper run traces about three flows, so a
		// full chunk up front would leave most of a megabyte untouched,
		// while a population still gets one allocation per 32 flows. The
		// three-index carve pins capacity so a flow outliving the horizon
		// spills to its own array rather than a neighbour's bins.
		if len(c.binArena) < c.binHint {
			c.binBlock = min(max(2*c.binBlock, 1), flowTraceChunk)
			c.binArena = make([]binCount, c.binBlock*c.binHint)
		}
		f.bins = c.binArena[:0:c.binHint]
		c.binArena = c.binArena[c.binHint:]
	}
	return f
}

func (c *Capture) bin() int { return int(c.eng.Now() / c.binDur) }

// grow extends s with zeros so bin is addressable. When reallocation is
// needed (horizon unset or exceeded) capacity at least doubles, keeping the
// packet-path cost amortised O(1) instead of O(bins) appends per packet.
func grow(s []binCount, bin int) []binCount {
	if bin < len(s) {
		return s
	}
	if bin < cap(s) {
		return s[:bin+1] // zeroed by construction: len only ever grows here
	}
	ncap := 2 * cap(s)
	if ncap <= bin {
		ncap = bin + 1
	}
	ns := make([]binCount, bin+1, ncap)
	copy(ns, s)
	return ns
}

// Tap records a forwarded packet; register it with Router.Tap.
func (c *Capture) Tap(p *packet.Packet) {
	f := c.flow(p.Flow)
	b := c.bin()
	f.bins = grow(f.bins, b)
	f.bins[b].bytes += int64(p.Size)
	f.bins[b].pkts++
	f.Packets++
	f.Bytes += int64(p.Size)
}

// TapDelivered records a packet that made it past the bottleneck; place it
// on the shaper's egress. Delivered bins are what the paper's bitrate plots
// show (Wireshark saw post-bottleneck traffic at the clients).
func (c *Capture) TapDelivered(p *packet.Packet) {
	f := c.flow(p.Flow)
	b := c.bin()
	f.bins = grow(f.bins, b)
	f.bins[b].dlv += int64(p.Size)
	f.Delivered += int64(p.Size)
}

// OnDrop records a bottleneck drop; register it with the queue's drop
// callback.
func (c *Capture) OnDrop(p *packet.Packet) {
	f := c.flow(p.Flow)
	b := c.bin()
	f.bins = grow(f.bins, b)
	f.bins[b].drops++
	f.Drops++
}

// Flow returns the trace for a flow (empty trace if never seen).
func (c *Capture) Flow(id packet.FlowID) *FlowTrace {
	return c.flow(id)
}

// BitrateSeries returns the flow's delivered on-wire bitrate per bin in
// Mb/s, with exactly n bins (zero-padded). Requires TapDelivered wiring.
func (c *Capture) BitrateSeries(id packet.FlowID, n int) []float64 {
	out := make([]float64, n)
	c.AddBitrate(out, id)
	return out
}

// AddBitrate adds the flow's delivered bitrate per bin in Mb/s to dst,
// over len(dst) bins: BitrateSeries summed into one series without a
// slice per flow.
func (c *Capture) AddBitrate(dst []float64, id packet.FlowID) {
	f := c.flow(id)
	sec := c.binDur.Duration().Seconds()
	for i := 0; i < len(dst) && i < len(f.bins); i++ {
		dst[i] += float64(f.bins[i].dlv) * 8 / sec / 1e6
	}
}

// OfferedSeries returns the flow's offered (pre-queue) bitrate per bin in
// Mb/s.
func (c *Capture) OfferedSeries(id packet.FlowID, n int) []float64 {
	f := c.flow(id)
	sec := c.binDur.Duration().Seconds()
	out := make([]float64, n)
	for i := 0; i < n && i < len(f.bins); i++ {
		out[i] = float64(f.bins[i].bytes) * 8 / sec / 1e6
	}
	return out
}

// RateBetween returns the flow's average delivered rate over [from, to),
// resolved to whole bins.
func (c *Capture) RateBetween(id packet.FlowID, from, to sim.Time) units.Rate {
	f := c.flow(id)
	var total int64
	lo, hi := int(from/c.binDur), int(to/c.binDur)
	for i := lo; i < hi && i < len(f.bins); i++ {
		total += f.bins[i].dlv
	}
	if hi <= lo {
		return 0
	}
	dur := time.Duration(hi-lo) * c.binDur.Duration()
	return units.RateFromBytes(units.ByteSize(total), dur)
}

// LossBetween returns the flow's loss fraction over [from, to): drops at
// the bottleneck queue divided by packets offered to the router (the tap
// sits upstream of the queue, so tap counts include the later-dropped
// packets).
func (c *Capture) LossBetween(id packet.FlowID, from, to sim.Time) float64 {
	f := c.flow(id)
	lo, hi := int(from/c.binDur), int(to/c.binDur)
	var pkts, drops int64
	for i := lo; i < hi && i < len(f.bins); i++ {
		pkts += f.bins[i].pkts
		drops += f.bins[i].drops
	}
	if pkts == 0 {
		return 0
	}
	return float64(drops) / float64(pkts)
}
