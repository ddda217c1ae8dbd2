package tcp

import (
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
)

const (
	// delAckTimeout bounds how long a receiver holds a delayed ACK.
	delAckTimeout = 40 * time.Millisecond
	// delAckCount acknowledges every Nth full-size segment immediately.
	delAckCount = 2
	// maxSackBlocks caps the SACK ranges carried per ACK.
	maxSackBlocks = 3
	// ackBaseSize is Ethernet+IP+TCP plus the timestamp option.
	ackBaseSize = packet.EthIPOverhead + packet.TCPHeader + 12
	// sackBlockSize is the wire cost of one SACK range.
	sackBlockSize = 8
)

// span is a half-open received byte range beyond the cumulative frontier.
type span struct{ start, end int64 }

// Receiver is the TCP data sink: it reassembles the byte stream, generates
// cumulative + SACK acknowledgements with delayed-ACK behaviour, and counts
// goodput for the application.
type Receiver struct {
	host *netem.Host
	eng  *sim.Engine
	flow packet.FlowID
	peer packet.Addr

	rcvNxt  int64
	ooo     []span
	oooBuf  [8]span // inline backing for ooo; spills to the heap past 8 holes
	lastTS  sim.Time
	pending int  // full-size segments since last ACK
	ceSeen  bool // CE mark arrived since the last ACK

	delAck sim.Timer
	// metaPool supplies ackMeta records. It points at ownPool by default;
	// population receivers share one pool via SetAckPool so SACK episodes
	// across hundreds of flows recycle a single freelist.
	metaPool *ackMetaPool
	ownPool  ackMetaPool

	// BytesReceived counts distinct payload bytes delivered in order.
	BytesReceived int64
	// DupSegments counts retransmitted data the receiver had already seen.
	DupSegments int
	// OnDeliver, when set, is invoked with newly in-order byte counts.
	OnDeliver func(n int64)
	// sink, when set, takes precedence over OnDeliver. Attaching a
	// pointer-shaped value through the interface costs no allocation,
	// unlike the closure (or method value) OnDeliver needs.
	sink DeliverSink
}

// DeliverSink observes newly in-order byte counts; see Receiver.SetSink.
type DeliverSink interface{ Deliver(n int64) }

// SetSink registers s to observe in-order deliveries, taking precedence
// over OnDeliver.
func (r *Receiver) SetSink(s DeliverSink) { r.sink = s }

// NewReceiver creates a receiver for flow on host, acknowledging to peer.
// It binds itself to the host for data delivery.
func NewReceiver(host *netem.Host, flow packet.FlowID, peer packet.Addr) *Receiver {
	r := &Receiver{}
	r.Init(host, flow, peer)
	return r
}

func receiverAck(a any) { a.(*Receiver).sendAck() }

// Init readies a (possibly embedded, zero-valued) Receiver in place —
// the allocation-free twin of NewReceiver for callers that lay receivers
// out in bulk arrays.
func (r *Receiver) Init(host *netem.Host, flow packet.FlowID, peer packet.Addr) {
	r.host = host
	r.eng = host.Engine()
	r.flow = flow
	r.peer = peer
	r.ooo = r.oooBuf[:0]
	r.metaPool = &r.ownPool
	r.delAck.InitCall(r.eng, receiverAck, r)
	host.Bind(flow, r)
}

// SetAckPool shares one ACK-option freelist across receivers (population
// slots), replacing the receiver's private pool.
func (r *Receiver) SetAckPool(p *ackMetaPool) { r.metaPool = p }

// AckPool exposes the pool type for wiring shared state; see SetAckPool.
type AckPool = ackMetaPool

// ResetAt rearms the receiver for a fresh connection whose payload starts
// at seq (the peer Sender's post-Reset sndNxt). Data from the previous
// lifetime still in flight ends at or below seq, so it classifies as
// entirely old and only provokes a harmless duplicate ACK. Cumulative
// counters (BytesReceived, DupSegments) are retained.
func (r *Receiver) ResetAt(seq int64) {
	r.rcvNxt = seq
	r.ooo = r.ooo[:0]
	r.pending = 0
	r.ceSeen = false
	r.delAck.Stop()
}

// Handle implements packet.Handler, processing data segments.
func (r *Receiver) Handle(p *packet.Packet) {
	if p.Kind != packet.KindData {
		return
	}
	r.lastTS = p.SentAt
	if p.CE {
		r.ceSeen = true
	}
	seq, end := p.Seq, p.Seq+int64(p.Payload)

	switch {
	case end <= r.rcvNxt:
		// Entirely old: a spurious retransmission. ACK immediately so
		// the sender can repair its view.
		r.DupSegments++
		r.sendAck()
		return
	case seq <= r.rcvNxt:
		// In order — or straddling the frontier (a retransmission whose
		// prefix was already delivered): only the bytes from rcvNxt on are
		// new, and advance counts exactly those. Buffering the whole range
		// as out-of-order instead would advertise SACK blocks below the
		// cumulative ACK (forbidden by RFC 2018).
		hadHole := len(r.ooo) > 0
		r.advance(end)
		if hadHole {
			// Filling a hole: ACK now to release the sender promptly.
			r.sendAck()
			return
		}
		r.pending++
		if r.pending >= delAckCount {
			r.sendAck()
		} else if !r.delAck.Armed() {
			r.delAck.Reset(delAckTimeout)
		}
		return
	default:
		// Out of order: buffer and send an immediate duplicate ACK with
		// SACK information.
		r.insertOOO(span{seq, end})
		r.sendAck()
	}
}

// advance moves the cumulative frontier to at least end, absorbing any
// out-of-order ranges that become contiguous.
func (r *Receiver) advance(end int64) {
	grown := end - r.rcvNxt
	r.rcvNxt = end
	// Drop absorbed spans by compacting in place rather than re-slicing
	// from the front: the list stays anchored to its backing array, so
	// insertOOO's append never reallocates in steady state. The copy is
	// over at most a few spans.
	drop := 0
	for drop < len(r.ooo) && r.ooo[drop].start <= r.rcvNxt {
		if r.ooo[drop].end > r.rcvNxt {
			grown += r.ooo[drop].end - r.rcvNxt
			r.rcvNxt = r.ooo[drop].end
		}
		drop++
	}
	if drop > 0 {
		n := copy(r.ooo, r.ooo[drop:])
		r.ooo = r.ooo[:n]
	}
	r.BytesReceived += grown
	if r.sink != nil {
		r.sink.Deliver(grown)
	} else if r.OnDeliver != nil {
		r.OnDeliver(grown)
	}
}

// insertOOO adds a range into the sorted, disjoint out-of-order list.
func (r *Receiver) insertOOO(s span) {
	i := 0
	for i < len(r.ooo) && r.ooo[i].start < s.start {
		i++
	}
	r.ooo = append(r.ooo, span{})
	copy(r.ooo[i+1:], r.ooo[i:])
	r.ooo[i] = s
	// Merge overlaps around i.
	merged := r.ooo[:0]
	for _, sp := range r.ooo {
		if n := len(merged); n > 0 && sp.start <= merged[n-1].end {
			if sp.end > merged[n-1].end {
				merged[n-1].end = sp.end
			}
		} else {
			merged = append(merged, sp)
		}
	}
	r.ooo = merged
}

func (r *Receiver) sendAck() {
	r.pending = 0
	r.delAck.Stop()
	// A plain cumulative ACK (no SACK ranges, no ECN echo) carries no
	// option block at all: the sender treats a missing meta exactly like an
	// empty one, and the steady-state ACK stream allocates nothing.
	var meta *ackMeta
	if r.ceSeen || len(r.ooo) > 0 {
		meta = r.metaPool.get()
		meta.ece = r.ceSeen
		for i := 0; i < len(r.ooo) && i < maxSackBlocks; i++ {
			meta.sack = append(meta.sack, [2]int64{r.ooo[i].start, r.ooo[i].end})
		}
	}
	r.ceSeen = false
	p := r.host.NewPacket()
	p.Flow = r.flow
	p.Kind = packet.KindAck
	p.Dst = r.peer
	p.Ack = r.rcvNxt
	p.EchoTS = r.lastTS
	p.Size = ackBaseSize
	if meta != nil {
		p.Size += sackBlockSize * len(meta.sack)
		meta.Retain() // released by the packet pool when p is recycled
		p.App = meta
	}
	r.host.Send(p)
}
