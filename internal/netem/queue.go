// Package netem provides the simulated network elements that replace the
// paper's physical testbed: serialising links, netem-style fixed delays,
// tc-tbf token-bucket shapers with pluggable queues (drop-tail, CoDel,
// FQ-CoDel), and a router that ties them together. Parameters deliberately
// mirror the tc command line the paper ran on its Raspberry Pi router
// (rate / burst / limit / delay).
package netem

import (
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// Queue buffers packets at a bottleneck. Implementations decide drop policy
// on enqueue (drop-tail) or dequeue (CoDel). All queue state is in bytes as
// well as packets, since tc limits are byte-denominated.
type Queue interface {
	// Enqueue offers p to the queue at time now. It returns false if the
	// packet was dropped instead of queued.
	Enqueue(p *packet.Packet, now sim.Time) bool
	// Dequeue removes and returns the next packet to transmit, or nil if
	// the queue is empty. AQM implementations may drop packets internally
	// during this call; such drops are reported via the drop callback.
	Dequeue(now sim.Time) *packet.Packet
	// Peek returns the next packet without removing it, or nil.
	Peek() *packet.Packet
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the total queued bytes.
	Bytes() units.ByteSize
	// SetDropCallback registers fn to be invoked for every dropped packet.
	SetDropCallback(fn func(*packet.Packet))
}

// HeadSojourner is the optional telemetry side of a Queue: implementations
// report how long their oldest packet has been waiting — the queue's
// current sojourn time, the quantity CoDel's control law acts on. The probe
// layer type-asserts for it, so queues without sojourn accounting (e.g.
// schedulers whose "head" depends on a pending scheduling decision) simply
// produce no sojourn series.
type HeadSojourner interface {
	// HeadSojourn returns the waiting time of the oldest queued packet at
	// time now. ok is false when the queue is empty.
	HeadSojourn(now sim.Time) (d time.Duration, ok bool)
}

// queued wraps a packet with its enqueue time, needed by CoDel's sojourn
// accounting.
type queued struct {
	p  *packet.Packet
	at sim.Time
}

// fifo is a slice-backed ring buffer shared by the queue implementations.
type fifo struct {
	items []queued
	head  int
	bytes units.ByteSize
}

func (f *fifo) push(q queued) {
	f.items = append(f.items, q)
	f.bytes += units.ByteSize(q.p.Size)
}

func (f *fifo) pop() (queued, bool) {
	if f.head >= len(f.items) {
		return queued{}, false
	}
	q := f.items[f.head]
	f.items[f.head] = queued{} // release reference
	f.head++
	f.bytes -= units.ByteSize(q.p.Size)
	// Compact once the dead prefix dominates, keeping amortised O(1).
	if f.head > 64 && f.head*2 >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		f.items = f.items[:n]
		f.head = 0
	}
	return q, true
}

func (f *fifo) peek() (queued, bool) {
	if f.head >= len(f.items) {
		return queued{}, false
	}
	return f.items[f.head], true
}

func (f *fifo) len() int { return len(f.items) - f.head }

// DropTail is the classic byte-limited FIFO queue: packets that would push
// occupancy past the limit are dropped on arrival. This matches the paper's
// router configuration (tbf "limit").
type DropTail struct {
	limit  units.ByteSize
	q      fifo
	onDrop func(*packet.Packet)

	// Drops counts packets dropped since creation.
	Drops int
}

// NewDropTail returns a drop-tail queue holding at most limit bytes.
// A non-positive limit means unlimited (used for access links).
func NewDropTail(limit units.ByteSize) *DropTail {
	return &DropTail{limit: limit}
}

// Enqueue implements Queue.
func (d *DropTail) Enqueue(p *packet.Packet, now sim.Time) bool {
	if d.limit > 0 && d.q.bytes+units.ByteSize(p.Size) > d.limit {
		d.Drops++
		if d.onDrop != nil {
			d.onDrop(p)
		}
		return false
	}
	d.q.push(queued{p: p, at: now})
	return true
}

// Dequeue implements Queue.
func (d *DropTail) Dequeue(now sim.Time) *packet.Packet {
	q, ok := d.q.pop()
	if !ok {
		return nil
	}
	return q.p
}

// Peek implements Queue.
func (d *DropTail) Peek() *packet.Packet {
	q, ok := d.q.peek()
	if !ok {
		return nil
	}
	return q.p
}

// Len implements Queue.
func (d *DropTail) Len() int { return d.q.len() }

// Bytes implements Queue.
func (d *DropTail) Bytes() units.ByteSize { return d.q.bytes }

// HeadSojourn implements HeadSojourner.
func (d *DropTail) HeadSojourn(now sim.Time) (time.Duration, bool) {
	q, ok := d.q.peek()
	if !ok {
		return 0, false
	}
	return now.Sub(q.at), true
}

// SetDropCallback implements Queue.
func (d *DropTail) SetDropCallback(fn func(*packet.Packet)) { d.onDrop = fn }
