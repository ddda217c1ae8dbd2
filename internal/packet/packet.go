// Package packet defines the packet model shared by every network element
// and protocol implementation in the simulator. A Packet is deliberately a
// flat struct rather than a layered decoder: the simulator always knows what
// it put on the wire, so the gopacket-style decode path would be pure
// overhead. Flow identity, transport role, and application metadata are
// carried as typed fields.
package packet

import (
	"fmt"

	"repro/internal/sim"
)

// Addr identifies a host (endpoint) in the simulated topology.
type Addr int

// String formats the address for traces.
func (a Addr) String() string { return fmt.Sprintf("h%d", int(a)) }

// FlowID identifies a transport flow. Flow identity is assigned by the
// scenario builder; both directions of a connection share one FlowID.
type FlowID int

// Kind classifies what role a packet plays so traces and queues can account
// for it without inspecting payloads.
type Kind uint8

// Packet kinds.
const (
	KindData     Kind = iota // TCP payload segment
	KindAck                  // TCP pure ACK
	KindFrame                // game-stream video frame fragment (UDP)
	KindFeedback             // game-stream receiver report (UDP)
	KindPing                 // echo request
	KindPong                 // echo reply
)

var kindNames = [...]string{"data", "ack", "frame", "feedback", "ping", "pong"}

// String returns a short name for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Header sizes in bytes, matching what the paper's Wireshark traces would
// count on the wire (Ethernet + IP + transport).
const (
	EthIPOverhead = 14 + 20 // Ethernet II + IPv4
	TCPHeader     = 20
	UDPHeader     = 8

	// MTU is the maximum on-wire packet size.
	MTU = 1514
	// MSS is the maximum TCP payload per segment.
	MSS = MTU - EthIPOverhead - TCPHeader
)

// Packet is one simulated datagram. Fields beyond Src/Dst/Size are consumed
// only by the protocol endpoints; network elements treat packets as opaque
// sized objects.
type Packet struct {
	ID   uint64
	Flow FlowID
	Kind Kind
	Src  Addr
	Dst  Addr
	// Size is the total on-wire size in bytes, headers included.
	Size int

	// Transport fields (TCP semantics; also reused by the game stream for
	// sequence accounting).
	Seq     int64 // first payload byte (TCP) or fragment sequence (UDP)
	Ack     int64 // cumulative ACK (TCP)
	Payload int   // payload bytes (Size minus headers)

	// SentAt is stamped by the sender when the packet enters the network.
	SentAt sim.Time

	// EchoTS carries the peer's timestamp for RTT measurement (TCP
	// timestamp option / RTCP-style echo).
	EchoTS sim.Time

	// Retx marks a retransmitted copy (TCP retransmission or game-stream
	// NACK repair), so receivers can exclude repairs from sequence-gap
	// loss accounting without consulting App.
	Retx bool

	// App carries application-specific metadata (e.g. a *gamestream frame
	// descriptor). Network elements never touch it. Payloads that implement
	// AppRef are reference-counted by the Pool, so one descriptor can be
	// shared flyweight-style across many packets.
	App interface{}

	// pooled marks a packet currently resting in a Pool's freelist, the
	// guard that turns a double release into a panic instead of silent
	// aliasing corruption.
	pooled bool
}

// String formats a packet for debugging traces.
func (p *Packet) String() string {
	return fmt.Sprintf("%s %s->%s flow=%d seq=%d ack=%d size=%d",
		p.Kind, p.Src, p.Dst, p.Flow, p.Seq, p.Ack, p.Size)
}

// AppRef is the optional reference-counting contract for App payloads that
// are shared across packets (flyweights). Pool.Put calls Release exactly
// once per released packet whose App implements it, and Pool.Clone calls
// Retain on the copy, so the payload's owner can recycle it when the last
// on-wire reference disappears. Implementations are single-goroutine like
// everything else on the packet path — plain integer counters suffice.
type AppRef interface {
	Retain()
	Release()
}

// A Handler consumes packets, either as a network hop or a final endpoint.
type Handler interface {
	Handle(p *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(p *Packet)

// Handle calls f(p).
func (f HandlerFunc) Handle(p *Packet) { f(p) }
