// Package netsim is the packet-level discrete-event substrate for the
// paper's end-to-end experiments (§4): wired hops with finite drop-tail
// buffers, bursty cross traffic at the legacy Internet bottleneck, and a
// radio-access hop whose HARQ hides all air-interface loss from the
// transport layer. The transport engines in internal/transport run their
// congestion-control algorithms over these paths.
package netsim

import "time"

// Packet is the unit moved through the simulated network. Transport
// engines use Seq/Len/Ack*; the network layer only looks at Wire.
type Packet struct {
	FlowID int
	// Seq is the first payload byte's sequence number (data packets).
	Seq int64
	// Len is the payload length in bytes (0 for pure ACKs).
	Len int
	// Ack marks a pure acknowledgment travelling the reverse path.
	Ack bool
	// AckSeq is the cumulative acknowledgment (next expected byte).
	AckSeq int64
	// Sack carries the receiver's full out-of-order map as coalesced
	// selective-acknowledgment blocks [lo, hi), sorted and disjoint (not
	// the 3–4 blocks a real TCP option fits). A pooled packet keeps the
	// slice's capacity across recycles, so an empty Sack may be non-nil:
	// test len(Sack), not Sack != nil.
	Sack [][2]int64
	// Wire is the on-the-wire size in bytes including headers.
	Wire int
	// SentAt is the origin timestamp (RTT measurement).
	SentAt time.Duration
	// EchoTS echoes the data packet's SentAt back on the ACK.
	EchoTS time.Duration
	// Background marks cross-traffic packets that terminate at the
	// bottleneck sink.
	Background bool
	// Retransmit marks retransmitted data (diagnostics).
	Retransmit bool
	// pooled marks packets checked out of a PacketPool; only these are
	// recycled on delivery/drop (see PacketPool's ownership rule).
	pooled bool
}

// HeaderBytes is the IP+TCP/UDP header overhead per packet.
const HeaderBytes = 60

// MSS is the maximum segment payload used by the transport engines.
const MSS = 1400

// Receiver consumes packets at a hop or endpoint.
type Receiver interface {
	Receive(p *Packet)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(p *Packet)

// Receive implements Receiver.
func (f ReceiverFunc) Receive(p *Packet) { f(p) }

// Sink drops everything (used for cross-traffic termination).
type Sink struct{ Count int64 }

// Receive implements Receiver.
func (s *Sink) Receive(p *Packet) { s.Count++ }
