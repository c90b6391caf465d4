// Package fabric models the Myrinet network fabric: point-to-point
// full-duplex links, crossbar switches with cut-through forwarding, and
// source-routed packets. A Myrinet packet begins with a sequence of route
// bytes — one per switch hop, each naming the output port — which switches
// strip as the packet advances; the remainder (the GM-level header and
// payload) is opaque to the fabric and protected by a trailing CRC.
//
// Differences from the real wire protocol, and why they don't matter here:
// the model forwards whole packets with a cut-through latency term rather
// than individual flits (the latency/bandwidth terms are preserved; flit
// interleaving below 4 KB packets is not observable in the paper's
// experiments), and route bytes are absolute output-port indices rather
// than Myrinet's signed deltas (a naming choice invisible above the mapper).
package fabric

import (
	"fmt"
	"hash/crc32"

	"repro/internal/sim"
)

// Packet is a unit of transfer on the fabric. Route holds the remaining
// route bytes; Payload is the GM-level content; CRC covers Payload.
//
// Packets normally come from the process-wide arena (GetPacket/Release, see
// pool.go); literal construction still works for tests and one-off traffic.
// Payload may be written freely through Buf before SealCRC; code that
// mutates Payload through other means after sealing must call
// InvalidateCRC, or CRCOk will keep reporting the seal-time verdict.
type Packet struct {
	Route   []byte
	Payload []byte
	CRC     uint32

	// Tracing metadata; not part of the wire image.
	ID       uint64
	SrcLabel string
	Injected sim.Time

	// crcValid caches "CRC matches Payload": set by SealCRC, cleared by
	// Buf/CorruptPayload/InvalidateCRC. It lets CRCOk answer without
	// rehashing the payload — the checksum is computed once at injection
	// and (for damaged or literal packets only) once at delivery, instead
	// of once per hop.
	crcValid bool

	// Arena bookkeeping (pool.go). pooled marks packets born in the arena;
	// live guards against double release. buf is the owned payload storage
	// Buf slices into; routeBuf backs CopyRoute for short routes.
	pooled   bool
	live     bool
	buf      []byte
	routeBuf [16]byte
}

// HeaderBytes is the fixed per-packet framing overhead on the wire beyond
// route bytes and payload (type field + CRC trailer), in bytes.
const HeaderBytes = 8

// WireSize is the number of bytes the packet occupies on a link.
func (p *Packet) WireSize() int { return len(p.Route) + len(p.Payload) + HeaderBytes }

// SealCRC computes and stores the payload CRC.
func (p *Packet) SealCRC() {
	p.CRC = crc32.ChecksumIEEE(p.Payload)
	p.crcValid = true
}

// CRCOk reports whether the stored CRC matches the payload. Sealed,
// undamaged packets answer from the cached seal verdict; only literal or
// damaged packets pay for a checksum here.
func (p *Packet) CRCOk() bool {
	return p.crcValid || p.CRC == crc32.ChecksumIEEE(p.Payload)
}

// InvalidateCRC discards the cached seal verdict, forcing the next CRCOk to
// rehash the payload. Call it after mutating Payload outside the packet's
// own mutators.
func (p *Packet) InvalidateCRC() { p.crcValid = false }

// CorruptPayload flips a bit of the payload (for fault experiments). The CRC
// is left stale so receivers detect the damage, unless reseal is true, which
// models corruption that happened before the CRC was computed — the damage
// then slips past the link-level check, exactly the "Messages Corrupted"
// failure mode of Table 1.
func (p *Packet) CorruptPayload(bit int, reseal bool) {
	if len(p.Payload) == 0 {
		return
	}
	idx := (bit / 8) % len(p.Payload)
	p.Payload[idx] ^= 1 << (bit % 8)
	p.crcValid = false
	if reseal {
		p.SealCRC()
	}
}

// Clone deep-copies the packet (route and payload) through the arena; the
// copy must be released like any checked-out packet.
func (p *Packet) Clone() *Packet {
	cp := GetPacket()
	cp.CopyRoute(p.Route)
	copy(cp.Buf(len(p.Payload)), p.Payload)
	cp.CRC = p.CRC
	cp.crcValid = p.crcValid
	cp.ID = p.ID
	cp.SrcLabel = p.SrcLabel
	cp.Injected = p.Injected
	return cp
}

// String summarizes the packet for traces.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d[route=%v payload=%dB]", p.ID, p.Route, len(p.Payload))
}
