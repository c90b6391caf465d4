package fabric

import (
	"sync"
	"sync/atomic"
)

// Packet pooling. The data path checks packets out of a process-wide arena,
// fills them in place, and releases them exactly once when the fabric is done
// with them. The ownership contract (DESIGN.md §11):
//
//   - The *sender* (MCP transmit path, mapper RawTransmit) checks a packet
//     out with GetPacket, writes the payload into Buf, seals the CRC, and
//     hands it to the fabric. From that instant the packet belongs to
//     whatever holds it next; the sender must not touch it again.
//   - The *fabric* (links, switches) transfers ownership hop by hop. Every
//     drop point — downed link, fault drop, route exhaustion, dead port,
//     full receive ring, chip reset — releases the packet it eats.
//   - The *receiver* (MCP receive service) releases the packet after the
//     handler for it has run, once the fragment bytes have been copied into
//     the host receive buffer (the model's DMA-complete point).
//
// Release on a packet built as a plain literal (tests, externally owned
// buffers) is a no-op, so drop points need not care where a packet came
// from. Double-releasing a pooled packet panics: it means two owners, which
// is exactly the corruption the contract exists to prevent.

// pooledPayloadCap is the payload capacity packets are born with: the
// largest data packet (gmproto.DataHeaderSize + MaxPacketPayload ≈ 4.1 KB)
// plus slack, so steady-state traffic never grows a buffer.
const pooledPayloadCap = 4352

var pktPool = sync.Pool{
	New: func() any {
		return &Packet{buf: make([]byte, 0, pooledPayloadCap), pooled: true}
	},
}

// Pool leak accounting. live is the number of packets checked out and not
// yet released; a quiesced simulation must bring it back to its starting
// value, which the chaos campaign leak test asserts.
var (
	poolCheckouts atomic.Uint64
	poolReleases  atomic.Uint64
	poolLive      atomic.Int64
)

// PoolCounters is a snapshot of the packet arena's leak accounting.
type PoolCounters struct {
	Checkouts uint64
	Releases  uint64
	Live      int64
}

// PoolStats returns the arena's checkout/release counters. Live ==
// Checkouts - Releases is the number of packets currently owned by some
// layer of the stack.
func PoolStats() PoolCounters {
	return PoolCounters{
		Checkouts: poolCheckouts.Load(),
		Releases:  poolReleases.Load(),
		Live:      poolLive.Load(),
	}
}

// GetPacket checks a packet out of the arena. The packet is empty (no
// route, zero-length payload) and must be released exactly once.
func GetPacket() *Packet {
	p := pktPool.Get().(*Packet)
	p.live = true
	poolCheckouts.Add(1)
	poolLive.Add(1)
	return p
}

// Release returns a pooled packet to the arena. On packets not from the
// arena it is a no-op; releasing a pooled packet twice panics.
func (p *Packet) Release() {
	if !p.pooled {
		return
	}
	if !p.live {
		panic("fabric: pooled packet released twice")
	}
	p.live = false
	p.Route = nil
	p.Payload = nil
	p.CRC = 0
	p.ID = 0
	p.SrcLabel = ""
	p.Injected = 0
	p.crcValid = false
	poolReleases.Add(1)
	poolLive.Add(-1)
	pktPool.Put(p)
}

// Buf resizes the packet's owned payload storage to n bytes and points
// Payload at it. The contents are unspecified (callers overwrite every
// byte); the CRC becomes stale until the next SealCRC.
func (p *Packet) Buf(n int) []byte {
	if cap(p.buf) < n {
		p.buf = make([]byte, 0, n)
	}
	p.Payload = p.buf[:n]
	p.crcValid = false
	return p.Payload
}

// CopyRoute stores an owned copy of route in the packet, using the inline
// route buffer when it fits, for senders whose route slice may be reused or
// mutated after transmission. Senders whose route bytes are immutable for
// the packet's lifetime (the MCP's epoch-copied route table) can assign
// p.Route directly instead and skip the copy.
func (p *Packet) CopyRoute(route []byte) {
	if len(route) <= len(p.routeBuf) {
		p.Route = p.routeBuf[:len(route):len(route)]
	} else {
		p.Route = make([]byte, len(route))
	}
	copy(p.Route, route)
}
