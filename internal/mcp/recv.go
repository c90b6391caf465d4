package mcp

import (
	"repro/internal/fabric"
	"repro/internal/gmproto"
	"repro/internal/sim"
)

// rxStream is the receiver side of one stream. Two sequence marks matter:
//
//   - arrivedSeq: the highest in-order message that has fully arrived. It
//     governs accept/duplicate/NACK decisions, so later messages keep
//     flowing while earlier ones are still being DMAed — FTGM delays the
//     ACK, not acceptance ("several packets ... in-flight at the same
//     time", §5.1).
//   - committedSeq: the highest message whose bytes and event record are in
//     host memory. FTGM ACKs carry this value (the delayed commit point of
//     §4.1); stock GM ACKs carry arrivedSeq (the Figure 5 vulnerability).
type rxStream struct {
	arrivedSeq   uint32
	committedSeq uint32
	partial      *partialMsg
}

// ackValue is the cumulative sequence number this mode may safely ACK.
func (rs *rxStream) ackValue(mode Mode) uint32 {
	if mode == ModeFTGM {
		return rs.committedSeq
	}
	return rs.arrivedSeq
}

type partialMsg struct {
	hdr       gmproto.DataHeader
	buf       []byte
	arrived   uint32
	dmaDone   uint32
	tok       gmproto.RecvToken // the consumed receive token (zero if directed)
	committed bool
	directed  bool // deposit into registered memory; no token, no event
}

// trackService records custody of a packet whose handler closure sits on
// the processor's Exec queue: a card reset wipes that queue without running
// the closures, and Shutdown/LoadAndStart must release what they held.
func (m *MCP) trackService(pkt *fabric.Packet) { m.inService = append(m.inService, pkt) }

// finishService releases a packet whose handler has run and drops custody.
func (m *MCP) finishService(pkt *fabric.Packet) {
	for i, p := range m.inService {
		if p == pkt {
			m.inService = append(m.inService[:i], m.inService[i+1:]...)
			break
		}
	}
	pkt.Release()
}

// serviceRecvRing drains the packet interface's ring one packet per
// processor slot. Ring packets are owned by this service loop: every path
// below — early drop or handler — releases the packet back to the arena
// once its bytes are no longer needed (for DATA fragments, after the copy
// into the host receive buffer; the model's DMA-complete point).
func (m *MCP) serviceRecvRing() {
	pkt := m.chip.PopRecv()
	if pkt == nil {
		return
	}
	if len(pkt.Route) != 0 {
		// Route bytes left over at an interface: the packet was launched
		// with a route that does not terminate here (a mapper scout probing
		// past a NIC, or a corrupted route). Hardware discards it.
		m.stats.MisroutedDrops++
		pkt.Release()
		m.chip.Exec(0, m.ringFn)
		return
	}
	if !pkt.CRCOk() {
		// Link-level corruption: GM silently drops; the sender's
		// Go-Back-N recovers (§2).
		m.stats.CorruptDropped++
		pkt.Release()
		m.chip.Exec(0, m.ringFn)
		return
	}
	t, err := gmproto.PeekType(pkt.Payload)
	if err != nil {
		m.stats.BadHeaderDrops++
		pkt.Release()
		m.chip.Exec(0, m.ringFn)
		return
	}
	// Handlers are queued through the svc ring: the decoded header waits in
	// a plain struct and one cached callback per item replaces a captured
	// closure per packet (the Exec queue keeps them aligned in FIFO order).
	switch t {
	case gmproto.PTData:
		h, frag, err := gmproto.DecodeData(pkt.Payload)
		if err != nil {
			m.stats.BadHeaderDrops++
			pkt.Release()
			m.chip.Exec(0, m.ringFn)
			return
		}
		m.trackService(pkt)
		m.pushSvc(svcItem{kind: svcData, dh: h, frag: frag, pkt: pkt}, m.cfg.RecvProcA)
	case gmproto.PTAck:
		h, err := gmproto.DecodeAck(pkt.Payload)
		if err != nil {
			m.stats.BadHeaderDrops++
			pkt.Release()
			m.chip.Exec(0, m.ringFn)
			return
		}
		pkt.Release() // header fully decoded; nothing references the bytes
		m.pushSvc(svcItem{kind: svcAck, ah: h}, m.cfg.AckProc)
	case gmproto.PTNack:
		h, err := gmproto.DecodeAck(pkt.Payload)
		if err != nil {
			m.stats.BadHeaderDrops++
			pkt.Release()
			m.chip.Exec(0, m.ringFn)
			return
		}
		pkt.Release()
		m.pushSvc(svcItem{kind: svcNack, ah: h}, m.cfg.AckProc)
	case gmproto.PTMapScout, gmproto.PTMapReply, gmproto.PTMapConfig, gmproto.PTGossip:
		m.trackService(pkt)
		m.pushSvc(svcItem{kind: svcMap, pt: t, pkt: pkt}, m.cfg.AckProc)
	default:
		m.stats.BadHeaderDrops++
		pkt.Release()
		m.chip.Exec(0, m.ringFn)
	}
}

// pushSvc queues a decoded packet for its handler slot. serviceRecvRing
// only runs on the processor, so the chip is running and the Exec is never
// dropped — the ring and the queued callbacks stay 1:1.
func (m *MCP) pushSvc(it svcItem, cost sim.Duration) {
	if m.svcHead > 0 && m.svcHead == len(m.svcQ) {
		m.svcQ = m.svcQ[:0]
		m.svcHead = 0
	}
	m.svcQ = append(m.svcQ, it)
	m.chip.Exec(cost, m.svcFn)
}

// handleData processes one arriving DATA fragment: sequence check against
// the stream, reassembly, per-fragment DMA to the user buffer, and the
// mode-dependent commit/ACK point.
func (m *MCP) handleData(h gmproto.DataHeader, frag []byte) {
	m.stats.FragmentsRecvd++
	if h.Dst != m.nodeID {
		m.stats.MisroutedDrops++
		return
	}
	// Defensive validation: headers can arrive corrupted-but-CRC-valid
	// when the damage predates the CRC seal.
	if !h.Prio.Valid() || h.MsgLen > m.cfg.MaxMsgSize ||
		uint64(h.Offset)+uint64(len(frag)) > uint64(h.MsgLen) ||
		(h.MsgLen > 0 && len(frag) == 0) {
		m.stats.BadHeaderDrops++
		return
	}
	ps := m.port(h.DstPort)
	if ps == nil || !ps.open {
		m.stats.ClosedPortDrops++
		return
	}

	streamPort := h.SrcPort
	if m.mode == ModeGM {
		streamPort = gmproto.ConnectionPort
	}
	id := gmproto.StreamID{Node: h.Src, Port: streamPort, Prio: h.Prio}
	rs, known := m.rx[id]
	if !known {
		// First contact on this stream. Mid-message fragments cannot
		// establish a stream; the sender's Go-Back-N resends the whole
		// message.
		if h.Offset != 0 {
			m.stats.BadHeaderDrops++
			return
		}
		if m.mode == ModeFTGM {
			// FTGM sequence spaces live in host memory, survive MCP
			// reloads, and always start at 1, so an unknown stream is
			// either genuine first contact (Seq 1) or a reloaded MCP
			// seeing a mid-window retransmit before the FAULT_DETECTED
			// handler has uploaded the ACK table (§4.4). Adopting a
			// mid-stream number here would skip — and then dup-ACK away —
			// the sender's unacknowledged window, so the stream starts at
			// zero and anything later is NACKed until the restore lands.
			rs = &rxStream{}
		} else {
			// Stock GM is connectionless with MCP-generated sequence
			// numbers: the receiver synchronizes to the sender's current
			// number (connection establishment is implicit).
			rs = &rxStream{arrivedSeq: h.Seq - 1, committedSeq: h.Seq - 1}
		}
		m.rx[id] = rs
	}
	expected := rs.arrivedSeq + 1

	switch {
	case h.Seq <= rs.arrivedSeq:
		// Duplicate of a message already held: discard, and re-ACK the
		// commit mark once per message so the sender stops resending
		// (§3.1.1).
		m.stats.DupDropped++
		if h.Offset == 0 {
			m.sendControl(gmproto.AckHeader{
				Src: m.nodeID, Dst: h.Src, SrcPort: streamPort, Prio: h.Prio,
				AckSeq: rs.ackValue(m.mode),
			})
		}
		return
	case h.Seq > expected:
		// Out of order: NACK with the expected sequence number so the
		// sender goes back (§3.1.1).
		m.stats.OutOfOrderNack++
		if h.Offset == 0 {
			m.sendControl(gmproto.AckHeader{
				Src: m.nodeID, Dst: h.Src, SrcPort: streamPort, Prio: h.Prio,
				AckSeq: expected, Nack: true,
			})
		}
		return
	}

	// h.Seq == expected: fragment of the message being assembled.
	p := rs.partial
	if p != nil && (p.hdr.MsgID != h.MsgID || p.hdr.Seq != h.Seq) {
		// The sender restarted this message (e.g. Go-Back-N rewound mid
		// message); restart reassembly.
		if !p.directed {
			m.returnRecvToken(ps, p)
		}
		p = nil
	}
	if p == nil {
		if h.Directed {
			// Directed send: deposit into the registered region, no
			// receive token, no event. Out-of-bounds deposits are
			// protocol violations and are dropped.
			region, ok := ps.regions[h.RegionID]
			if !ok || uint64(h.RemoteOffset)+uint64(h.MsgLen) > uint64(len(region)) {
				m.stats.BadHeaderDrops++
				return
			}
			p = m.getPartial()
			p.hdr = h
			p.buf = region[h.RemoteOffset : h.RemoteOffset+h.MsgLen]
			p.directed = true
			rs.partial = p
		} else {
			tok, ok := m.takeRecvToken(ps, h.Prio, h.MsgLen)
			if !ok {
				// No receive buffer: drop; the sender's timeout will retry,
				// and the process learns it is starving the port.
				m.stats.NoBufferDrops++
				if ps.sink != nil && h.Offset == 0 {
					m.postEvent(ps.sink, gmproto.Event{
						Type: gmproto.EvNoRecvBuffer, Port: h.DstPort,
						Src: h.Src, SrcPort: h.SrcPort,
					})
				}
				return
			}
			// Reassemble straight into the token's host buffer: the message
			// crosses from wire packet to application memory with one copy
			// and no allocation. Tokens posted without a buffer (direct-MCP
			// tests) fall back to allocating at delivery.
			buf := tok.Buf
			if buf != nil {
				buf = buf[:h.MsgLen]
			} else {
				buf = make([]byte, h.MsgLen)
			}
			p = m.getPartial()
			p.hdr, p.buf, p.tok = h, buf, tok
			rs.partial = p
		}
	}
	copy(p.buf[h.Offset:], frag)
	p.arrived += uint32(len(frag))

	if p.arrived >= p.hdr.MsgLen {
		// Message fully arrived: the stream accepts the next one.
		rs.arrivedSeq = h.Seq
		rs.partial = nil
		if m.mode == ModeGM || m.cfg.ImmediateAck {
			// Stock GM commit point: ACK as soon as the message has fully
			// arrived, before the DMA into the user buffer (§3.1.2). This
			// is the lost-message window of Figure 5. (FTGM reaches this
			// path only under the ImmediateAck ablation.)
			m.sendControl(gmproto.AckHeader{
				Src: m.nodeID, Dst: h.Src, SrcPort: streamPort, Prio: h.Prio, AckSeq: h.Seq,
			})
		}
	}

	// Per-fragment DMA into the pinned user buffer; fragments of one
	// message pipeline through the DMA engine (§5.1). The completion record
	// waits in the commit ring; DMA completions fire in issue order, so the
	// cached callback pops the matching record without a per-fragment
	// closure.
	n := len(frag)
	if n == 0 {
		n = 1 // zero-length message still costs a descriptor write
	}
	if m.commitHead > 0 && m.commitHead == len(m.commitQ) {
		m.commitQ = m.commitQ[:0]
		m.commitHead = 0
	}
	m.commitQ = append(m.commitQ, dmaCommit{ps: ps, rs: rs, id: id, p: p, n: uint32(len(frag))})
	m.chip.HostDMA(n, m.commitFn)
}

// maybeCommit delivers the message to the host once every byte has both
// arrived and been DMAed. Commit order matters for fault tolerance: the
// event (with its sequence number) reaches host memory first, then the ACK
// is released under FTGM — so a hang between the two can only cause a
// retransmission, never a loss (§4.1).
func (m *MCP) maybeCommit(ps *portState, rs *rxStream, id gmproto.StreamID, p *partialMsg) {
	if p.committed || p.arrived < p.hdr.MsgLen || p.dmaDone < p.hdr.MsgLen {
		return
	}
	p.committed = true
	proc := m.cfg.RecvProcB
	if m.mode == ModeFTGM {
		proc += m.cfg.FTGMRecvExtra
	}
	it := deliverItem{
		ps: ps, rs: rs,
		src: p.hdr.Src, port: id.Port, prio: id.Prio,
		seq: p.hdr.Seq, directed: p.directed,
	}
	if p.directed {
		// Library-internal commit record: under FTGM it is DMAed to the
		// host so the §4.1 ACK table learns the deposit's sequence number
		// before the ACK leaves — the deposit becomes part of the
		// checkpointable recovery anchor.
		it.ev = gmproto.Event{
			Type:     gmproto.EvDirectedDeposit,
			Port:     p.hdr.DstPort,
			Src:      p.hdr.Src,
			SrcPort:  p.hdr.SrcPort,
			Prio:     p.hdr.Prio,
			Seq:      p.hdr.Seq,
			RegionID: p.hdr.RegionID,
		}
	} else {
		it.ev = gmproto.Event{
			Type:    gmproto.EvReceived,
			Port:    p.hdr.DstPort,
			Src:     p.hdr.Src,
			SrcPort: p.hdr.SrcPort,
			Prio:    p.hdr.Prio,
			Seq:     p.hdr.Seq,
			TokenID: p.tok.ID,
			Data:    p.buf,
		}
	}
	// The DMA pop that triggered this commit was the last reference to the
	// reassembly record: every fragment completion has been consumed
	// (dmaDone just reached MsgLen) and rs.partial moved on when the final
	// fragment arrived, so the record recycles before delivery even runs.
	m.freePartial(p)
	if m.deliverHead > 0 && m.deliverHead == len(m.deliverQ) {
		m.deliverQ = m.deliverQ[:0]
		m.deliverHead = 0
	}
	m.deliverQ = append(m.deliverQ, it)
	m.chip.Exec(proc, m.deliverFn)
}

// takeRecvToken reserves the first receive token matching the message's
// priority and size. The real MCP hashes by size class; the linear scan is
// behaviorally identical.
func (m *MCP) takeRecvToken(ps *portState, prio gmproto.Priority, size uint32) (gmproto.RecvToken, bool) {
	for i, tok := range ps.recvTokens {
		if tok.Prio == prio && tok.Size >= size {
			ps.recvTokens = append(ps.recvTokens[:i], ps.recvTokens[i+1:]...)
			return tok, true
		}
	}
	return gmproto.RecvToken{}, false
}

// returnRecvToken puts an abandoned reassembly's token back, buffer and
// all; the restarted message reuses it.
func (m *MCP) returnRecvToken(ps *portState, p *partialMsg) {
	ps.recvTokens = append(ps.recvTokens, p.tok)
}
