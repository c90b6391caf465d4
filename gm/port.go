package gm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gmproto"
	"repro/internal/sim"
)

// SendCallback reports the outcome of a send; invoking it returns the send
// token to the process (§3.1: "a send token is implicitly passed back to
// the process when its callback function is called").
type SendCallback func(status SendStatus)

// RecvEvent is a delivered message.
type RecvEvent struct {
	Data    []byte
	Src     NodeID
	SrcPort PortID
	Prio    Priority
	Seq     uint32
}

// RecvHandler consumes delivered messages.
type RecvHandler func(ev RecvEvent)

// Event is a port-level event the application may observe through the
// generic handler path (alarms, buffer starvation). FAULT_DETECTED never
// reaches the application: the library's Unknown path consumes it (§4.4).
type Event struct {
	Type    gmproto.EventType
	Src     NodeID
	SrcPort PortID
}

// PortStats counts library-level port activity.
type PortStats struct {
	Sends      uint64
	SendErrors uint64
	Receives   uint64
	Recoveries uint64
}

// Port is a GM communication endpoint. All methods must be called from
// simulation callbacks (the library is single-threaded in virtual time,
// like a GM process polling its receive queue).
type Port struct {
	node *Node
	id   PortID
	open bool

	// shadow is the §4.1 backup: copies of every token in the LANai's
	// possession plus the host-generated sequence streams.
	shadow     *core.ShadowStore
	sendTokens int
	nextToken  uint64
	callbacks  map[uint64]SendCallback

	recvHandler  RecvHandler
	alarmHandler func()
	eventHandler func(Event)

	// polling-mode state (EnablePolling/Receive, the gm_receive() style).
	polling   bool
	pollQueue []gmproto.Event

	// recovering holds application sends in the shadow store while the
	// FAULT_DETECTED handler runs; the handler re-posts everything in
	// sequence order when it reopens the port (§4.4).
	recovering bool

	// registered directed-send regions (re-pinned after recovery).
	regions    []*Region
	nextRegion uint32

	// Deferred dispatchers for the per-message host-overhead delays (token
	// post, receive delivery, send callback). Each overhead is a constant,
	// so due times are nondecreasing and one pending engine event per
	// dispatcher replaces a closure-carrying event per message.
	tokPend  *sim.Deferred[gmproto.RecvToken]
	recvPend *sim.Deferred[recvDispatch]
	cbPend   *sim.Deferred[cbDispatch]
	postPend *sim.Deferred[gmproto.SendToken]

	stats PortStats

	// Periodic-checkpoint dirty bits (gm periodic.go): epoch stamps.
	// ckptMark == node.ckptEpoch means the port's checkpointable state
	// changed this interval; regionMarks parallels regions and stamps
	// directed-deposit targets.
	ckptMark    uint64
	regionMarks []uint64
}

// recvDispatch is one committed delivery waiting out the host receive
// overhead. poll is latched at commit time, as the inline dispatch did.
type recvDispatch struct {
	ev   gmproto.Event
	poll bool
}

// cbDispatch is one send callback waiting out its host overhead share.
type cbDispatch struct {
	cb     SendCallback
	status SendStatus
}

// ID returns the port number.
func (p *Port) ID() PortID { return p.id }

// Node returns the owning node.
func (p *Port) Node() *Node { return p.node }

// Stats returns the port's counters.
func (p *Port) Stats() PortStats { return p.stats }

// SendTokensAvailable reports the process's remaining send tokens.
func (p *Port) SendTokensAvailable() int { return p.sendTokens }

// SetReceiveHandler installs the message consumer.
func (p *Port) SetReceiveHandler(fn RecvHandler) { p.recvHandler = fn }

// SetAlarmHandler installs the gm_set_alarm() callback.
func (p *Port) SetAlarmHandler(fn func()) { p.alarmHandler = fn }

// SetEventHandler installs an observer for non-message events.
func (p *Port) SetEventHandler(fn func(Event)) { p.eventHandler = fn }

// SetAlarm asks the interface to post an alarm at virtual time t.
func (p *Port) SetAlarm(t Time) { p.node.m.HostSetAlarm(p.id, t) }

// OutstandingSendIDs returns the token ids of the port's unacknowledged
// sends in posting order. After a Restore these are the checkpointed sends
// whose completion callbacks did not survive host death; the reattach hook
// pairs it with SetSendCompletion to re-arm them.
func (p *Port) OutstandingSendIDs() []uint64 {
	toks := p.shadow.OutstandingSends()
	ids := make([]uint64, len(toks))
	for i, t := range toks {
		ids[i] = t.ID
	}
	return ids
}

// SetSendCompletion installs a completion callback for an outstanding send
// token. Callback closures do not survive host death, so a restored port's
// re-posted sends would otherwise complete silently; the reattach hook
// re-arms pacing callbacks here before any token is re-posted. Replaces an
// existing callback for the token; errors if the token is not outstanding.
func (p *Port) SetSendCompletion(tokenID uint64, cb SendCallback) error {
	if !p.open {
		return ErrPortClosed
	}
	for _, t := range p.shadow.OutstandingSends() {
		if t.ID == tokenID {
			p.callbacks[tokenID] = cb
			return nil
		}
	}
	return fmt.Errorf("%w: send token %d not outstanding", ErrBadArgument, tokenID)
}

// Send transmits data to (dest, destPort) with a completion callback,
// consuming a send token. In FTGM mode the library backs up the token and
// stamps it with the next host-generated sequence number of the (port,
// dest) stream before handing it to the LANai (§4.1). The data slice is
// captured, not copied: it models the pinned send buffer, which the
// process must not touch until the callback fires.
func (p *Port) Send(dest NodeID, destPort PortID, prio Priority, data []byte, cb SendCallback) error {
	if !p.open {
		return ErrPortClosed
	}
	if !prio.Valid() {
		return fmt.Errorf("%w: priority %d", ErrBadArgument, prio)
	}
	if p.node.unreachable[dest] {
		return ErrPeerUnreachable
	}
	if p.sendTokens <= 0 {
		return ErrNoSendTokens
	}
	p.markCkpt()
	p.sendTokens--
	p.nextToken++
	tok := gmproto.SendToken{
		ID:       p.nextToken,
		Dest:     dest,
		DestPort: destPort,
		SrcPort:  p.id,
		Prio:     prio,
		Data:     data,
	}
	cfg := p.node.cluster.cfg.Host
	cost := cfg.SendOverhead
	if p.node.cluster.cfg.Mode == ModeFTGM {
		// The backup copy and the sequence stamp are the send-side
		// housekeeping the paper prices at ~0.25 µs (§5.1).
		cost += cfg.FTGMSendExtra
		if cfg.PerConnectionSeqSync {
			// Ablation: per-connection sequence spaces force processes
			// sharing a connection to synchronize (§4.1's rejected design).
			cost += cfg.SeqSyncOverhead
		}
		tok.Seq = p.shadow.NextSeq(dest, prio)
		tok.HasSeq = true
	}
	p.shadow.AddSendToken(tok)
	if cb != nil {
		p.callbacks[tok.ID] = cb
	}
	p.node.cpu.ChargeSend(cost)
	p.stats.Sends++
	p.postPend.After(cost, tok)
	return nil
}

// ProvideReceiveBuffer gives the interface a freshly allocated receive
// buffer of the given size and priority, relinquishing a receive token
// (§3.1). The LANai deposits message bytes directly into the buffer; the
// slice delivered in RecvEvent.Data is the buffer itself, which the
// application may hand back with RecycleReceiveBuffer once consumed.
func (p *Port) ProvideReceiveBuffer(size uint32, prio Priority) error {
	if !p.open {
		return ErrPortClosed
	}
	if !prio.Valid() || size == 0 {
		return fmt.Errorf("%w: size %d prio %d", ErrBadArgument, size, prio)
	}
	p.postRecvToken(gmproto.RecvToken{Size: size, Prio: prio, Buf: make([]byte, size)})
	return nil
}

// RecycleReceiveBuffer re-provides a delivered message's buffer (a
// RecvEvent.Data slice) as a receive buffer of its full original capacity —
// the steady-state receive loop then runs without allocating. The caller
// must be done with the bytes: the next message overwrites them.
func (p *Port) RecycleReceiveBuffer(buf []byte, prio Priority) error {
	if !p.open {
		return ErrPortClosed
	}
	size := uint32(cap(buf))
	if !prio.Valid() || size == 0 {
		return fmt.Errorf("%w: size %d prio %d", ErrBadArgument, size, prio)
	}
	p.postRecvToken(gmproto.RecvToken{Size: size, Prio: prio, Buf: buf[:size]})
	return nil
}

func (p *Port) postRecvToken(tok gmproto.RecvToken) {
	p.markCkpt()
	p.nextToken++
	tok.ID = p.nextToken
	p.shadow.AddRecvToken(tok)
	cost := p.node.cluster.cfg.Host.ProvideOverhead
	p.node.cpu.Charge(cost)
	p.tokPend.After(cost, tok)
}

// mcpSink receives events from the LANai's receive queue. It performs the
// library bookkeeping at commit time (shadow/ACK-table updates), then
// dispatches to the application after the host receive overhead.
func (p *Port) mcpSink(ev gmproto.Event) {
	cfg := p.node.cluster.cfg.Host
	switch ev.Type {
	case gmproto.EvReceived:
		// Commit-time bookkeeping: the event carries the sequence number
		// of the message just ACKed so the host can keep its per-stream
		// ACK table current (§4.1). The recv-token shadow copy is deleted
		// now, too.
		if p.node.cluster.cfg.Mode == ModeFTGM {
			p.node.rxAcks.Update(gmproto.StreamID{Node: ev.Src, Port: ev.SrcPort, Prio: ev.Prio}, ev.Seq)
		}
		p.markCkpt()
		p.shadow.RemoveRecvToken(ev.TokenID)
		cost := cfg.RecvOverhead
		if p.node.cluster.cfg.Mode == ModeFTGM {
			// "...the receiver has to update two hash tables for every
			// receive" (§5.1): ~0.4 µs extra.
			cost += cfg.FTGMRecvExtra
		}
		p.node.cpu.ChargeRecv(cost)
		p.stats.Receives++
		p.recvPend.After(cost, recvDispatch{ev: ev, poll: p.polling})
	case gmproto.EvDirectedDeposit:
		// A directed deposit committed: no receive token was consumed and
		// the application is never notified (GM semantics), but the §4.1
		// ACK table must record the sequence number — the deposit is part
		// of the checkpointable recovery anchor, and a restored MCP seeded
		// without it would NACK the stream's retransmissions forever. The
		// record is consumed here; it never reaches handlers or the poll
		// queue.
		if p.node.cluster.cfg.Mode == ModeFTGM {
			p.node.rxAcks.Update(gmproto.StreamID{Node: ev.Src, Port: ev.SrcPort, Prio: ev.Prio}, ev.Seq)
			p.node.cpu.Charge(cfg.FTGMRecvExtra)
		}
		p.markRegion(ev.RegionID)
	case gmproto.EvSent, gmproto.EvSendError:
		// The send token comes back: drop the shadow copy just before the
		// callback runs (§4.1).
		p.markCkpt()
		p.shadow.RemoveSendToken(ev.TokenID)
		p.sendTokens++
		cb := p.callbacks[ev.TokenID]
		delete(p.callbacks, ev.TokenID)
		if ev.Type == gmproto.EvSendError {
			p.stats.SendErrors++
		}
		if cb != nil {
			p.node.cpu.Charge(cfg.SendOverhead / 2)
			p.cbPend.After(cfg.SendOverhead/2, cbDispatch{cb: cb, status: ev.Status})
		}
	default:
		if p.polling {
			// Internal events wait in the receive queue until the process
			// polls — including FAULT_DETECTED, whose handling begins only
			// when the application's gm_receive() loop passes it to
			// Unknown (§4.4: "the asynchronous nature of communication in
			// GM requires a user process to occasionally poll the receive
			// queue").
			p.enqueuePoll(ev)
			return
		}
		p.Unknown(ev)
	}
}

// Unknown is the gm_unknown() path: events the application does not handle
// are passed here and handled "in a default manner" (§3.1). Recovery
// transparency lives here: the FAULT_DETECTED event triggers the §4.4
// handler sequence without the application ever seeing it.
func (p *Port) Unknown(ev gmproto.Event) {
	switch ev.Type {
	case gmproto.EvFaultDetected:
		p.stats.Recoveries++
		p.node.dispatchRecovery(p)
	case gmproto.EvAlarm:
		if p.alarmHandler != nil {
			p.alarmHandler()
		}
	case gmproto.EvNoRecvBuffer:
		if p.eventHandler != nil {
			p.eventHandler(Event{Type: ev.Type, Src: ev.Src, SrcPort: ev.SrcPort})
		}
	default:
		if p.eventHandler != nil {
			p.eventHandler(Event{Type: ev.Type, Src: ev.Src, SrcPort: ev.SrcPort})
		}
	}
}
