package gm

import (
	"errors"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/gmproto"
	"repro/internal/sim"
)

// Host-failure tolerance: endpoint checkpoint/restart.
//
// The paper's continuous backup (§4.1) keeps the recovery anchor — shadow
// token queues, host-generated sequence streams, the per-stream ACK table —
// in host memory, where it survives an interface hang. This file extends the
// same anchor across host death: Checkpoint serializes it through the
// internal/ckpt wire codec at a drained instant, Kill models the host (and
// with it the interface) dying, and Restore stands a replacement process up
// on the same slot, replaying the §4.4 restoration sequence against a
// freshly loaded MCP. Rejoin is the post-expulsion variant: identity and
// routes come from the checkpoint, but the inter-peer protocol state starts
// over, matching the stream resets the peers performed when they expelled
// the node (DESIGN.md §15).

// Host-fault errors.
var (
	// ErrNotDrained means the endpoint has committed work still in flight
	// toward the application; checkpointing now could lose an acknowledged
	// message. Retry after the deferred dispatchers and poll queues drain.
	ErrNotDrained = errors.New("gm: node not drained")
	// ErrNodeDead rejects library calls against a killed host.
	ErrNodeDead = errors.New("gm: node is dead")
	// ErrNodeAlive rejects Restore/Rejoin on a host that was never killed.
	ErrNodeAlive = errors.New("gm: node is alive")
	// ErrCheckpointMismatch means the checkpoint belongs to a different node
	// slot (interface UID disagreement).
	ErrCheckpointMismatch = errors.New("gm: checkpoint does not match this node slot")
)

// Dead reports whether the host has been killed and not yet revived.
func (n *Node) Dead() bool { return n.dead }

// Drained reports whether the endpoint sits at a message boundary: no
// deferred dispatcher of any open port holds work, no polling-mode receive
// queue holds undelivered events, and no recovery handler is mid-flight.
// The condition matters because of the delayed ACK (§4.1): the MCP releases
// a message's ACK only after the host tables commit, and the windows where
// a committed-and-ACKed message has not yet reached the application are the
// port's deferred receive dispatch and — on a polling port — the receive
// queue the application has not yet drained with Receive. With every
// dispatcher and poll queue empty, everything the node has acknowledged has
// also been delivered; whatever is still inside the MCP is unacknowledged
// and the senders' Go-Back-N windows re-deliver it after a restore.
func (n *Node) Drained() bool {
	if n.dead || n.pendingRecoveries > 0 {
		return false
	}
	for _, p := range n.ports {
		if p.recovering || len(p.pollQueue) > 0 ||
			p.tokPend.Pending() > 0 || p.recvPend.Pending() > 0 ||
			p.cbPend.Pending() > 0 || p.postPend.Pending() > 0 {
			return false
		}
	}
	return true
}

// Checkpoint assembles the node's recovery anchor at a drained instant:
// interface identity, the authoritative route table, the receive ACK table,
// and per open port the token cursor, the outstanding shadow send/receive
// tokens in posting order, the sequence-stream cursors and the registered
// directed-send regions (geometry and contents: an acknowledged deposit
// lives only in the region buffer, so the bytes are part of the anchor).
// The result is deterministic (sections sorted) and serializes through
// ckpt.Encode into the versioned wire form the restore side decodes.
// Refuses with ErrNotDrained while committed work is still in flight to
// the application.
func (n *Node) Checkpoint() (*ckpt.Checkpoint, error) {
	if n.dead {
		return nil, ErrNodeDead
	}
	if !n.Drained() {
		return nil, ErrNotDrained
	}
	c := &ckpt.Checkpoint{UID: n.m.UID(), NodeID: n.m.NodeID()}

	routes := n.driver.Routes()
	ids := make([]NodeID, 0, len(routes))
	for id := range routes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		c.Routes = append(c.Routes, ckpt.Route{Node: id, Hops: append([]byte(nil), routes[id]...)})
	}

	acks := n.rxAcks.Snapshot()
	streams := make([]gmproto.StreamID, 0, len(acks))
	for id := range acks {
		streams = append(streams, id)
	}
	sort.Slice(streams, func(i, j int) bool {
		a, b := streams[i], streams[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		return a.Prio < b.Prio
	})
	for _, id := range streams {
		c.RxAcks = append(c.RxAcks, ckpt.RxAck{Stream: id, Seq: acks[id]})
	}

	for id := PortID(0); int(id) < MaxPorts; id++ {
		p, ok := n.ports[id]
		if !ok || !p.open {
			continue
		}
		pc := ckpt.PortCheckpoint{
			Port:       id,
			NextToken:  p.nextToken,
			NextRegion: p.nextRegion,
			SendTokens: p.shadow.OutstandingSends(),
			SeqStreams: p.shadow.SeqStreams(),
		}
		for _, rt := range p.shadow.OutstandingRecvs() {
			pc.RecvTokens = append(pc.RecvTokens, ckpt.RecvTokenCheckpoint{
				ID: rt.ID, Size: rt.Size, Prio: rt.Prio, BufLen: uint32(len(rt.Buf)),
			})
		}
		for _, r := range p.regions {
			pc.Regions = append(pc.Regions, ckpt.RegionCheckpoint{
				ID: r.ID, Data: append([]byte(nil), r.Buf...),
			})
		}
		c.Ports = append(c.Ports, pc)
	}
	return c, nil
}

// Kill models host death: the machine powers off, taking the interface —
// processor, timers, interrupt logic — down with it, and every library
// structure (ports, handlers, callbacks, shadow copies, ACK tables)
// vanishes. Peers see silence, not a FATAL; their Go-Back-N windows hold
// the unacknowledged traffic until the slot is revived. Idempotent.
func (n *Node) Kill() {
	if n.dead {
		return
	}
	n.dead = true
	n.reviveGen++
	// Host death takes the periodic checkpointer with it: its scheduled
	// events go inert (generation mismatch) and the chain ends here. The
	// frozen-port state dies with the MCP's port table below.
	if n.pc != nil && n.pc.active {
		n.pc.active = false
		n.pc.emitting = false
	}
	n.m.InjectHardHang()
	for id, p := range n.ports {
		p.open = false
		p.recvHandler, p.alarmHandler, p.eventHandler = nil, nil, nil
		p.callbacks = nil
		p.pollQueue = nil
		n.driver.ClosePort(id)
	}
	n.ports = make(map[PortID]*Port)
	n.rxAcks = core.NewRxAckTable()
	n.unreachable = make(map[NodeID]bool)
	n.pendingRecoveries = 0
	n.recoveryBusyUntil = 0
	n.eng.Tracef("node", "%s host killed", n.name)
}

// Restore revives a killed slot from a checkpoint with full state
// reinstatement: the replacement host reloads the MCP, reinstalls identity
// and routes from the checkpoint (its own memory starts empty), rebuilds
// each port's shadow store, token cursor, sequence streams and directed-send
// regions (contents included), and replays the §4.4 order — reopen,
// reattach, upload receive sequence table, re-post outstanding receive then
// send tokens with their original sequence numbers. Peers that kept their
// stream state dedup anything the fault window already delivered, so
// delivery stays exactly-once and in-order.
//
// reattach runs as soon as the restored ports exist and before any token is
// re-posted: the replacement process installs its receive handlers there
// (handler closures do not survive host death). The same applies to send
// completion callbacks: a checkpointed outstanding send is re-posted and
// completes, but its pre-death callback closure is gone and nothing fires
// unless the reattach hook re-arms one via Port.SetSendCompletion (the ids
// come from Port.OutstandingSendIDs). Applications that pace their pipeline
// on completions must re-arm or they will stall after a restore. done fires
// when the restore completes. Restore must land before the control plane
// expels the node; after an expulsion use Rejoin.
func (n *Node) Restore(c *ckpt.Checkpoint, reattach func(ports map[PortID]*Port), done func()) error {
	return n.revive(c, false, reattach, done)
}

// Rejoin revives a killed slot after the cluster expelled it: identity,
// routes and port shape come from the checkpoint, but the inter-peer
// protocol state — sequence streams, receive ACK table, outstanding sends —
// starts over. The peers forgot both stream directions when they expelled
// the node, so a symmetric restart at sequence 1 is the only consistent
// revival: reinstating the old cursors would wedge every stream (the peers
// NACK unknown high sequences and dup-drop restarted low ones). The
// checkpointed outstanding sends are disowned, exactly as the auditor's
// ExcuseSource contract expects of a dead sender.
func (n *Node) Rejoin(c *ckpt.Checkpoint, reattach func(ports map[PortID]*Port), done func()) error {
	return n.revive(c, true, reattach, done)
}

func (n *Node) revive(c *ckpt.Checkpoint, fresh bool, reattach func(ports map[PortID]*Port), done func()) error {
	if !n.dead {
		return ErrNodeAlive
	}
	if c == nil || c.UID != n.m.UID() {
		return ErrCheckpointMismatch
	}
	routes := make(map[NodeID][]byte, len(c.Routes))
	for _, r := range c.Routes {
		routes[r.Node] = append([]byte(nil), r.Hops...)
	}
	n.driver.SetRoutes(c.NodeID, routes)
	n.dead = false
	gen := n.reviveGen
	n.eng.Tracef("node", "%s host revive begins (fresh=%v)", n.name, fresh)
	n.chip.Reset()
	n.chip.ClearSRAM()
	n.driver.LoadMCP(func() {
		if n.dead || n.reviveGen != gen {
			return // another death landed while the MCP was loading
		}
		cfg := n.cluster.cfg.Host
		n.m.UploadRoutes(n.driver.Routes())
		n.m.RegisterPageTable(n.driver.PageTable().Len())
		n.rxAcks = core.NewRxAckTable()
		if !fresh {
			for _, a := range c.RxAcks {
				n.rxAcks.Update(a.Stream, a.Seq)
			}
		}
		restored := make(map[PortID]*Port, len(c.Ports))
		var handlerCost sim.Duration
		for _, pc := range c.Ports {
			p := n.buildPort(pc.Port)
			p.nextToken = pc.NextToken
			p.nextRegion = pc.NextRegion
			if !fresh {
				for _, tok := range pc.SendTokens {
					p.shadow.AddSendToken(tok)
				}
				for _, ss := range pc.SeqStreams {
					p.shadow.RestoreSeq(ss.Node, ss.Prio, ss.Last)
				}
				p.sendTokens -= len(pc.SendTokens)
			}
			for _, rt := range pc.RecvTokens {
				p.shadow.AddRecvToken(gmproto.RecvToken{
					ID: rt.ID, Size: rt.Size, Prio: rt.Prio, Buf: make([]byte, rt.BufLen),
				})
			}
			if err := n.driver.OpenPort(pc.Port, p.mcpSink); err != nil {
				n.eng.Tracef("node", "%s revive: reopen port %d: %v", n.name, pc.Port, err)
				continue
			}
			// Re-register the directed-send regions with the reloaded MCP
			// before peers' Go-Back-N windows retransmit into them: an
			// unregistered region would NACK the retransmissions forever.
			// Restore reinstates the checkpointed contents (acknowledged
			// deposits exist only here); Rejoin keeps the geometry — region
			// ids are application-level rendezvous — but zeroes the bytes,
			// consistent with disowning the rest of the protocol state.
			for _, rc := range pc.Regions {
				r := &Region{ID: rc.ID, Buf: make([]byte, len(rc.Data))}
				if !fresh {
					copy(r.Buf, rc.Data)
				}
				if err := n.m.HostRegisterRegion(p.id, r.ID, r.Buf); err != nil {
					n.eng.Tracef("node", "%s revive: region %d on port %d: %v", n.name, rc.ID, pc.Port, err)
					continue
				}
				_ = n.driver.PageTable().PinRange(int(p.id), uint64(r.ID)<<32, uint64(len(r.Buf)))
				p.regions = append(p.regions, r)
			}
			n.ports[pc.Port] = p
			restored[pc.Port] = p
			nsend, nrecv := p.shadow.Counts()
			handlerCost += cfg.RecoveryHandlerBase +
				sim.Duration(nsend+nrecv)*cfg.RecoveryPerToken +
				cfg.RecoverySeqUpload + cfg.RecoveryReopen
		}
		// The replacement process attaches its handlers before any token is
		// re-posted: a retransmission landing between reopen and re-post is
		// NACKed for lack of a receive token, never committed unseen.
		if reattach != nil {
			reattach(restored)
		}
		n.cpu.Charge(handlerCost)
		n.eng.After(handlerCost, func() {
			if n.dead || n.reviveGen != gen {
				return // killed again inside the handler window
			}
			n.m.RestoreRxSeqs(n.rxAcks.Snapshot())
			for _, pc := range c.Ports {
				p := n.ports[pc.Port]
				if p == nil || !p.open {
					continue
				}
				for _, tok := range p.shadow.OutstandingRecvs() {
					_ = n.m.HostPostRecvToken(p.id, tok)
				}
				for _, tok := range p.shadow.OutstandingSends() {
					_ = n.m.HostPostSend(tok)
				}
			}
			n.driver.ClearFatal()
			n.eng.Tracef("node", "%s host revive complete", n.name)
			if done != nil {
				done()
			}
		})
	})
	return nil
}
