package gm

import (
	"fmt"

	"repro/internal/gmproto"
)

// Region is a registered directed-send target: pinned process memory that
// remote ports may deposit into without consuming receive tokens (GM's
// gm_directed_send facility). The application communicates the region id
// and layout to peers itself (GM likewise leaves rendezvous to the user).
type Region struct {
	ID  uint32
	Buf []byte
}

// RegisterMemory pins size bytes for directed sends and registers them with
// the interface. Deposits appear in the returned Region's Buf; the mapping
// survives fault recovery (the library re-registers it with the reloaded
// MCP before restoring tokens).
func (p *Port) RegisterMemory(size uint32) (*Region, error) {
	if !p.open {
		return nil, ErrPortClosed
	}
	if size == 0 {
		return nil, fmt.Errorf("%w: zero-size region", ErrBadArgument)
	}
	p.nextRegion++
	r := &Region{ID: p.nextRegion, Buf: make([]byte, size)}
	if err := p.node.m.HostRegisterRegion(p.id, r.ID, r.Buf); err != nil {
		return nil, err
	}
	if err := p.node.driver.PageTable().PinRange(int(p.id), uint64(r.ID)<<32, uint64(size)); err != nil {
		return nil, err
	}
	p.regions = append(p.regions, r)
	p.markNewRegion()
	p.node.cpu.Charge(p.node.cluster.cfg.Host.ProvideOverhead)
	return r, nil
}

// DirectedSend deposits data into a remote port's registered region at the
// given offset, consuming a send token. The receiver's process is not
// notified; the sender's callback fires when the deposit is acknowledged —
// under FTGM, only after the bytes are in the remote host's memory. The
// reliable-stream machinery (sequence numbers, Go-Back-N, the shadow
// backup and transparent recovery) covers directed sends exactly as it
// covers ordinary ones.
func (p *Port) DirectedSend(dest NodeID, destPort PortID, regionID, remoteOffset uint32, data []byte, cb SendCallback) error {
	if !p.open {
		return ErrPortClosed
	}
	if p.sendTokens <= 0 {
		return ErrNoSendTokens
	}
	p.markCkpt()
	p.sendTokens--
	p.nextToken++
	tok := gmproto.SendToken{
		ID:           p.nextToken,
		Dest:         dest,
		DestPort:     destPort,
		SrcPort:      p.id,
		Prio:         gmproto.PriorityLow,
		Data:         data,
		Directed:     true,
		RegionID:     regionID,
		RemoteOffset: remoteOffset,
	}
	cfg := p.node.cluster.cfg.Host
	cost := cfg.SendOverhead
	if p.node.cluster.cfg.Mode == ModeFTGM {
		cost += cfg.FTGMSendExtra
		if cfg.PerConnectionSeqSync {
			// Directed sends share the per-(port, dest) sequence space, so
			// the §4.1 ablation's synchronization cost applies to them too
			// (and keeps postPend's due times nondecreasing when directed
			// and ordinary sends interleave).
			cost += cfg.SeqSyncOverhead
		}
		tok.Seq = p.shadow.NextSeq(dest, gmproto.PriorityLow)
		tok.HasSeq = true
	}
	p.shadow.AddSendToken(tok)
	if cb != nil {
		p.callbacks[tok.ID] = cb
	}
	p.node.cpu.ChargeSend(cost)
	p.stats.Sends++
	// Post through the shared dispatcher, exactly like Send: its dispatch
	// checks p.open (a Kill leaves the queued post inert) and p.recovering,
	// and Node.Drained() counts it — a checkpoint cannot be cut with a
	// directed post still in flight toward the MCP.
	p.postPend.After(cost, tok)
	return nil
}

// Regions returns the port's registered directed-send regions in
// registration order. After a Restore the reattach hook uses it to find the
// rebuilt regions: pointers handed out before the host death do not survive
// it.
func (p *Port) Regions() []*Region { return p.regions }

// reRegisterRegions re-pins every registered region with a freshly loaded
// MCP (recovery and naive-restart paths).
func (p *Port) reRegisterRegions() {
	for _, r := range p.regions {
		_ = p.node.m.HostRegisterRegion(p.id, r.ID, r.Buf)
	}
}
