package gm

import (
	"fmt"
	"slices"

	"repro/internal/ckpt"
	"repro/internal/gmproto"
	"repro/internal/sim"
)

// Periodic background checkpointing: an incremental extension of the §4.1
// recovery anchor. Node.Checkpoint cuts a full anchor but demands a fully
// drained endpoint, which a busy node may never offer. This file keeps the
// anchor continuously fresh instead: a base frame is cut at the first
// drained instant, then every interval the library freezes only the ports
// whose checkpointable state changed (cheap epoch-stamped dirty bits),
// waits — bounded by a drain budget — for their host-side dispatchers to
// empty, and emits a delta frame carrying just the dirty sections. The
// freeze reuses the delayed-ACK machinery (mcp.FreezePort): parked
// deliveries are pre-commit and stay covered by the senders' Go-Back-N
// windows, so a frame cut under a partial drain is exactly as consistent as
// a full Checkpoint. Replaying base+deltas through ckpt.ReplayChain
// reproduces, bit for bit, the Checkpoint a drained node would have
// produced at the same instant (DESIGN.md §16).

// FrameKind distinguishes the two frame types a periodic sink receives.
type FrameKind uint8

const (
	// FrameBase is a full ckpt.Checkpoint wire frame (chain position 0).
	FrameBase FrameKind = iota
	// FrameDelta is a ckpt.Delta wire frame extending the chain.
	FrameDelta
)

// PeriodicFrame is one emitted chain frame. Bytes aliases the node's pooled
// encode buffer and is valid only during the sink call: a sink that retains
// the frame (shipping it to stable storage, appending it to a chain) must
// copy. Pause is the drain pause this frame cost the endpoint (zero for the
// base frame, which waits for a natural drained instant instead of forcing
// one).
type PeriodicFrame struct {
	Kind  FrameKind
	Seq   uint64
	Bytes []byte
	Pause sim.Duration
	At    sim.Time
}

// PeriodicSink consumes emitted frames. It runs inside the node's event
// domain at frame-commit time and must not call back into the node's
// checkpoint machinery.
type PeriodicSink func(PeriodicFrame)

// PeriodicStats counts the periodic checkpointer's activity.
type PeriodicStats struct {
	Frames     uint64 // frames delivered (base + deltas)
	Skips      uint64 // intervals abandoned at the drain budget
	CleanTicks uint64 // intervals with nothing dirty (no freeze, no frame)
	Bytes      uint64 // total encoded frame bytes
	MaxPause   sim.Duration
	TotalPause sim.Duration
}

// periodicCkpt drives one node's periodic checkpointing. The encode arenas
// are pooled: after the first few frames a steady-state delta build and
// encode allocates nothing.
type periodicCkpt struct {
	n        *Node
	interval sim.Duration
	budget   sim.Duration
	pollStep sim.Duration
	sink     PeriodicSink

	// Chain and drain state. Kill clears the activity flags; the stats
	// survive it.
	active   bool
	baseDone bool
	// emitting marks an interval mid-drain: dirty ports are frozen and a
	// poll is scheduled.
	emitting bool
	// gen is the node's reviveGen at Start: a Kill strands the machinery.
	gen uint64
	// seq/prevCRC position the next delta in the chain.
	seq     uint64
	prevCRC uint32
	// routesVer is the driver's route-table version captured by the last
	// frame; a mismatch puts a full route replacement in the next delta.
	routesVer uint64
	// drainStart/deadline bound the current drain (valid while emitting).
	drainStart sim.Time
	deadline   sim.Time
	stats      PeriodicStats
	// inPrev marks ports present (open) in the chain's current tip;
	// removedSince marks ports closed since the last frame.
	inPrev       [MaxPorts]bool
	removedSince [MaxPorts]bool

	// Encode arenas.
	delta   ckpt.Delta
	basebuf []byte
	dbuf    [2][]byte // parity double-buffer: delta seq s encodes into dbuf[s&1]
	ids     []NodeID
	streams []gmproto.StreamID
	recvs   []gmproto.RecvToken

	// Scheduled-event closures, built once so rescheduling never allocates.
	tickFn func()
	pollFn func()
	baseFn func()
}

// StartPeriodicCheckpoint begins background checkpointing: a base frame is
// cut at the first drained instant, then every interval a delta frame is
// emitted if anything changed, freezing only the dirty ports and pausing
// the endpoint for at most drainBudget. Frames go to sink in chain order.
// An interval whose dirty ports cannot drain inside the budget is skipped
// (counted in PeriodicStats.Skips); its changes ride the next frame.
func (n *Node) StartPeriodicCheckpoint(interval, drainBudget sim.Duration, sink PeriodicSink) error {
	if n.dead {
		return ErrNodeDead
	}
	if interval <= 0 || drainBudget <= 0 || sink == nil {
		return fmt.Errorf("%w: periodic checkpoint interval %v budget %v", ErrBadArgument, interval, drainBudget)
	}
	if n.pc != nil && n.pc.active {
		return fmt.Errorf("%w: periodic checkpointing already active", ErrBadArgument)
	}
	pc := &periodicCkpt{n: n, interval: interval, budget: drainBudget, sink: sink}
	pc.pollStep = drainBudget / 8
	if pc.pollStep <= 0 {
		pc.pollStep = 1
	}
	pc.active = true
	pc.gen = n.reviveGen
	pc.tickFn = pc.tick
	pc.pollFn = pc.poll
	pc.baseFn = pc.baseHunt
	n.pc = pc
	n.eng.After(0, pc.baseFn)
	return nil
}

// StopPeriodicCheckpoint halts background checkpointing, thawing any port
// frozen mid-drain. Stats remain readable until the next Start.
func (n *Node) StopPeriodicCheckpoint() {
	pc := n.pc
	if pc == nil || !pc.active {
		return
	}
	pc.active = false
	pc.emitting = false
	if !n.dead {
		pc.thawAll()
		n.rxAcks.StopDirtyTracking()
	}
}

// PeriodicCheckpointStats returns the checkpointer's counters (zero value
// if StartPeriodicCheckpoint was never called).
func (n *Node) PeriodicCheckpointStats() PeriodicStats {
	if n.pc == nil {
		return PeriodicStats{}
	}
	return n.pc.stats
}

// ForceCheckpointFrame synchronously emits a delta frame capturing every
// change since the chain tip, if any. The node must be drained (the caller
// is typically a harness that hunted a drained instant, exactly as it would
// for Checkpoint). Returns the encoded frame — aliasing the pooled buffer,
// valid until the next emission — and whether a frame was emitted; a clean
// tip emits nothing and returns emitted=false with the chain already
// current. An in-flight bounded drain is cancelled in favor of the forced
// frame.
func (n *Node) ForceCheckpointFrame() ([]byte, bool, error) {
	pc := n.pc
	if pc == nil || !pc.active || !pc.baseDone {
		return nil, false, fmt.Errorf("%w: periodic checkpointing not running", ErrBadArgument)
	}
	if n.dead {
		return nil, false, ErrNodeDead
	}
	if !n.Drained() {
		return nil, false, ErrNotDrained
	}
	if pc.emitting {
		// Cancel the bounded drain: the scheduled poll goes inert through
		// the emitting flag, so the tick chain must be re-armed here.
		pc.emitting = false
		pc.thawAll()
		n.eng.After(pc.interval, pc.tickFn)
	}
	if !pc.dirtyAny() {
		return nil, false, nil
	}
	pc.emitDelta(0)
	return pc.dbuf[pc.seq&1], true, nil
}

// live reports whether this checkpointer instance still owns the node: a
// Kill (generation bump), a Stop, or a replacement Start strands scheduled
// events of the old instance.
func (pc *periodicCkpt) live() bool {
	n := pc.n
	return pc.active && !n.dead && n.reviveGen == pc.gen && n.pc == pc
}

// baseHunt polls for the first drained instant and cuts the base frame.
func (pc *periodicCkpt) baseHunt() {
	n := pc.n
	if !pc.live() {
		return
	}
	ck, err := n.Checkpoint()
	if err != nil {
		n.eng.After(pc.pollStep, pc.baseFn)
		return
	}
	pc.basebuf = ck.AppendTo(pc.basebuf[:0])
	pc.baseDone = true
	pc.seq = 0
	pc.prevCRC = ckpt.TrailingCRC(pc.basebuf)
	pc.routesVer = n.driver.RoutesVersion()
	// Open the first dirty epoch: marks stamped before this instant (or by
	// a previous Start) compare unequal and read clean.
	n.ckptEpoch++
	n.rxAcks.StartDirtyTracking()
	pc.inPrev = [MaxPorts]bool{}
	for id, p := range n.ports {
		if p.open {
			pc.inPrev[id] = true
		}
	}
	pc.removedSince = [MaxPorts]bool{}
	pc.stats.Frames++
	pc.stats.Bytes += uint64(len(pc.basebuf))
	pc.deliver(FrameBase, 0, pc.basebuf, 0)
	n.eng.After(pc.interval, pc.tickFn)
}

// tick opens an interval: nothing dirty means no freeze and no frame;
// otherwise the dirty ports are frozen and the bounded drain begins.
func (pc *periodicCkpt) tick() {
	n := pc.n
	if !pc.live() {
		return
	}
	if pc.emitting {
		return
	}
	if !pc.dirtyAny() {
		pc.stats.CleanTicks++
		n.eng.After(pc.interval, pc.tickFn)
		return
	}
	pc.emitting = true
	pc.drainStart = n.eng.Now()
	pc.deadline = pc.drainStart + pc.budget
	pc.poll()
}

// poll advances the bounded drain: freeze any port dirtied since the last
// step, emit once the dirty ports are quiet, abandon the interval at the
// deadline. The reschedule step never overshoots the deadline, so the
// endpoint's pause is bounded by the drain budget.
func (pc *periodicCkpt) poll() {
	n := pc.n
	if !pc.live() {
		return
	}
	if !pc.emitting {
		return // forced emission or Stop landed under the scheduled poll
	}
	pc.freezeDirty()
	now := n.eng.Now()
	if pc.quiet() {
		pc.emitDelta(now - pc.drainStart)
		pc.finishInterval()
		return
	}
	if now >= pc.deadline {
		pause := now - pc.drainStart
		pc.stats.Skips++
		if pause > pc.stats.MaxPause {
			pc.stats.MaxPause = pause
		}
		pc.stats.TotalPause += pause
		// No epoch advance: the dirty marks carry into the next interval.
		pc.finishInterval()
		return
	}
	step := pc.pollStep
	if rem := pc.deadline - now; rem < step {
		step = rem
	}
	n.eng.After(step, pc.pollFn)
}

// finishInterval closes the drain (frame emitted or interval skipped),
// resumes parked deliveries and arms the next tick.
func (pc *periodicCkpt) finishInterval() {
	pc.emitting = false
	pc.thawAll()
	pc.n.eng.After(pc.interval, pc.tickFn)
}

// dirtyPort reports whether a port's checkpointable state differs from the
// chain tip: never captured, closed-and-reopened, or stamped this epoch.
func (pc *periodicCkpt) dirtyPort(p *Port) bool {
	if !p.open {
		return false
	}
	id := int(p.id)
	return !pc.inPrev[id] || pc.removedSince[id] || p.ckptMark == pc.n.ckptEpoch
}

// dirtyAny reports whether the next frame would carry anything.
func (pc *periodicCkpt) dirtyAny() bool {
	n := pc.n
	if n.driver.RoutesVersion() != pc.routesVer {
		return true
	}
	if n.rxAcks.Replaced() || n.rxAcks.DirtyLen() > 0 {
		return true
	}
	for id := range pc.removedSince {
		if pc.removedSince[id] && pc.inPrev[id] {
			return true
		}
	}
	for _, p := range n.ports {
		if pc.dirtyPort(p) {
			return true
		}
	}
	return false
}

// freezeDirty parks delivery on every dirty port (mcp.FreezePort: arrivals
// queue pre-commit, no host table advances, no ACK leaves — the senders'
// Go-Back-N windows keep covering the parked messages).
func (pc *periodicCkpt) freezeDirty() {
	n := pc.n
	for _, p := range n.ports {
		if pc.dirtyPort(p) && !n.m.Frozen(p.id) {
			n.m.FreezePort(p.id)
		}
	}
}

// thawAll resumes delivery on every frozen port, replaying parked arrivals
// in order.
func (pc *periodicCkpt) thawAll() {
	n := pc.n
	for _, p := range n.ports {
		if n.m.Frozen(p.id) {
			n.m.ThawPort(p.id)
		}
	}
}

// quiet reports whether every dirty port has reached its freeze point: the
// port is frozen (no further commits can land) and its host-side pipeline —
// deferred dispatchers, poll queue, recovery handler — is empty. Clean
// ports keep running; whatever they commit before the emission instant is
// stamped dirty and re-checked by the caller's freezeDirty pass.
func (pc *periodicCkpt) quiet() bool {
	n := pc.n
	if n.pendingRecoveries > 0 {
		return false
	}
	for _, p := range n.ports {
		if !pc.dirtyPort(p) {
			continue
		}
		if !n.m.Frozen(p.id) || p.recovering || len(p.pollQueue) > 0 ||
			p.tokPend.Pending() > 0 || p.recvPend.Pending() > 0 ||
			p.cbPend.Pending() > 0 || p.postPend.Pending() > 0 {
			return false
		}
	}
	return true
}

// emitDelta builds, encodes and delivers the next chain frame from the
// dirty state, then opens the next epoch. Steady state allocates nothing:
// the Delta arena, the scratch slices and the parity-selected encode buffer
// all keep their capacity across frames.
func (pc *periodicCkpt) emitDelta(pause sim.Duration) {
	n := pc.n
	pc.buildDelta()
	seq := pc.seq + 1
	b := pc.delta.AppendTo(pc.dbuf[seq&1][:0])
	pc.dbuf[seq&1] = b
	pc.seq = seq
	pc.prevCRC = ckpt.TrailingCRC(b)
	pc.routesVer = n.driver.RoutesVersion()
	n.ckptEpoch++
	n.rxAcks.NextDirtyEpoch()
	for id := range pc.inPrev {
		p := n.ports[PortID(id)]
		pc.inPrev[id] = p != nil && p.open
		pc.removedSince[id] = false
	}
	pc.stats.Frames++
	pc.stats.Bytes += uint64(len(b))
	if pause > pc.stats.MaxPause {
		pc.stats.MaxPause = pause
	}
	pc.stats.TotalPause += pause
	pc.deliver(FrameDelta, seq, b, pause)
}

// buildDelta fills the pooled Delta with every section that changed since
// the chain tip. Each section mirrors Node.Checkpoint exactly — same field
// sources, same sort orders — so a replayed chain re-encodes bit-identical
// to a fresh checkpoint cut at the same instant.
func (pc *periodicCkpt) buildDelta() {
	n := pc.n
	d := &pc.delta
	d.Reset()
	d.UID = n.m.UID()
	d.NodeID = n.m.NodeID()
	d.Seq = pc.seq + 1
	d.PrevCRC = pc.prevCRC

	if n.driver.RoutesVersion() != pc.routesVer {
		d.RoutesReplaced = true
		routes := n.driver.Routes()
		pc.ids = pc.ids[:0]
		for id := range routes {
			pc.ids = append(pc.ids, id)
		}
		slices.Sort(pc.ids)
		for _, id := range pc.ids {
			// Hops aliases the live route; Delta.AppendTo copies.
			d.Routes = append(d.Routes, ckpt.Route{Node: id, Hops: routes[id]})
		}
	}

	pc.streams = pc.streams[:0]
	if n.rxAcks.Replaced() {
		d.RxReplaceAll = true
		pc.streams = n.rxAcks.AppendAllStreams(pc.streams)
	} else {
		pc.streams = n.rxAcks.AppendDirtyStreams(pc.streams)
	}
	for _, id := range pc.streams {
		d.RxAcks = append(d.RxAcks, ckpt.RxAck{Stream: id, Seq: n.rxAcks.Last(id)})
	}

	for id := PortID(0); int(id) < MaxPorts; id++ {
		if pc.inPrev[id] && pc.removedSince[id] {
			// Closed since the tip. A reopen inside the interval also lands
			// in Ports below; Apply processes removals first.
			d.Removed = append(d.Removed, id)
		}
		p := n.ports[id]
		if p == nil || !pc.dirtyPort(p) {
			continue
		}
		fresh := !pc.inPrev[id] || pc.removedSince[id]
		pd := d.NextPort()
		pd.Port = id
		pd.NextToken = p.nextToken
		pd.NextRegion = p.nextRegion
		pd.SendTokens = p.shadow.AppendOutstandingSends(pd.SendTokens[:0])
		pc.recvs = p.shadow.AppendOutstandingRecvs(pc.recvs[:0])
		pd.RecvTokens = pd.RecvTokens[:0]
		for _, rt := range pc.recvs {
			pd.RecvTokens = append(pd.RecvTokens, ckpt.RecvTokenCheckpoint{
				ID: rt.ID, Size: rt.Size, Prio: rt.Prio, BufLen: uint32(len(rt.Buf)),
			})
		}
		pd.SeqStreams = p.shadow.AppendSeqStreams(pd.SeqStreams[:0])
		pd.Regions = pd.Regions[:0]
		for i, r := range p.regions {
			rd := pd.NextRegionDelta()
			rd.ID = r.ID
			rd.Dirty = fresh || (i < len(p.regionMarks) && p.regionMarks[i] == n.ckptEpoch)
			if rd.Dirty {
				rd.Data = r.Buf // AppendTo copies
			} else {
				rd.Data = nil
			}
		}
	}
}

// deliver hands a frame to the sink inline with the pooled bytes
// (zero-copy, zero-alloc).
func (pc *periodicCkpt) deliver(kind FrameKind, seq uint64, frame []byte, pause sim.Duration) {
	pc.sink(PeriodicFrame{Kind: kind, Seq: seq, Bytes: frame, Pause: pause, At: pc.n.eng.Now()})
}

// --- dirty-bit stamps (called from the library's mutation sites) ---

// markCkpt stamps the port dirty for the current checkpoint epoch. Inactive
// tracking costs one pointer test; the stamp itself is a single store.
func (p *Port) markCkpt() {
	n := p.node
	if n.pc == nil || !n.pc.active {
		return
	}
	p.ckptMark = n.ckptEpoch
}

// markRegion stamps a directed-deposit target region (and the port) dirty.
// regionMarks parallels regions by index; an entry missing because the
// region was registered while tracking was off is padded on first deposit.
func (p *Port) markRegion(regionID uint32) {
	n := p.node
	if n.pc == nil || !n.pc.active {
		return
	}
	p.ckptMark = n.ckptEpoch
	for i, r := range p.regions {
		if r.ID != regionID {
			continue
		}
		if i < len(p.regionMarks) {
			p.regionMarks[i] = n.ckptEpoch
			return
		}
		for len(p.regionMarks) < i {
			p.regionMarks = append(p.regionMarks, 0)
		}
		p.regionMarks = append(p.regionMarks, n.ckptEpoch)
		return
	}
}

// markNewRegion stamps a just-registered region dirty (its bytes have never
// been in a frame). Call after appending to p.regions.
func (p *Port) markNewRegion() {
	n := p.node
	if n.pc == nil || !n.pc.active {
		return
	}
	p.ckptMark = n.ckptEpoch
	for len(p.regionMarks) < len(p.regions)-1 {
		p.regionMarks = append(p.regionMarks, 0)
	}
	if len(p.regionMarks) < len(p.regions) {
		p.regionMarks = append(p.regionMarks, n.ckptEpoch)
	}
}
