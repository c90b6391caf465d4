package main

import (
	"bytes"
	"fmt"
	"slices"

	"repro/gm"
	"repro/internal/ckpt"
	"repro/internal/sim"
)

// The fault workload: 8 nodes on one switch under the gossip control plane,
// each sending faultMsgs 32 B messages round-robin to its 7 peers, one every
// faultEvery. Three faults land at seed-jittered instants on three distinct
// victims. The FTD and host recovery constants are shrunk from the paper's
// (~1.6 s) to milliseconds, as in the scaling harness, so all three
// recoveries fit a ~60 ms traffic window; cmd/reproduce reports the paper's
// Table 3 times.
const (
	faultNodes = 8
	faultMsgs  = 6000
	faultEvery = 20 * sim.Microsecond
	faultSize  = 32

	flapWindow  = sim.Millisecond
	reviveDelay = 2 * sim.Millisecond
	huntStep    = 50 * sim.Microsecond
	huntWindow  = 10 * sim.Millisecond
)

const (
	kindHang = iota
	kindFlap
	kindDeath
)

var kindNames = [...]string{"LANai hang", "link flap", "host death"}

// fault is one planned injection and what the auditor saw after it.
type fault struct {
	kind   int
	node   int
	offset sim.Duration // from the start of the steady phase

	fired   bool
	at      sim.Time // injection instant (the kill, for a host death)
	out, in sim.Time // first delivery due after at: from, and to, the victim
}

type faultPlan struct {
	faults []fault
	// the host-death victim's shipped checkpoint chain; frame buffers are
	// reused from frame to frame
	base              []byte
	deltas            [][]byte
	nDeltas           int
	ck                ckptStats
	restored, rearmed bool
	mismatch          bool
	problems          []string
}

func setupFault(seed uint64, msgs int) (*trial, error) {
	cfg := gm.DefaultConfig(gm.ModeFTGM)
	cfg.Seed = seed
	cfg.ControlPlane = gm.ControlPlaneGossip
	cfg.Gossip.ProbeInterval = 5 * sim.Millisecond
	cfg.Driver.MCPLoadTime = 2 * sim.Millisecond
	cfg.Host.RecoveryHandlerBase = sim.Millisecond
	cfg.Host.RecoveryPerToken = 0
	cfg.Host.RecoverySeqUpload = 100 * sim.Microsecond
	cfg.Host.RecoveryReopen = 100 * sim.Microsecond
	cfg.FTD.VerifyInterval = 500 * sim.Microsecond
	cfg.FTD.UnmapIO = 200 * sim.Microsecond
	cfg.FTD.CardReset = sim.Millisecond
	cfg.FTD.ClearSRAM = 500 * sim.Microsecond
	cfg.FTD.RestorePageTable = sim.Millisecond
	cfg.FTD.RestoreRoutes = 500 * sim.Microsecond
	t := &trial{chunk: sim.Millisecond, limit: 2 * sim.Second}

	b0 := nanotime()
	cl := gm.NewCluster(cfg)
	sw := cl.AddSwitch("sw")
	for i := 0; i < faultNodes; i++ {
		n := cl.AddNode(fmt.Sprintf("n%d", i))
		if err := cl.Connect(n, sw, i); err != nil {
			return nil, err
		}
		t.nodes = append(t.nodes, n)
	}
	t.buildNs = nanotime() - b0
	t.cl, t.sws = cl, []*gm.Switch{sw}
	if err := t.boot(func() error { _, err := cl.Boot(); return err }); err != nil {
		return nil, err
	}

	rng := sim.DeriveRNG(seed, 3)
	ref := refBody(seed, faultSize)
	err := t.attach(cfg.Host.SendTokens, 128, faultSize, ref, func(i int) traffic {
		dests := make([]int, 0, faultNodes-1)
		for k := 1; k < faultNodes; k++ {
			dests = append(dests, (i+k)%faultNodes)
		}
		return traffic{dests: dests, total: msgs, every: faultEvery, small: faultSize,
			offset: rng.Duration(faultEvery)}
	})
	if err != nil {
		return nil, err
	}

	// Three distinct victims, none of them the mapping node; each fault
	// lands in its own third of the traffic window, 2-5 ms into it.
	fp := &faultPlan{}
	victims := rng.Perm(faultNodes - 1)
	window := sim.Duration(msgs) * faultEvery / 3
	for k := kindHang; k <= kindDeath; k++ {
		off := sim.Duration(k)*window + 2*sim.Millisecond + rng.Duration(3*sim.Millisecond)
		fp.faults = append(fp.faults, fault{kind: k, node: victims[k] + 1, offset: off})
	}
	victim := t.nodes[fp.faults[kindDeath].node]
	if err := victim.StartPeriodicCheckpoint(500*sim.Microsecond, 200*sim.Microsecond, fp.ship); err != nil {
		return nil, err
	}
	for _, s := range t.sinks {
		s := s
		s.onDeliver = func(src int, at, now sim.Time) { fp.observe(src, s.self, at, now) }
	}
	t.faults = fp
	return t, nil
}

// ship is the periodic checkpointer's sink: the standby's copy of the chain.
func (fp *faultPlan) ship(f gm.PeriodicFrame) {
	fp.ck.frames++
	fp.ck.bytes += uint64(len(f.Bytes))
	if f.Kind == gm.FrameBase {
		fp.base = append(fp.base[:0], f.Bytes...)
		fp.nDeltas = 0
		return
	}
	if fp.nDeltas == len(fp.deltas) {
		fp.deltas = append(fp.deltas, nil)
	}
	fp.deltas[fp.nDeltas] = append(fp.deltas[fp.nDeltas][:0], f.Bytes...)
	fp.nDeltas++
}

func (fp *faultPlan) observe(src, dst int, at, now sim.Time) {
	for i := range fp.faults {
		f := &fp.faults[i]
		if !f.fired || at < f.at {
			continue
		}
		if src == f.node && f.out == 0 {
			f.out = now
		}
		if dst == f.node && f.in == 0 {
			f.in = now
		}
	}
}

func (fp *faultPlan) settled() bool {
	for _, f := range fp.faults {
		if !f.fired || f.out == 0 || f.in == 0 {
			return false
		}
	}
	return fp.restored
}

// arm schedules the plan relative to the start of the steady phase.
func (fp *faultPlan) arm(t *trial, start sim.Time) {
	for i := range fp.faults {
		f := &fp.faults[i]
		t.cl.At(start+f.offset, func() { fp.inject(t, f) })
	}
}

func (fp *faultPlan) inject(t *trial, f *fault) {
	n := t.nodes[f.node]
	switch f.kind {
	case kindHang:
		if !n.Running() {
			fp.problems = append(fp.problems, "hang victim not running at injection")
			return
		}
		n.InjectHang()
	case kindFlap:
		l := n.Link()
		l.SetUp(false)
		t.cl.After(flapWindow, func() { l.SetUp(true) })
	case kindDeath:
		fp.hunt(t, f, t.cl.Now()+huntWindow)
		return
	}
	f.fired, f.at = true, t.cl.Now()
}

// hunt waits for a drained instant with the shipped chain caught up, then
// kills the victim and schedules its revival from the replayed chain.
func (fp *faultPlan) hunt(t *trial, f *fault, deadline sim.Time) {
	n := t.nodes[f.node]
	if !n.Running() || !n.Drained() || fp.base == nil ||
		fp.ck.frames != n.PeriodicCheckpointStats().Frames {
		if t.cl.Now() >= deadline {
			fp.problems = append(fp.problems, "host death: no drained instant within the hunt window")
			return
		}
		t.cl.After(huntStep, func() { fp.hunt(t, f, deadline) })
		return
	}
	nd := fp.nDeltas
	frame, emitted, err := n.ForceCheckpointFrame()
	if err != nil {
		fp.problems = append(fp.problems, "host death: forced frame: "+err.Error())
		return
	}
	if emitted && fp.nDeltas == nd {
		fp.ship(gm.PeriodicFrame{Kind: gm.FrameDelta, Bytes: frame})
	}
	r0 := nanotime()
	replayed, err := ckpt.ReplayChain(fp.base, fp.deltas[:fp.nDeltas])
	fp.ck.replayNs += nanotime() - r0
	if err != nil {
		fp.problems = append(fp.problems, "host death: chain replay: "+err.Error())
		return
	}
	fresh, err := n.Checkpoint()
	if err != nil || !bytes.Equal(fresh.Encode(), replayed.Encode()) {
		fp.mismatch = true
	}
	st := n.PeriodicCheckpointStats()
	fp.ck.skips, fp.ck.maxPause = st.Skips, st.MaxPause
	n.Kill()
	f.fired, f.at = true, t.cl.Now()
	g, s := t.gens[f.node], t.sinks[f.node]
	g.paused = true
	t.cl.After(reviveDelay, func() {
		reattach := func(ports map[gm.PortID]*gm.Port) {
			p := ports[benchPort]
			if p == nil {
				return
			}
			s.port = p
			p.SetReceiveHandler(s.handler)
			fp.rearmed = g.rearm(p)
		}
		done := func() {
			fp.restored = true
			g.paused = false
			g.pump()
		}
		r0 := nanotime()
		err := n.Restore(replayed, reattach, done)
		fp.ck.restoreNs += nanotime() - r0
		if err != nil {
			fp.problems = append(fp.problems, "host death: restore: "+err.Error())
		}
	})
}

// collect folds the plan's outcome into the round.
func (fp *faultPlan) collect(r *roundResult) {
	r.ckpt = fp.ck
	for _, f := range fp.faults {
		switch {
		case !f.fired:
			r.fail("%s on node %d never fired", kindNames[f.kind], f.node)
		case f.out == 0 || f.in == 0:
			r.fail("%s on node %d: victim's streams never delivered again", kindNames[f.kind], f.node)
		default:
			r.recoveries = append(r.recoveries, max(f.out, f.in)-f.at)
		}
	}
	for _, p := range fp.problems {
		r.fail("%s", p)
	}
	if fp.mismatch {
		r.fail("host death: replayed chain differs from a fresh checkpoint")
	}
	if fp.faults[kindDeath].fired && !fp.rearmed {
		r.fail("host death: restored outstanding sends do not match the send buffers in use")
	}
	slices.Sort(r.recoveries)
}
