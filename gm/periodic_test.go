package gm

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/ckpt"
)

// periodicChain collects emitted frames the way a stable-storage sink
// would: copying, since frame bytes alias the node's pooled encode buffer.
type periodicChain struct {
	base   []byte
	deltas [][]byte
}

func (c *periodicChain) sink(t *testing.T) PeriodicSink {
	return func(f PeriodicFrame) {
		cp := append([]byte(nil), f.Bytes...)
		switch f.Kind {
		case FrameBase:
			if c.base != nil {
				t.Errorf("second base frame at seq %d", f.Seq)
			}
			c.base = cp
		case FrameDelta:
			if want := uint64(len(c.deltas) + 1); f.Seq != want {
				t.Errorf("delta seq %d, want %d (frames must arrive in chain order)", f.Seq, want)
			}
			c.deltas = append(c.deltas, cp)
		}
	}
}

// forceTip drains the node and forces a final frame so the chain tip equals
// the node's live state, then returns a fresh full checkpoint cut at the
// same instant for comparison.
func forceTip(t *testing.T, cl *Cluster, n *Node, chain *periodicChain) *ckpt.Checkpoint {
	t.Helper()
	drainNode(t, cl, n)
	before := len(chain.deltas)
	if _, emitted, err := n.ForceCheckpointFrame(); err != nil {
		t.Fatalf("ForceCheckpointFrame: %v", err)
	} else if emitted && len(chain.deltas) != before+1 {
		t.Fatalf("forced frame not delivered to sink (deltas %d -> %d)", before, len(chain.deltas))
	}
	fresh, err := n.Checkpoint()
	if err != nil {
		t.Fatalf("fresh checkpoint at forced tip: %v", err)
	}
	return fresh
}

// TestPeriodicCheckpointGuards covers the control-surface error paths.
func TestPeriodicCheckpointGuards(t *testing.T) {
	cl, _, b := twoNodesCfg(t, hostFaultConfig())
	if got := b.PeriodicCheckpointStats(); got != (PeriodicStats{}) {
		t.Fatalf("stats before start: %+v", got)
	}
	if _, _, err := b.ForceCheckpointFrame(); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("force before start: %v, want ErrBadArgument", err)
	}
	sink := func(PeriodicFrame) {}
	if err := b.StartPeriodicCheckpoint(0, Millisecond, sink); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("zero interval: %v, want ErrBadArgument", err)
	}
	if err := b.StartPeriodicCheckpoint(Millisecond, 0, sink); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("zero budget: %v, want ErrBadArgument", err)
	}
	if err := b.StartPeriodicCheckpoint(Millisecond, Millisecond, nil); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("nil sink: %v, want ErrBadArgument", err)
	}
	if err := b.StartPeriodicCheckpoint(Millisecond, 200*Microsecond, sink); err != nil {
		t.Fatal(err)
	}
	if err := b.StartPeriodicCheckpoint(Millisecond, 200*Microsecond, sink); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("double start: %v, want ErrBadArgument", err)
	}
	b.StopPeriodicCheckpoint()
	b.StopPeriodicCheckpoint() // idempotent
	cl.Run(10 * Millisecond)
	if got := b.PeriodicCheckpointStats().Frames; got > 1 {
		t.Fatalf("stopped checkpointer kept emitting: %d frames", got)
	}
	b.Kill()
	if err := b.StartPeriodicCheckpoint(Millisecond, Millisecond, sink); !errors.Is(err, ErrNodeDead) {
		t.Fatalf("start on dead node: %v, want ErrNodeDead", err)
	}
}

// TestPeriodicCheckpointChainReplay drives bidirectional traffic — ordinary
// sends, directed deposits, a port closed and reopened mid-run — under a
// running periodic checkpointer, then verifies the central §16 property:
// replaying base+deltas through ckpt.ReplayChain re-encodes bit-identical
// to a fresh Node.Checkpoint cut at the chain tip. Also asserts the drain
// pause stayed inside the budget.
func TestPeriodicCheckpointChainReplay(t *testing.T) {
	const total = 80
	const budget = 200 * Microsecond

	cl, a, b := twoNodesCfg(t, hostFaultConfig())
	pa, err := a.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	var atB, atA []int
	idxRecorder(pb, &atB)
	idxRecorder(pa, &atA)
	for i := 0; i < 64; i++ {
		if err := pa.ProvideReceiveBuffer(64, PriorityLow); err != nil {
			t.Fatal(err)
		}
		if err := pb.ProvideReceiveBuffer(64, PriorityLow); err != nil {
			t.Fatal(err)
		}
	}
	region, err := pb.RegisterMemory(256)
	if err != nil {
		t.Fatal(err)
	}

	var chain periodicChain
	if err := b.StartPeriodicCheckpoint(500*Microsecond, budget, chain.sink(t)); err != nil {
		t.Fatal(err)
	}

	// A secondary port that lives and dies mid-run: its closure must enter
	// the chain as a Removed record, its rebirth as a fresh port record.
	pb3, err := b.OpenPort(3)
	if err != nil {
		t.Fatal(err)
	}
	var at3 []int
	idxRecorder(pb3, &at3)
	for i := 0; i < 8; i++ {
		if err := pb3.ProvideReceiveBuffer(64, PriorityLow); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < total; i++ {
		if err := pa.Send(b.ID(), 2, PriorityLow, idxPayload(i), nil); err != nil {
			t.Fatalf("a send %d: %v", i, err)
		}
		if err := pb.Send(a.ID(), 2, PriorityLow, idxPayload(i), nil); err != nil {
			t.Fatalf("b send %d: %v", i, err)
		}
		if i%4 == 0 {
			if err := pa.DirectedSend(b.ID(), 2, region.ID, uint32(i%32)*8, idxPayload(i), nil); err != nil {
				t.Fatalf("directed send %d: %v", i, err)
			}
		}
		switch i {
		case 10:
			if err := pa.Send(b.ID(), 3, PriorityLow, idxPayload(i), nil); err != nil {
				t.Fatal(err)
			}
		case 30:
			drainNode(t, cl, b)
			b.ClosePort(3)
		case 50:
			pb3, err = b.OpenPort(3)
			if err != nil {
				t.Fatal(err)
			}
			idxRecorder(pb3, &at3)
			for j := 0; j < 8; j++ {
				if err := pb3.ProvideReceiveBuffer(64, PriorityLow); err != nil {
					t.Fatal(err)
				}
			}
		}
		cl.Run(100 * Microsecond)
	}
	cl.Run(5 * Millisecond)

	fresh := forceTip(t, cl, b, &chain)
	if chain.base == nil {
		t.Fatal("no base frame emitted")
	}
	if len(chain.deltas) == 0 {
		t.Fatal("no delta frames emitted under live traffic")
	}
	replayed, err := ckpt.ReplayChain(chain.base, chain.deltas)
	if err != nil {
		t.Fatalf("ReplayChain over %d deltas: %v", len(chain.deltas), err)
	}
	freshBytes := fresh.Encode()
	replayBytes := replayed.Encode()
	if !bytes.Equal(freshBytes, replayBytes) {
		t.Fatalf("chain replay diverges from fresh checkpoint: %d vs %d bytes (deltas=%d)",
			len(replayBytes), len(freshBytes), len(chain.deltas))
	}

	st := b.PeriodicCheckpointStats()
	if st.Frames != uint64(1+len(chain.deltas)) {
		t.Fatalf("stats.Frames = %d, sink saw %d frames", st.Frames, 1+len(chain.deltas))
	}
	if st.MaxPause > budget {
		t.Fatalf("max drain pause %v exceeds budget %v", st.MaxPause, budget)
	}
	if st.Bytes == 0 || st.Frames < 3 {
		t.Fatalf("implausible periodic stats: %+v", st)
	}
	wantExactlyOnceInOrder(t, "a->b", atB, total)
	wantExactlyOnceInOrder(t, "b->a", atA, total)
}

// TestPeriodicCheckpointRestoreFromChain kills the host mid-traffic and
// revives it from the replayed base+delta chain instead of a one-shot
// checkpoint, auditing exactly-once in-order delivery in both directions —
// the incremental pipeline must be as good a recovery anchor as the full
// snapshot it replaces.
func TestPeriodicCheckpointRestoreFromChain(t *testing.T) {
	const total = 60
	const killAt = 30

	cl, a, b := twoNodesCfg(t, hostFaultConfig())
	pa, err := a.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	var atB, atA []int
	idxRecorder(pb, &atB)
	idxRecorder(pa, &atA)
	for i := 0; i < 64; i++ {
		if err := pa.ProvideReceiveBuffer(64, PriorityLow); err != nil {
			t.Fatal(err)
		}
		if err := pb.ProvideReceiveBuffer(64, PriorityLow); err != nil {
			t.Fatal(err)
		}
	}
	var chain periodicChain
	if err := b.StartPeriodicCheckpoint(500*Microsecond, 200*Microsecond, chain.sink(t)); err != nil {
		t.Fatal(err)
	}

	sentA, sentB := 0, 0
	bUp := true
	step := func() {
		if sentA < total {
			if err := pa.Send(b.ID(), 2, PriorityLow, idxPayload(sentA), nil); err != nil {
				t.Fatalf("a send %d: %v", sentA, err)
			}
			sentA++
		}
		if sentB < total && bUp {
			if err := pb.Send(a.ID(), 2, PriorityLow, idxPayload(sentB), nil); err != nil {
				t.Fatalf("b send %d: %v", sentB, err)
			}
			sentB++
		}
		cl.Run(100 * Microsecond)
	}
	for sentA < killAt {
		step()
	}

	forceTip(t, cl, b, &chain)
	replayed, err := ckpt.ReplayChain(chain.base, chain.deltas)
	if err != nil {
		t.Fatalf("ReplayChain: %v", err)
	}
	// Wire round-trip, exactly as a standby host would receive the replayed
	// anchor.
	anchor := wireCheckpoint(t, replayed)
	b.Kill()
	bUp = false
	for i := 0; i < 10; i++ {
		step()
	}

	restored := false
	err = b.Restore(anchor, func(ports map[PortID]*Port) {
		np, ok := ports[2]
		if !ok {
			t.Error("restore did not rebuild port 2")
			return
		}
		pb = np
		idxRecorder(pb, &atB)
	}, func() { restored, bUp = true, true })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000 && !restored; i++ {
		step()
	}
	if !restored {
		t.Fatal("restore never completed")
	}
	for sentA < total || sentB < total {
		step()
	}
	cl.Run(200 * Millisecond)

	wantExactlyOnceInOrder(t, "a->b", atB, total)
	wantExactlyOnceInOrder(t, "b->a", atA, total)
}

// TestPeriodicDeltaBuildZeroAlloc pins the tentpole's steady-state cost:
// with live protocol state (outstanding tokens, sequence streams, regions,
// a route table forced into the frame) a delta build + encode into the
// pooled arena performs zero allocations per frame after warm-up.
func TestPeriodicDeltaBuildZeroAlloc(t *testing.T) {
	cl, a, b := twoNodesCfg(t, hostFaultConfig())
	pa, err := a.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	var atB []int
	idxRecorder(pb, &atB)
	for i := 0; i < 64; i++ {
		if err := pb.ProvideReceiveBuffer(64, PriorityLow); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pb.RegisterMemory(512); err != nil {
		t.Fatal(err)
	}
	if err := b.StartPeriodicCheckpoint(Millisecond, 200*Microsecond, func(PeriodicFrame) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := pa.Send(b.ID(), 2, PriorityLow, idxPayload(i), nil); err != nil {
			t.Fatal(err)
		}
		if err := pb.Send(a.ID(), 2, PriorityLow, idxPayload(i), nil); err != nil {
			t.Fatal(err)
		}
		cl.Run(100 * Microsecond)
	}
	drainNode(t, cl, b)

	pc := b.pc
	if pc == nil || !pc.baseDone {
		t.Fatal("periodic checkpointer not established")
	}
	// Stamp everything dirty and force the route section in, so every build
	// walks the full port/region/route path. The sim clock is stopped, so
	// the stamps stay dirty across runs (no emission advances the epoch).
	for _, p := range b.ports {
		p.ckptMark = b.ckptEpoch
		for i := range p.regionMarks {
			p.regionMarks[i] = b.ckptEpoch
		}
	}
	pc.routesVer ^= 1

	build := func() {
		pc.buildDelta()
		pc.dbuf[0] = pc.delta.AppendTo(pc.dbuf[0][:0])
	}
	build() // size the arenas
	build()
	if allocs := testing.AllocsPerRun(200, build); allocs != 0 {
		t.Fatalf("steady-state delta build+encode allocates %.1f per frame, want 0", allocs)
	}
	if len(pc.dbuf[0]) == 0 || len(pc.delta.Ports) == 0 {
		t.Fatal("measured build produced an empty frame; the zero-alloc claim is vacuous")
	}
}
