package gm

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/fabric"
)

// resumeTrial is one deterministic mid-campaign scenario built for the
// whole-sim snapshot/resume contract: a 4-node FTGM cluster with a lossy
// cable keeping Go-Back-N busy and a processor hang with full recovery
// landing inside the window. The same builder must produce bit-identical
// runs at any shard count — that is the determinism contract Resume's
// replay-and-attest rides on.
type resumeTrial struct {
	c         *Cluster
	th        interface{ Sum64() uint64 }
	nodes     []*Node
	sent      []int
	rejected  []int
	recv      []int
	recovered int
	snapAt    Time
	endAt     Time
}

func buildResumeTrial(t *testing.T, shards int) *resumeTrial {
	t.Helper()
	c := NewCluster(fastRecoveryConfig(ModeFTGM, shards))
	const n = 4
	tr := &resumeTrial{c: c, nodes: make([]*Node, n),
		sent: make([]int, n), rejected: make([]int, n), recv: make([]int, n)}
	for i := range tr.nodes {
		tr.nodes[i] = c.AddNode(fmt.Sprintf("n%d", i))
	}
	sw := c.AddSwitch("sw")
	for i, nd := range tr.nodes {
		if err := c.Connect(nd, sw, i); err != nil {
			t.Fatal(err)
		}
	}
	th := fnv.New64a()
	tr.th = th
	c.EnableTrace(th)
	if _, err := c.Boot(); err != nil {
		t.Fatal(err)
	}
	ports := make([]*Port, n)
	for i, nd := range tr.nodes {
		p, err := nd.OpenPort(2)
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = p
		i := i
		p.SetReceiveHandler(func(ev RecvEvent) {
			tr.recv[i]++
			_ = p.RecycleReceiveBuffer(ev.Data, ev.Prio)
		})
		for j := 0; j < 16; j++ {
			if err := p.ProvideReceiveBuffer(512, PriorityLow); err != nil {
				t.Fatal(err)
			}
		}
	}
	tr.nodes[1].Link().SetFaults(fabric.FaultProfile{DropProb: 0.05}, 7)
	tr.nodes[2].Recovered = func() { tr.recovered++ }

	stopAt := c.Now() + 2*Millisecond
	tr.snapAt = c.Now() + 700*Microsecond
	tr.endAt = stopAt + 16*Millisecond
	payload := make([]byte, 256)
	for i, nd := range tr.nodes {
		i := i
		eng := nd.Engine()
		peer := (i + 1) % n
		var tick func()
		tick = func() {
			if eng.Now() >= stopAt {
				return
			}
			if peer == i {
				peer = (peer + 1) % n
			}
			if err := ports[i].Send(tr.nodes[peer].ID(), 2, PriorityLow, payload, nil); err != nil {
				tr.rejected[i]++
			} else {
				tr.sent[i]++
			}
			peer = (peer + 1) % n
			eng.After(40*Microsecond, tick)
		}
		eng.After(Duration(i+1)*500*Nanosecond, tick)
	}
	c.After(300*Microsecond, func() { tr.nodes[2].InjectHang() })
	return tr
}

// finish runs the trial to completion and renders the byte-exact
// fingerprint: executed-event totals, the full trace hash and every
// per-node counter.
func (tr *resumeTrial) finish() string {
	tr.c.RunUntil(tr.endAt)
	tr.c.Shutdown(Millisecond)
	var fp bytes.Buffer
	root := tr.c.Engine()
	fmt.Fprintf(&fp, "events=%d now=%d recovered=%d trace=%x\n",
		root.ExecutedAll(), tr.c.Now(), tr.recovered, tr.th.Sum64())
	for i, nd := range tr.nodes {
		fmt.Fprintf(&fp, "node%d sent=%d rejected=%d recv=%d mcp=%+v\n",
			i, tr.sent[i], tr.rejected[i], tr.recv[i], nd.MCPStats())
	}
	return fp.String()
}

// TestClusterSnapshotResumeBitForBit is the whole-sim acceptance contract:
// a cluster campaign snapshotted mid-run at one shard count and resumed on
// a freshly built cluster at another (recovery in flight at the cut)
// finishes with a fingerprint byte-identical to the uninterrupted run — for
// every pairing of {1,4,8} snapshot shards with {1,4,8} resume shards.
func TestClusterSnapshotResumeBitForBit(t *testing.T) {
	ref := buildResumeTrial(t, 1)
	want := ref.finish()
	if ref.recovered == 0 {
		t.Fatal("reference run never completed the FTGM recovery")
	}

	for _, snapShards := range []int{1, 4, 8} {
		src := buildResumeTrial(t, snapShards)
		src.c.RunUntil(src.snapAt)
		var snap bytes.Buffer
		if err := src.c.Engine().Snapshot(&snap); err != nil {
			t.Fatalf("snapshot at shards=%d: %v", snapShards, err)
		}
		for _, resShards := range []int{1, 4, 8} {
			dst := buildResumeTrial(t, resShards)
			if err := dst.c.Engine().Resume(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatalf("resume shards=%d from snapshot shards=%d: %v", resShards, snapShards, err)
			}
			if dst.c.Now() != dst.snapAt {
				t.Fatalf("resume landed at %v, want %v", dst.c.Now(), dst.snapAt)
			}
			got := dst.finish()
			diffFingerprints(t, fmt.Sprintf("snap@%d->resume@%d", snapShards, resShards), want, got)
		}
	}
}
