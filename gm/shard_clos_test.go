package gm

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/fabric"
)

// workCell holds one node's test-workload state: the tick loop's peer cursor
// and the counters the fingerprint prints.
type workCell struct {
	peer     int
	sent     int
	rejected int
	recv     int
	extra    int // trial-specific (e.g. recovery completions)
}

// runClosShardTrial runs the large-cluster invariance trial: a 256-node
// Clos (4 spines, 32 leaves) carrying all the fault machinery at once — a
// lossy cable (Go-Back-N), a processor hang with full FTGM recovery, and a
// transient leaf-uplink outage that blackholes a slice of the spine traffic
// until the port revives. Returns a byte-exact fingerprint (trace hash +
// every counter).
func runClosShardTrial(t *testing.T, shards int) string {
	t.Helper()
	c := NewCluster(fastRecoveryConfig(ModeFTGM, shards))
	topo, err := BuildClos(c, 4, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	// At 256 nodes the boot flood alone is megabytes of trace; hash the
	// stream instead of holding it (the hash is just as byte-exact).
	th := fnv.New64a()
	c.EnableTrace(th)
	if _, err := topo.Boot(c); err != nil {
		t.Fatal(err)
	}
	n := len(topo.Nodes)
	cells := make([]*workCell, n)
	ports := make([]*Port, n)
	for i, node := range topo.Nodes {
		p, err := node.OpenPort(2)
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = p
		cells[i] = &workCell{peer: (i + 1) % n}
		w := cells[i]
		p.SetReceiveHandler(func(ev RecvEvent) {
			w.recv++
			_ = p.RecycleReceiveBuffer(ev.Data, ev.Prio)
		})
		for j := 0; j < 8; j++ {
			if err := p.ProvideReceiveBuffer(512, PriorityLow); err != nil {
				t.Fatal(err)
			}
		}
	}
	topo.Nodes[2].Recovered = func() { cells[2].extra++ }
	// Chaos ingredient one: a lossy cable on node 1 keeps Go-Back-N busy.
	topo.Nodes[1].Link().SetFaults(fabric.FaultProfile{DropProb: 0.05}, 7)

	stopAt := c.Now() + 2*Millisecond
	payload := make([]byte, 256)
	for i, node := range topo.Nodes {
		i := i
		eng := node.Engine()
		w := cells[i]
		var tick func()
		tick = func() {
			if eng.Now() >= stopAt {
				return
			}
			if w.peer == i {
				w.peer = (w.peer + 1) % n
			}
			if err := ports[i].Send(topo.Nodes[w.peer].ID(), 2, PriorityLow, payload, nil); err != nil {
				w.rejected++
			} else {
				w.sent++
			}
			w.peer = (w.peer + 1) % n
			eng.After(40*Microsecond, tick)
		}
		eng.After(Duration(i%16+1)*500*Nanosecond, tick)
	}
	// Chaos ingredient two: hang node 2's processor mid-traffic; the FTD
	// detects and recovers it while peers retransmit into the outage.
	c.After(300*Microsecond, func() { topo.Nodes[2].InjectHang() })
	// Netfault ingredient: kill leaf 0's uplink to spine 0 for 600 µs.
	// Every cross-leaf flow hashed onto that spine blackholes at the
	// crossbar until the port revives and Go-Back-N repairs the streams.
	// (No watchdog remap here — the outage is shorter than a suspicion —
	// just raw transient-fault pressure on the sharded schedule.)
	up := topo.PerLeaf
	c.After(800*Microsecond, func() { topo.Leaves[0].SetPortDead(up, true) })
	c.After(1400*Microsecond, func() { topo.Leaves[0].SetPortDead(up, false) })

	c.RunUntil(stopAt + 16*Millisecond)
	c.Shutdown(Millisecond)
	if cells[2].extra == 0 {
		t.Fatal("256-node trial never completed FTGM recovery on the hung node")
	}

	root := c.Engine()
	var sum bytes.Buffer
	fmt.Fprintf(&sum, "events=%d now=%d recovered=%d trace=%x\n",
		root.ExecutedAll(), c.Now(), cells[2].extra, th.Sum64())
	for i, node := range topo.Nodes {
		fmt.Fprintf(&sum, "node%d sent=%d rejected=%d recv=%d mcp=%+v\n",
			i, cells[i].sent, cells[i].rejected, cells[i].recv, node.MCPStats())
	}
	return sum.String()
}

// TestShardInvarianceClos is the large-cluster contract: on a 256-node Clos
// with every fault class active at once (lossy cable, processor hang +
// recovery, transient uplink outage), the complete fingerprint — trace
// stream, per-node counters — is bit-for-bit identical across 1, 4 and 8
// executors.
func TestShardInvarianceClos(t *testing.T) {
	serial := runClosShardTrial(t, 1)
	for _, shards := range []int{4, 8} {
		diffFingerprints(t, fmt.Sprintf("shards=%d", shards), serial, runClosShardTrial(t, shards))
	}
}
