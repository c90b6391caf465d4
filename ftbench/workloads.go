package main

import (
	"fmt"

	"repro/gm"
	"repro/internal/sim"
)

// workload is one fixed-length traffic mix: every port sends msgsPerPort
// messages. setup builds its cluster and traffic from the seed; everything
// it does counts as set-up time.
type workload struct {
	name        string
	msgsPerPort int
	setup       func(seed uint64, msgsPerPort int) (*trial, error)
}

const benchPort gm.PortID = 2

// The three workloads; README.md records why each was chosen.
var workloads = []*workload{
	{"pair_stream", pairMsgs, setupPair},
	{"clos_alltoall", closMsgs, setupClos},
	{"fault_recovery", faultMsgs, setupFault},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// The paper's testbed traffic: every port sends pairMsgs messages, mostly
// 64 B with every pairLargeEvery-th one 32 KB (8 fragments).
const (
	pairMsgs       = 20000
	pairSmall      = 64
	pairLarge      = 32 << 10
	pairLargeEvery = 32
)

func setupPair(seed uint64, msgs int) (*trial, error) {
	cfg := gm.DefaultConfig(gm.ModeFTGM)
	cfg.Seed = seed
	t := &trial{chunk: sim.Millisecond, limit: 30 * sim.Second}

	b0 := nanotime()
	cl := gm.NewCluster(cfg)
	a, b := cl.AddNode("hostA"), cl.AddNode("hostB")
	sw := cl.AddSwitch("m3m-sw8")
	if err := cl.Connect(a, sw, 0); err != nil {
		return nil, err
	}
	if err := cl.Connect(b, sw, 1); err != nil {
		return nil, err
	}
	t.buildNs = nanotime() - b0
	t.cl, t.nodes, t.sws = cl, []*gm.Node{a, b}, []*gm.Switch{sw}
	if err := t.boot(func() error { _, err := cl.Boot(); return err }); err != nil {
		return nil, err
	}

	rng := sim.DeriveRNG(seed, 1)
	ref := refBody(seed, pairLarge)
	err := t.attach(cfg.Host.SendTokens, 2*cfg.Host.SendTokens, pairLarge, ref, func(i int) traffic {
		return traffic{dests: []int{1 - i}, total: msgs, small: pairSmall, large: pairLarge,
			largeEvery: pairLargeEvery, phase: rng.Intn(pairLargeEvery)}
	})
	return t, err
}

// The Clos all-to-all: every node sends closMsgs 512 B messages, one every
// closEvery of simulated time, round-robin over its 63 peers.
const (
	closNodes = 64
	closMsgs  = 600
	closEvery = 16 * sim.Microsecond
	closSize  = 512
)

func setupClos(seed uint64, msgs int) (*trial, error) {
	cfg := gm.DefaultConfig(gm.ModeFTGM)
	cfg.Seed = seed
	cfg.Shards = 2
	// A longer cable (600 ns) widens the conservative windows and a 2 ms
	// MCP load keeps boot short, as in the scaling harness.
	cfg.Link.PropDelay = 600 * sim.Nanosecond
	cfg.Driver.MCPLoadTime = 2 * sim.Millisecond
	t := &trial{chunk: 200 * sim.Microsecond, limit: sim.Second}

	b0 := nanotime()
	cl := gm.NewCluster(cfg)
	topo, err := gm.BuildClos(cl, 4, closNodes/8, 8)
	if err != nil {
		return nil, err
	}
	t.buildNs = nanotime() - b0
	t.cl, t.nodes = cl, topo.Nodes
	t.sws = append(append([]*gm.Switch(nil), topo.Leaves...), topo.Spines...)
	if err := t.boot(func() error { _, err := topo.Boot(cl); return err }); err != nil {
		return nil, err
	}

	// Every node walks the shifted all-to-all schedule from the same
	// seed-derived shift, so each step is a permutation: no two nodes send
	// to one receiver at once, and the load stays below saturation.
	rng := sim.DeriveRNG(seed, 2)
	rot := rng.Intn(closNodes - 1)
	ref := refBody(seed, closSize)
	err = t.attach(cfg.Host.SendTokens, 32, closSize, ref, func(i int) traffic {
		dests := make([]int, 0, closNodes-1)
		for k := 0; k < closNodes-1; k++ {
			dests = append(dests, (i+1+(rot+k)%(closNodes-1))%closNodes)
		}
		return traffic{dests: dests, total: msgs, every: closEvery, small: closSize,
			offset: rng.Duration(closEvery)}
	})
	return t, err
}

// boot times the cluster's boot call.
func (t *trial) boot(fn func() error) error {
	e0 := t.cl.Engine().ExecutedAll()
	b0 := nanotime()
	if err := fn(); err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	t.bootNs = nanotime() - b0
	t.bootEvents = t.cl.Engine().ExecutedAll() - e0
	return nil
}

// traffic is one node's share of a workload.
type traffic struct {
	dests                           []int
	total                           int
	every, offset                   sim.Duration
	small, large, largeEvery, phase int
}

// attach opens the benchmark port on every node, posts recvSlots receive
// buffers of maxSize bytes and wires a generator and an auditing sink to
// it. Each sink's latency table is sized to exactly the messages it will
// receive, so the steady phase never grows it.
func (t *trial) attach(tokens, recvSlots, maxSize int, ref []byte, plan func(i int) traffic) error {
	n := len(t.nodes)
	ids := make([]gm.NodeID, n)
	for i, node := range t.nodes {
		ids[i] = node.ID()
	}
	plans := make([]traffic, n)
	expected := make([]int, n)
	for i := range plans {
		plans[i] = plan(i)
		p := plans[i]
		for k := 0; k < p.total; k++ {
			expected[p.dests[k%len(p.dests)]]++
		}
	}
	for i, node := range t.nodes {
		port, err := node.OpenPort(benchPort)
		if err != nil {
			return err
		}
		for j := 0; j < recvSlots; j++ {
			if err := port.ProvideReceiveBuffer(uint32(maxSize), gm.PriorityLow); err != nil {
				return err
			}
		}
		p := plans[i]
		g := newGen(node.Engine(), port, i, p.dests, ids, p.total, p.every, tokens, maxSize, ref)
		g.offset = p.offset
		g.small, g.large, g.largeEvery, g.phase = p.small, p.large, p.largeEvery, p.phase
		t.gens = append(t.gens, g)
		t.sinks = append(t.sinks, newSink(node.Engine(), port, i, ids, ref, expected[i]))
	}
	return nil
}
