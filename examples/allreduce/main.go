// Allreduce: the distributed-application workload the paper's introduction
// motivates — middleware like MPI "consider GM send errors to be fatal and
// exit", so one interface hang halts the whole job. This example runs a
// ring all-reduce (global sum) across several nodes on top of GM ports,
// injects a hang into one interface mid-reduction, and shows the job
// completing with the correct result on FTGM.
//
//	go run ./examples/allreduce [-nodes 4] [-rounds 6] [-inject]
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/gm"
)

// worker is one rank of the ring all-reduce.
type worker struct {
	rank  int
	port  *gm.Port
	right gm.NodeID // next rank's node

	local   uint64 // this rank's contribution
	results []uint64

	sendFn func(hop byte, sum uint64)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "allreduce:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("allreduce", flag.ContinueOnError)
	nodes := fs.Int("nodes", 4, "ranks in the ring (2..8)")
	rounds := fs.Int("rounds", 6, "all-reduce iterations")
	inject := fs.Bool("inject", true, "hang one interface mid-job")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes < 2 || *nodes > 8 {
		return errors.New("-nodes must be 2..8")
	}

	cfg := gm.DefaultConfig(gm.ModeFTGM)
	cfg.Host.SendTokens = 256
	cluster := gm.NewCluster(cfg)
	sw := cluster.AddSwitch("sw")
	var members []*gm.Node
	for i := 0; i < *nodes; i++ {
		n := cluster.AddNode(fmt.Sprintf("rank%d", i))
		if err := cluster.Connect(n, sw, i); err != nil {
			return err
		}
		members = append(members, n)
	}
	if _, err := cluster.Boot(); err != nil {
		return err
	}

	// Wire the ring: rank i sends to rank (i+1) mod n.
	workers := make([]*worker, *nodes)
	for i, n := range members {
		p, err := n.OpenPort(1)
		if err != nil {
			return err
		}
		for j := 0; j < 16; j++ {
			if err := p.ProvideReceiveBuffer(64, gm.PriorityLow); err != nil {
				return err
			}
		}
		workers[i] = &worker{
			rank:  i,
			port:  p,
			right: members[(i+1)%*nodes].ID(),
			local: uint64(100 + i),
		}
	}

	// Expected global sum per round.
	var expect uint64
	for _, w := range workers {
		expect += w.local
	}

	// failed keeps the first error raised inside a simulation callback.
	var failed error
	fail := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	// Ring protocol: rank 0 starts a round with its own value; each rank
	// adds its contribution and forwards; after a full lap plus a
	// broadcast lap, everyone holds the sum.
	for i := range workers {
		w := workers[i]
		n := *nodes
		w.port.SetReceiveHandler(func(ev gm.RecvEvent) {
			hop := int(ev.Data[0])
			sum := binary.LittleEndian.Uint64(ev.Data[1:])
			fail(w.port.ProvideReceiveBuffer(64, gm.PriorityLow))
			switch {
			case hop < n-1: // reduce lap
				w.send(byte(hop+1), sum+w.local)
			case hop == n-1: // lap complete at the starter's left neighbor
				w.results = append(w.results, sum+w.local)
				w.send(byte(hop+1), sum+w.local) // start broadcast lap
			case hop < 2*n-2: // broadcast lap
				w.results = append(w.results, sum)
				w.send(byte(hop+1), sum)
			default:
				w.results = append(w.results, sum)
			}
		})
	}
	for i := range workers {
		w := workers[i]
		w.sendFn = func(hop byte, sum uint64) {
			buf := make([]byte, 9)
			buf[0] = hop
			binary.LittleEndian.PutUint64(buf[1:], sum)
			fail(w.port.Send(w.right, 1, gm.PriorityLow, buf, nil))
		}
	}

	if *inject {
		victim := members[*nodes/2]
		cluster.After(2*gm.Millisecond, func() {
			fmt.Printf("t=%v  hanging the interface of %s mid-job\n",
				cluster.Now(), victim.Name())
			victim.InjectHang()
		})
	}

	launched := 0
	var launch func()
	launch = func() {
		if launched >= *rounds {
			return
		}
		launched++
		workers[0].send(1, workers[0].local)
		cluster.After(1*gm.Millisecond, launch)
	}
	launch()

	deadline := cluster.Now() + 120*gm.Second
	for cluster.Now() < deadline && failed == nil {
		cluster.Run(500 * gm.Millisecond)
		doneAll := true
		for _, w := range workers {
			if len(w.results) < *rounds {
				doneAll = false
			}
		}
		if doneAll {
			break
		}
	}

	if failed != nil {
		return failed
	}
	ok := true
	for _, w := range workers {
		if len(w.results) < *rounds {
			fmt.Printf("rank %d finished only %d/%d rounds\n", w.rank, len(w.results), *rounds)
			ok = false
			continue
		}
		for r, got := range w.results[:*rounds] {
			if got != expect {
				fmt.Printf("rank %d round %d: sum %d, want %d\n", w.rank, r, got, expect)
				ok = false
			}
		}
	}
	if !ok {
		return errors.New("JOB FAILED")
	}
	fmt.Printf("all %d ranks agree on the sum %d across %d rounds", *nodes, expect, *rounds)
	if *inject {
		fmt.Printf(" — despite an interface hang mid-job")
	}
	fmt.Println()
	return nil
}

// send forwards a (hop, sum) token to the right neighbor.
func (w *worker) send(hop byte, sum uint64) { w.sendFn(hop, sum) }
