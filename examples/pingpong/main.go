// Pingpong: the Figure 8 workload as an application — a repetitive
// ping-pong exchange between two hosts, reporting the half round-trip
// latency per message size for both stock GM and FTGM, so the ~1.5 µs
// fault-tolerance overhead is directly visible.
//
//	go run ./examples/pingpong [-rounds 100]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/gm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pingpong:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pingpong", flag.ContinueOnError)
	rounds := fs.Int("rounds", 100, "ping-pong rounds per size")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sizes := []int{1, 16, 64, 100, 1024, 4096, 16384}
	fmt.Printf("%-10s  %14s  %14s  %10s\n", "bytes", "GM half-RTT", "FTGM half-RTT", "overhead")
	for _, size := range sizes {
		gmLat, err := measure(gm.ModeGM, size, *rounds)
		if err != nil {
			return err
		}
		ftLat, err := measure(gm.ModeFTGM, size, *rounds)
		if err != nil {
			return err
		}
		fmt.Printf("%-10d  %12.2fus  %12.2fus  %8.2fus\n",
			size, gmLat.Micros(), ftLat.Micros(), (ftLat - gmLat).Micros())
	}
	return nil
}

func measure(mode gm.Mode, size, rounds int) (gm.Duration, error) {
	cluster := gm.NewCluster(gm.DefaultConfig(mode))
	a := cluster.AddNode("a")
	b := cluster.AddNode("b")
	sw := cluster.AddSwitch("sw")
	if err := cluster.Connect(a, sw, 0); err != nil {
		return 0, err
	}
	if err := cluster.Connect(b, sw, 1); err != nil {
		return 0, err
	}
	if _, err := cluster.Boot(); err != nil {
		return 0, err
	}
	pa, err := a.OpenPort(1)
	if err != nil {
		return 0, err
	}
	pb, err := b.OpenPort(1)
	if err != nil {
		return 0, err
	}

	// failed keeps the first error raised inside a simulation callback.
	var failed error
	fail := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	payload := make([]byte, size)
	var totalRTT gm.Duration
	var start gm.Time
	done := 0

	// Bob echoes every ping straight back.
	pb.SetReceiveHandler(func(ev gm.RecvEvent) {
		fail(pb.ProvideReceiveBuffer(uint32(size)+16, gm.PriorityLow))
		fail(pb.Send(a.ID(), 1, gm.PriorityLow, payload, nil))
	})
	// Alice times each full round trip and starts the next.
	pa.SetReceiveHandler(func(ev gm.RecvEvent) {
		totalRTT += cluster.Now() - start
		done++
		if done < rounds {
			start = cluster.Now()
			fail(pa.ProvideReceiveBuffer(uint32(size)+16, gm.PriorityLow))
			fail(pa.Send(b.ID(), 1, gm.PriorityLow, payload, nil))
		}
	})

	fail(pa.ProvideReceiveBuffer(uint32(size)+16, gm.PriorityLow))
	fail(pb.ProvideReceiveBuffer(uint32(size)+16, gm.PriorityLow))
	start = cluster.Now()
	fail(pa.Send(b.ID(), 1, gm.PriorityLow, payload, nil))

	for done < rounds && failed == nil {
		cluster.Run(10 * gm.Millisecond)
	}
	if failed != nil {
		return 0, failed
	}
	return totalRTT / gm.Duration(2*rounds), nil
}
