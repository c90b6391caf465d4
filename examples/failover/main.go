// Failover: the paper's headline demonstration as an application. A sender
// streams numbered messages continuously; halfway through, its network
// processor is hung (the Table 1 failure FTGM targets). The software
// watchdog detects the hang in under a millisecond, the fault tolerance
// daemon rebuilds the interface, the library's FAULT_DETECTED handler
// restores the tokens and sequence state — and the application code below
// never learns any of it happened: every message arrives exactly once, in
// order.
//
//	go run ./examples/failover [-messages 300]
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/gm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "failover:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("failover", flag.ContinueOnError)
	messages := fs.Int("messages", 300, "messages to stream")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := gm.DefaultConfig(gm.ModeFTGM)
	cfg.Host.SendTokens = 1024 // deep pool: tokens stay out during the outage
	cluster := gm.NewCluster(cfg)
	sender := cluster.AddNode("sender")
	receiver := cluster.AddNode("receiver")
	sw := cluster.AddSwitch("sw")
	if err := errors.Join(cluster.Connect(sender, sw, 0), cluster.Connect(receiver, sw, 1)); err != nil {
		return err
	}
	if _, err := cluster.Boot(); err != nil {
		return err
	}

	ps, err := sender.OpenPort(1)
	if err != nil {
		return err
	}
	pr, err := receiver.OpenPort(1)
	if err != nil {
		return err
	}
	// failed keeps the first error raised inside a simulation callback.
	var failed error
	fail := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	// The receiving application: audit order and exactly-once delivery.
	var delivered, dups, gaps int
	next := uint64(1)
	pr.SetReceiveHandler(func(ev gm.RecvEvent) {
		id := binary.LittleEndian.Uint64(ev.Data)
		switch {
		case id == next:
			next++
		case id < next:
			dups++
		default:
			gaps++
			next = id + 1
		}
		delivered++
		fail(pr.ProvideReceiveBuffer(64, gm.PriorityLow))
	})
	for i := 0; i < 64; i++ {
		if err := pr.ProvideReceiveBuffer(64, gm.PriorityLow); err != nil {
			return err
		}
	}

	// The sending application: one numbered message every 100 µs.
	sent := 0
	var pump func()
	pump = func() {
		if sent >= *messages || failed != nil {
			return
		}
		sent++
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, uint64(sent))
		if err := ps.Send(receiver.ID(), 1, gm.PriorityLow, buf, nil); err != nil {
			fail(fmt.Errorf("send %d: %w", sent, err))
			return
		}
		cluster.After(100*gm.Microsecond, pump)
	}
	pump()

	// The fault: hang the sender's LANai mid-stream.
	hangAt := gm.Duration(*messages/2) * 100 * gm.Microsecond
	cluster.After(hangAt, func() {
		fmt.Printf("t=%v  !!! network processor hung (sender had posted %d messages)\n",
			cluster.Now(), sent)
		sender.InjectHang()
	})
	sender.Recovered = func() {
		tl := sender.FTD().Timeline()
		fmt.Printf("t=%v  recovery complete: detection %v, FTD %v, per-process %v\n",
			cluster.Now(), tl.DetectionTime(), tl.FTDTime(), tl.PerProcessTime())
	}

	// Run until everything has drained.
	for delivered < *messages && failed == nil && cluster.Now() < 60*gm.Second {
		cluster.Run(100 * gm.Millisecond)
	}

	if failed != nil {
		return failed
	}
	fmt.Printf("\nsent %d, delivered %d, duplicates %d, order gaps %d\n",
		sent, delivered, dups, gaps)
	if delivered != *messages || dups != 0 || gaps != 0 {
		return errors.New("AUDIT FAILED")
	}
	fmt.Println("exactly-once, in-order delivery across the interface failure — the")
	fmt.Println("application above contains no fault-handling code at all.")
	return nil
}
