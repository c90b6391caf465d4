// Quickstart: bring up a two-node Myrinet cluster, open a GM port on each
// side, and exchange a message — the minimal use of the public API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"repro/gm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

// run takes no flags; args is there so every example has the same shape.
func run(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	// A cluster is hosts + switches + cables, simulated in virtual time.
	// ModeFTGM arms the paper's fault tolerance; ModeGM is stock GM.
	cluster := gm.NewCluster(gm.DefaultConfig(gm.ModeFTGM))
	alice := cluster.AddNode("alice")
	bob := cluster.AddNode("bob")
	sw := cluster.AddSwitch("sw0")
	if err := cluster.Connect(alice, sw, 0); err != nil {
		return err
	}
	if err := cluster.Connect(bob, sw, 1); err != nil {
		return err
	}

	// Boot loads the control program into each interface card and runs the
	// GM mapper, which assigns node IDs and distributes routes.
	if _, err := cluster.Boot(); err != nil {
		return err
	}
	fmt.Printf("booted: alice is node %d, bob is node %d\n", alice.ID(), bob.ID())

	// GM's programming model: open a port, provide receive buffers
	// (receive tokens), send with a callback (send tokens).
	pa, err := alice.OpenPort(2)
	if err != nil {
		return err
	}
	pb, err := bob.OpenPort(2)
	if err != nil {
		return err
	}

	received := false
	pb.SetReceiveHandler(func(ev gm.RecvEvent) {
		fmt.Printf("bob received %q from node %d port %d at t=%v\n",
			ev.Data, ev.Src, ev.SrcPort, cluster.Now())
		received = true
	})
	if err := pb.ProvideReceiveBuffer(4096, gm.PriorityLow); err != nil {
		return err
	}

	sentAt := cluster.Now()
	err = pa.Send(bob.ID(), 2, gm.PriorityLow, []byte("hello, Myrinet"),
		func(status gm.SendStatus) {
			fmt.Printf("alice's send completed with %v after %v\n",
				status, cluster.Now()-sentAt)
		})
	if err != nil {
		return err
	}

	// Advance virtual time until the exchange completes.
	cluster.Run(5 * gm.Millisecond)
	if !received {
		return fmt.Errorf("bob received nothing")
	}
	return nil
}
