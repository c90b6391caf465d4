// Bulkdma: GM's directed sends (zero-copy deposits into pre-registered
// remote memory) used for bulk state staging — a compute node streams
// checkpoint blocks straight into a storage node's pinned buffer, no
// receive tokens, no receiver-side events. An interface hang strikes in
// the middle of the transfer; the deposits resume transparently and the
// storage image verifies block for block.
//
//	go run ./examples/bulkdma [-blocks 64]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/gm"
)

const blockSize = 8192

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bulkdma:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bulkdma", flag.ContinueOnError)
	blocks := fs.Int("blocks", 64, "checkpoint blocks to stage")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := gm.DefaultConfig(gm.ModeFTGM)
	cfg.Host.SendTokens = 256
	cluster := gm.NewCluster(cfg)
	compute := cluster.AddNode("compute")
	storage := cluster.AddNode("storage")
	sw := cluster.AddSwitch("sw")
	if err := errors.Join(cluster.Connect(compute, sw, 0), cluster.Connect(storage, sw, 1)); err != nil {
		return err
	}
	if _, err := cluster.Boot(); err != nil {
		return err
	}

	pc, err := compute.OpenPort(1)
	if err != nil {
		return err
	}
	ps, err := storage.OpenPort(1)
	if err != nil {
		return err
	}

	// The storage node pins one big region; its layout (one slot per
	// block) is agreed out of band, as with real GM directed sends.
	region, err := ps.RegisterMemory(uint32(*blocks) * blockSize)
	if err != nil {
		return err
	}

	// failed keeps the first error raised inside a simulation callback.
	var failed error
	staged := 0
	var stage func(i int)
	stage = func(i int) {
		if i >= *blocks || failed != nil {
			return
		}
		block := make([]byte, blockSize)
		for j := range block {
			block[j] = byte(i) ^ byte(j*7)
		}
		err := pc.DirectedSend(storage.ID(), 1, region.ID, uint32(i*blockSize), block,
			func(s gm.SendStatus) {
				if s != gm.SendOK && failed == nil {
					failed = fmt.Errorf("block %d failed: %v", i, s)
				}
				staged++
			})
		if err != nil {
			failed = fmt.Errorf("block %d: %w", i, err)
			return
		}
		cluster.After(300*gm.Microsecond, func() { stage(i + 1) })
	}
	stage(0)

	// The fault: hang the compute node's interface mid-transfer.
	cluster.After(5*gm.Millisecond, func() {
		fmt.Printf("t=%v  interface hang with %d/%d blocks staged\n",
			cluster.Now(), staged, *blocks)
		compute.InjectHang()
	})
	compute.Recovered = func() {
		fmt.Printf("t=%v  recovered; staging resumes\n", cluster.Now())
	}

	for staged < *blocks && failed == nil && cluster.Now() < 60*gm.Second {
		cluster.Run(200 * gm.Millisecond)
	}
	if failed != nil {
		return failed
	}

	// Verify the storage image.
	bad := 0
	for i := 0; i < *blocks; i++ {
		for j := 0; j < blockSize; j++ {
			if region.Buf[i*blockSize+j] != byte(i)^byte(j*7) {
				bad++
				break
			}
		}
	}
	fmt.Printf("\nstaged %d/%d blocks (%d KB), corrupt blocks: %d\n",
		staged, *blocks, staged*blockSize/1024, bad)
	if staged != *blocks || bad != 0 {
		return errors.New("STAGING FAILED")
	}
	fmt.Println("checkpoint image intact across the interface failure.")
	return nil
}
