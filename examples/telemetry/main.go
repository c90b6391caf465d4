// Telemetry: a spacecraft-flavored workload in the spirit of the paper's
// NASA REE motivation, written in GM's native *polling* style (the
// gm_receive()/gm_unknown() loop of Figure 3). A sensor node streams
// telemetry frames to a recorder and expects a command uplink back; radiation
// hangs the sensor's network processor twice during the pass. The
// application's event loop never mentions faults — it just keeps passing
// events it does not understand to Unknown, and the pass completes with
// every frame recorded exactly once.
//
//	go run ./examples/telemetry [-frames 400]
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
		fmt.Fprintln(os.Stderr, "telemetry:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("telemetry", flag.ContinueOnError)
	frames := fs.Int("frames", 400, "telemetry frames in the pass")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := gm.DefaultConfig(gm.ModeFTGM)
	cfg.Host.SendTokens = 2048
	cluster := gm.NewCluster(cfg)
	sensor := cluster.AddNode("sensor")
	recorder := cluster.AddNode("recorder")
	sw := cluster.AddSwitch("backplane")
	if err := errors.Join(cluster.Connect(sensor, sw, 0), cluster.Connect(recorder, sw, 1)); err != nil {
		return err
	}
	if _, err := cluster.Boot(); err != nil {
		return err
	}

	sp, err := sensor.OpenPort(1)
	if err != nil {
		return err
	}
	rp, err := recorder.OpenPort(1)
	if err != nil {
		return err
	}
	sp.EnablePolling()
	rp.EnablePolling()
	// failed keeps the first error raised inside a simulation callback.
	var failed error
	fail := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	for i := 0; i < 64; i++ {
		fail(sp.ProvideReceiveBuffer(64, gm.PriorityLow))
		fail(rp.ProvideReceiveBuffer(128, gm.PriorityLow))
	}

	// Recorder application: a pure Figure 3 poll loop. Record frames,
	// acknowledge every 50th with a command uplink, pass everything else
	// to Unknown.
	recorded := make(map[uint64]int)
	var lastFrame uint64
	var recorderLoop func()
	recorderLoop = func() {
		for {
			ev, ok := rp.Receive()
			if !ok {
				break
			}
			switch ev.Type {
			case gm.EvReceived:
				id := binary.LittleEndian.Uint64(ev.Data)
				recorded[id]++
				lastFrame = id
				fail(rp.ProvideReceiveBuffer(128, gm.PriorityLow))
				if id%50 == 0 {
					cmd := make([]byte, 8)
					binary.LittleEndian.PutUint64(cmd, id)
					fail(rp.Send(sensor.ID(), 1, gm.PriorityLow, cmd, nil))
				}
			default:
				rp.UnknownEvent(ev) // gm_unknown()
			}
		}
		cluster.After(200*gm.Microsecond, recorderLoop)
	}
	recorderLoop()

	// Sensor application: emit a frame every 250 µs, note command uplinks,
	// pass the rest to Unknown — recovery happens in there without the
	// sensor code knowing.
	var uplinks []uint64
	sent := 0
	var sensorLoop func()
	sensorLoop = func() {
		for {
			ev, ok := sp.Receive()
			if !ok {
				break
			}
			switch ev.Type {
			case gm.EvReceived:
				uplinks = append(uplinks, binary.LittleEndian.Uint64(ev.Data))
				fail(sp.ProvideReceiveBuffer(64, gm.PriorityLow))
			default:
				sp.UnknownEvent(ev)
			}
		}
		if sent < *frames {
			sent++
			frame := make([]byte, 32)
			binary.LittleEndian.PutUint64(frame, uint64(sent))
			fail(sp.Send(recorder.ID(), 1, gm.PriorityLow, frame, nil))
		}
		cluster.After(250*gm.Microsecond, sensorLoop)
	}
	sensorLoop()

	// Two SEUs during the pass: one early, one shortly after the first
	// recovery completes.
	seus := 0
	strike := func() {
		seus++
		fmt.Printf("t=%v  *** SEU #%d: sensor network processor hung\n", cluster.Now(), seus)
		sensor.InjectHang()
	}
	cluster.After(20*gm.Millisecond, strike)
	sensor.Recovered = func() {
		fmt.Printf("t=%v  recovered (detection %v, total %v)\n", cluster.Now(),
			sensor.FTD().Timeline().DetectionTime(),
			sensor.FTD().Timeline().TotalTime())
		if seus < 2 {
			cluster.After(100*gm.Millisecond, strike)
		}
	}

	for (len(recorded) < *frames || seus < 2) && failed == nil && cluster.Now() < 120*gm.Second {
		cluster.Run(500 * gm.Millisecond)
	}
	cluster.Run(3 * gm.Second) // let the final recovery land
	if failed != nil {
		return failed
	}

	dups := 0
	for _, n := range recorded {
		if n > 1 {
			dups++
		}
	}
	fmt.Printf("\npass complete: %d/%d frames recorded, %d duplicates, last frame %d, %d command uplinks\n",
		len(recorded), *frames, dups, lastFrame, len(uplinks))
	if len(recorded) != *frames || dups != 0 {
		return errors.New("PASS DEGRADED")
	}
	fmt.Println("telemetry intact across both upsets; neither application ever saw a fault.")
	return nil
}
