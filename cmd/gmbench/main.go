// Command gmbench regenerates the paper's performance evaluation on the
// simulated Myrinet/GM stack:
//
//	gmbench -mode bw        Figure 7  (bidirectional bandwidth vs length)
//	gmbench -mode lat       Figure 8  (half round-trip latency vs length)
//	gmbench -mode table2    Table 2   (metric summary, GM vs FTGM)
//	gmbench -mode table1    Table 1   (fault-injection campaign)
//	gmbench -mode netfault  network-fault failover (dead trunks/partitions)
//	gmbench -mode hostfault host-death campaign: endpoints checkpointed,
//	                        killed mid-burst and restored (or reborn after
//	                        expulsion) under central and gossip planes
//	gmbench -mode scale     large-cluster scaling: serial vs sharded engine
//	gmbench -mode scale_mc  multi-core matrix: shard counts plus a
//	                        dispatch-threshold sweep
//	gmbench -mode all       everything
//
// -mode also accepts a comma-separated list (e.g. -mode bw,lat,netfault).
// The -quick flag shrinks the sweeps for a fast smoke run. The -json flag
// writes the headline metrics (MB/s asymptote, short-message half-RTT,
// campaign percentages, wall-clock) to a machine-readable file so successive
// PRs have a bench trajectory to compare against.
//
// Harness-performance instrumentation:
//
//	-cpuprofile f   write a pprof CPU profile of the run
//	-memprofile f   write a pprof heap profile at exit
//	-benchjson f    write per-section wall-clock/allocation metrics
//	                (ns/op, allocs/op, simulated MB per wall-second)
//	-baseline f     embed a prior -benchjson file (or a legacy -json file
//	                from a bandwidth-only run) in the -benchjson output and
//	                report the Figure 7 wall-clock speedup against it
//
// and a regression gate for CI:
//
//	gmbench -mode benchdiff old.json new.json
//
// which exits nonzero when any section shared by the two -benchjson files
// regressed by more than 10% in allocs/op (ns/op differences only warn).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// report is the -json output shape. Fields are omitted when their mode did
// not run.
type report struct {
	WallClockSec float64 `json:"wall_clock_sec"`
	Workers      int     `json:"workers"`

	// Figure 7: bandwidth at the largest swept size (the asymptote).
	GMBandwidthMBs   float64 `json:"gm_bandwidth_mbs,omitempty"`
	FTGMBandwidthMBs float64 `json:"ftgm_bandwidth_mbs,omitempty"`

	// Figure 8: half round trip at the smallest swept size.
	GMHalfRTTUs   float64 `json:"gm_half_rtt_us,omitempty"`
	FTGMHalfRTTUs float64 `json:"ftgm_half_rtt_us,omitempty"`

	// Table 2 summary rows.
	Table2 *table2JSON `json:"table2,omitempty"`

	// Table 1 campaign outcome percentages, keyed by category name.
	CampaignRuns    int                `json:"campaign_runs,omitempty"`
	CampaignPercent map[string]float64 `json:"campaign_percent,omitempty"`

	// Network-fault comparison, keyed by scheme (GM, FTGM, FTGM+netwatch).
	NetFault map[string]netFaultJSON `json:"netfault,omitempty"`

	// Control-plane comparison under mapper death, keyed by scheme
	// (FTGM, FTGM+central, FTGM+gossip).
	ControlPlane map[string]controlPlaneJSON `json:"controlplane,omitempty"`

	// Host-death checkpoint/restart comparison, keyed by scheme
	// (restore+central, restore+gossip, rebirth+gossip).
	HostFault map[string]hostFaultJSON `json:"hostfault,omitempty"`

	// Large-cluster scaling sweep: serial vs sharded engine per point.
	Scale []experiments.ScalePoint `json:"scale,omitempty"`
	// Multi-core matrix cells (scale_mc mode).
	ScaleMatrix []experiments.MatrixPoint `json:"scale_matrix,omitempty"`
	// ScaleSpeedupMax is the best serial/sharded wall-clock ratio observed
	// across the sweep (on a single-core host this reflects only the
	// per-domain-heap effect, not parallel execution).
	ScaleSpeedupMax float64 `json:"scale_speedup_max,omitempty"`
}

type netFaultJSON struct {
	Sent          uint64  `json:"sent"`
	Delivered     uint64  `json:"delivered"`
	Lost          uint64  `json:"lost"`
	Failed        uint64  `json:"failed"`
	DeliveryRate  float64 `json:"delivery_rate"`
	ExactlyOnce   bool    `json:"exactly_once"`
	Suspicions    uint64  `json:"suspicions"`
	Incidents     uint64  `json:"incidents"`
	Remaps        uint64  `json:"remaps"`
	RemapFailures uint64  `json:"remap_failures"`
	Probes        uint64  `json:"probes"`
	Unreachable   uint64  `json:"unreachable"`
	Readmissions  uint64  `json:"readmissions"`
}

type controlPlaneJSON struct {
	Sent         uint64  `json:"sent"`
	Delivered    uint64  `json:"delivered"`
	Lost         uint64  `json:"lost"`
	Failed       uint64  `json:"failed"`
	Excused      uint64  `json:"excused"`
	DeliveryRate float64 `json:"delivery_rate"`
	Verdict      string  `json:"verdict"`
	Remaps       uint64  `json:"remaps"`
	Unreachable  uint64  `json:"unreachable"`
	DeadDeclared uint64  `json:"dead_declared"`
	Readmissions uint64  `json:"readmissions"`
	LiveExpelled uint64  `json:"live_expelled"`
	RouteGaps    uint64  `json:"route_gaps"`
}

type hostFaultJSON struct {
	Sent            uint64  `json:"sent"`
	Delivered       uint64  `json:"delivered"`
	Excused         uint64  `json:"excused"`
	DeliveryRate    float64 `json:"delivery_rate"`
	Verdict         string  `json:"verdict"`
	Checkpoints     uint64  `json:"checkpoints"`
	CheckpointBytes uint64  `json:"checkpoint_bytes"`
	Restores        uint64  `json:"restores"`
	Rejoins         uint64  `json:"rejoins"`
	DeadDeclared    uint64  `json:"dead_declared"`
	Readmissions    uint64  `json:"readmissions"`
	LiveExpelled    uint64  `json:"live_expelled"`
	RouteGaps       uint64  `json:"route_gaps"`

	// Incremental-checkpoint telemetry (the periodic+central scheme):
	// base+delta frames shipped, bounded-drain accounting and the worst
	// per-checkpoint drain pause observed across the campaign.
	PeriodicFrames  uint64 `json:"periodic_frames,omitempty"`
	PeriodicBytes   uint64 `json:"periodic_bytes,omitempty"`
	PeriodicSkips   uint64 `json:"periodic_skips,omitempty"`
	MaxDrainPauseNs int64  `json:"max_drain_pause_ns,omitempty"`
	ChainMismatches uint64 `json:"chain_mismatches,omitempty"`
}

type table2JSON struct {
	GM   table2RowJSON `json:"gm"`
	FTGM table2RowJSON `json:"ftgm"`
}

type table2RowJSON struct {
	BandwidthMBs  float64 `json:"bandwidth_mbs"`
	LatencyUs     float64 `json:"latency_us"`
	HostSendUs    float64 `json:"host_send_us"`
	HostRecvUs    float64 `json:"host_recv_us"`
	LanaiPerMsgUs float64 `json:"lanai_per_msg_us"`
}

// benchSection is one measured section of a -benchjson report. Ops are
// simulated messages (or ping-pong rounds); ns/op and allocs/op are the
// harness's real cost to simulate each, which is what the zero-copy work
// optimizes. MBPerWallSec is simulated payload bytes moved per wall-clock
// second — a harness-throughput figure, not the simulated link bandwidth.
type benchSection struct {
	WallNs       int64   `json:"wall_ns"`
	Ops          int64   `json:"ops"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	MBPerWallSec float64 `json:"mb_per_wall_sec,omitempty"`

	// Execution-shape metadata, so a section's numbers can be judged in
	// context (a 1-shard cell and an 8-shard cell are different machines).
	Shards    int `json:"shards,omitempty"`
	Threshold int `json:"threshold,omitempty"`
}

// benchReport is the -benchjson output shape.
type benchReport struct {
	GoVersion  string                  `json:"go_version"`
	GoMaxProcs int                     `json:"gomaxprocs"`
	NumCPU     int                     `json:"num_cpu"`
	Workers    int                     `json:"workers"`
	Sections   map[string]benchSection `json:"sections"`

	// Baseline comparison, present when -baseline was given.
	Baseline     map[string]benchSection `json:"baseline,omitempty"`
	BaselineFrom string                  `json:"baseline_from,omitempty"`
	// BaselineNumCPU is the CPU count recorded in the baseline file (0 for
	// a legacy baseline that predates the field). benchdiff uses it to
	// downgrade wall-clock gates to warnings when the machines differ.
	BaselineNumCPU int `json:"baseline_num_cpu,omitempty"`
	// Fig7Speedup is baseline fig7_bw wall clock over this run's, the
	// headline harness-performance ratio.
	Fig7Speedup float64 `json:"fig7_speedup_vs_baseline,omitempty"`
}

// measure runs fn and reports its wall clock and heap allocation deltas per
// op. fn returns (ops, payload bytes simulated).
func measure(fn func() (int64, uint64, error)) (benchSection, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops, bytes, err := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return benchSection{}, err
	}
	s := benchSection{WallNs: wall.Nanoseconds(), Ops: ops}
	if ops > 0 {
		s.NsPerOp = float64(s.WallNs) / float64(ops)
		s.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(ops)
		s.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
	}
	if bytes > 0 && wall > 0 {
		s.MBPerWallSec = float64(bytes) / 1e6 / wall.Seconds()
	}
	return s, nil
}

// loadBaseline reads a prior -benchjson file, returning its sections and
// the CPU count it was measured on (0 when the file predates the field). A
// legacy -json file from a bandwidth-only run (wall_clock_sec +
// gm_bandwidth_mbs, no sections) is accepted and synthesized into a lone
// fig7_bw section, so a pre-refactor gmbench binary can still produce the
// baseline.
func loadBaseline(path string) (map[string]benchSection, int, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var f struct {
		Sections       map[string]benchSection `json:"sections"`
		NumCPU         int                     `json:"num_cpu"`
		WallClockSec   float64                 `json:"wall_clock_sec"`
		GMBandwidthMBs float64                 `json:"gm_bandwidth_mbs"`
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, 0, fmt.Errorf("baseline %s: %w", path, err)
	}
	if f.Sections != nil {
		return f.Sections, f.NumCPU, nil
	}
	if f.WallClockSec > 0 && f.GMBandwidthMBs > 0 {
		return map[string]benchSection{
			"fig7_bw": {WallNs: int64(f.WallClockSec * 1e9)},
		}, f.NumCPU, nil
	}
	return nil, 0, fmt.Errorf("baseline %s: neither a -benchjson file nor a legacy bandwidth-only -json file", path)
}

// benchdiff compares two -benchjson files and reports sections whose ns/op
// or allocs/op regressed beyond the threshold. It returns the number of
// regressions found. Cross-file wall-clock diffs never gate, only warn:
// ns/op against a baseline from another box — or the same box under
// different load; matrix cells swing 2-3x between idle and busy runs on a
// shared host — measures the machines, not the code, and the CPU count is
// too weak a fingerprint to tell those apart. The hard gate is the
// machine-independent metric: allocation counts.
func benchdiff(oldPath, newPath string, threshold float64) (int, error) {
	oldS, oldCPU, err := loadBaseline(oldPath)
	if err != nil {
		return 0, err
	}
	newS, newCPU, err := loadBaseline(newPath)
	if err != nil {
		return 0, err
	}
	if oldCPU > 0 && newCPU > 0 && oldCPU != newCPU {
		fmt.Printf("note: baseline measured on %d CPUs, this run on %d\n", oldCPU, newCPU)
	}
	regressions := 0
	check := func(section, metric string, oldV, newV float64, wallClock bool) {
		if oldV <= 0 {
			return
		}
		ratio := newV/oldV - 1
		status := "ok"
		if ratio > threshold {
			if wallClock {
				status = "WARN (wall clock vs baseline; not a gate)"
			} else {
				status = "REGRESSION"
				regressions++
			}
		}
		fmt.Printf("%-20s %-12s %14.1f -> %14.1f  %+7.1f%%  %s\n",
			section, metric, oldV, newV, ratio*100, status)
	}
	for name, o := range oldS {
		n, ok := newS[name]
		if !ok {
			fmt.Printf("%-20s missing from %s (skipped)\n", name, newPath)
			continue
		}
		if o.NsPerOp > 0 && n.NsPerOp > 0 {
			check(name, "ns/op", o.NsPerOp, n.NsPerOp, true)
			check(name, "allocs/op", o.AllocsPerOp, n.AllocsPerOp, false)
		} else {
			// Legacy baseline: only wall clock is comparable.
			check(name, "wall_ns", float64(o.WallNs), float64(n.WallNs), true)
		}
	}
	return regressions, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gmbench:", err)
		os.Exit(1)
	}
}

func run() error {
	mode := flag.String("mode", "all", "comma-separated: bw | lat | table2 | table1 | netfault | controlplane | hostfault | scale | scale_mc | all; or benchdiff OLD NEW")
	shards := flag.Int("shards", 4, "scale: executor count for the sharded runs")
	msgs := flag.Int("msgs", 200, "messages per bandwidth point (paper: 1000)")
	rounds := flag.Int("rounds", 100, "ping-pong rounds per latency point")
	runs := flag.Int("runs", 1000, "fault-injection trials for table1")
	seed := flag.Uint64("seed", 2003, "campaign seed for table1")
	quick := flag.Bool("quick", false, "small sweeps for a fast run")
	jsonPath := flag.String("json", "", "write headline metrics as JSON to this file")
	benchJSON := flag.String("benchjson", "", "write per-section harness bench metrics as JSON to this file")
	baseline := flag.String("baseline", "", "prior -benchjson (or legacy bw-only -json) file to embed and compare against")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	threshold := flag.Float64("threshold", 0.10, "benchdiff: fractional regression that fails the gate")
	ckptEvery := flag.Int("ckpt-every", 0, "hostfault: write the resumable campaign artifact every N completed trials (0 = off)")
	ckptFile := flag.String("ckpt-file", "hostfault_campaign.ckpt.json", "hostfault: resumable campaign artifact path")
	resumeFrom := flag.String("resume-from", "", "hostfault: resume the campaign from a prior artifact file")
	flag.Parse()

	if *mode == "benchdiff" {
		if flag.NArg() != 2 {
			return fmt.Errorf("benchdiff needs two files: gmbench -mode benchdiff OLD.json NEW.json")
		}
		regressions, err := benchdiff(flag.Arg(0), flag.Arg(1), *threshold)
		if err != nil {
			return err
		}
		if regressions > 0 {
			return fmt.Errorf("%d bench regression(s) beyond %.0f%%", regressions, *threshold*100)
		}
		fmt.Println("benchdiff: no regressions")
		return nil
	}

	if *quick {
		*msgs = 40
		*rounds = 20
		*runs = 200
	}

	modes := make(map[string]bool)
	for _, m := range strings.Split(*mode, ",") {
		modes[strings.TrimSpace(m)] = true
	}
	doBW := modes["bw"] || modes["all"]
	doLat := modes["lat"] || modes["all"]
	doT2 := modes["table2"] || modes["all"]
	doT1 := modes["table1"] || modes["all"]
	doNF := modes["netfault"] || modes["all"]
	doCP := modes["controlplane"] || modes["all"]
	doHF := modes["hostfault"] || modes["all"]
	doScale := modes["scale"] || modes["all"]
	doMC := modes["scale_mc"] || modes["all"]
	if !doBW && !doLat && !doT2 && !doT1 && !doNF && !doCP && !doHF && !doScale && !doMC {
		return fmt.Errorf("unknown -mode %q", *mode)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	started := time.Now()
	rep := report{Workers: parallel.Workers()}
	sections := make(map[string]benchSection)

	if doBW {
		sizes := experiments.Figure7Sizes()
		if *quick {
			sizes = []int{64, 1024, 4096, 4097, 16384, 65536, 262144}
		}
		sec, err := measure(func() (int64, uint64, error) {
			res, err := experiments.Figure7(sizes, *msgs)
			if err != nil {
				return 0, 0, err
			}
			fmt.Println(res.Render())
			rep.GMBandwidthMBs = res.GM.Points[len(res.GM.Points)-1].Y
			rep.FTGMBandwidthMBs = res.FTGM.Points[len(res.FTGM.Points)-1].Y
			// Two modes, two directions, msgs messages per size point.
			var bytes uint64
			for _, s := range sizes {
				bytes += uint64(s) * uint64(*msgs) * 4
			}
			return int64(len(sizes)) * int64(*msgs) * 4, bytes, nil
		})
		if err != nil {
			return err
		}
		sections["fig7_bw"] = sec
	}
	if doLat {
		sizes := experiments.Figure8Sizes()
		if *quick {
			sizes = []int{1, 16, 100, 1024, 16384}
		}
		sec, err := measure(func() (int64, uint64, error) {
			res, err := experiments.Figure8(sizes, *rounds)
			if err != nil {
				return 0, 0, err
			}
			fmt.Println(res.Render())
			rep.GMHalfRTTUs = res.GM.Points[0].Y
			rep.FTGMHalfRTTUs = res.FTGM.Points[0].Y
			return int64(len(sizes)) * int64(*rounds) * 2, 0, nil
		})
		if err != nil {
			return err
		}
		sections["fig8_lat"] = sec
	}
	if doT2 {
		res, err := experiments.Table2()
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		rep.Table2 = &table2JSON{
			GM:   table2RowJSON(res.GM),
			FTGM: table2RowJSON(res.FTGM),
		}
	}
	if doT1 {
		res, err := experiments.Table1(*runs, *seed)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		rep.CampaignRuns = res.Campaign.Runs
		rep.CampaignPercent = make(map[string]float64)
		for _, o := range fault.Outcomes() {
			rep.CampaignPercent[o.String()] = res.Campaign.Percent(o)
		}
	}

	if doNF {
		cfg := chaos.CampaignConfig{
			Trials: 4,
			Trial: chaos.TrialConfig{
				Nodes:     4,
				Traffic:   sim.Second,
				SendEvery: 2 * sim.Millisecond,
				Events:    2,
				MaxSettle: 15 * sim.Second,
			},
		}
		if *quick {
			cfg.Trials = 1
			cfg.Trial.SendEvery = 4 * sim.Millisecond
		}
		sec, err := measure(func() (int64, uint64, error) {
			res, err := experiments.NetworkFaultComparison(*seed, cfg)
			if err != nil {
				return 0, 0, err
			}
			fmt.Println(experiments.RenderNetFault(res))
			rep.NetFault = make(map[string]netFaultJSON)
			var ops int64
			for _, r := range res {
				ops += int64(r.Campaign.Total.Sent)
				rep.NetFault[r.Label] = netFaultJSON{
					Sent:          r.Campaign.Total.Sent,
					Delivered:     r.Campaign.Total.Unique,
					Lost:          r.Campaign.Total.Lost,
					Failed:        r.Campaign.Total.Failed,
					DeliveryRate:  r.DeliveryRate(),
					ExactlyOnce:   r.Campaign.AllExactlyOnce,
					Suspicions:    r.Counters.Suspicions,
					Incidents:     r.Counters.Incidents,
					Remaps:        r.Counters.Remaps,
					RemapFailures: r.Counters.RemapFailures,
					Probes:        r.Counters.Probes,
					Unreachable:   r.Counters.Unreachable,
					Readmissions:  r.Counters.Readmissions,
				}
			}
			return ops, 0, nil
		})
		if err != nil {
			return err
		}
		sections["netfault_campaign"] = sec
	}

	if doCP {
		cfg := chaos.CampaignConfig{
			Trials: 4,
			Trial: chaos.TrialConfig{
				Nodes:     4,
				Traffic:   sim.Second,
				SendEvery: 2 * sim.Millisecond,
				Events:    1,
				MaxSettle: 15 * sim.Second,
			},
		}
		if *quick {
			cfg.Trials = 1
			cfg.Trial.SendEvery = 4 * sim.Millisecond
		}
		sec, err := measure(func() (int64, uint64, error) {
			res, err := experiments.ControlPlaneComparison(*seed, cfg)
			if err != nil {
				return 0, 0, err
			}
			fmt.Println(experiments.RenderControlPlane(res))
			rep.ControlPlane = make(map[string]controlPlaneJSON)
			var ops int64
			for _, r := range res {
				ops += int64(r.Campaign.Total.Sent)
				rep.ControlPlane[r.Label] = controlPlaneJSON{
					Sent:         r.Campaign.Total.Sent,
					Delivered:    r.Campaign.Total.Unique,
					Lost:         r.Campaign.Total.Lost,
					Failed:       r.Campaign.Total.Failed,
					Excused:      r.Campaign.Total.Excused,
					DeliveryRate: r.DeliveryRate(),
					Verdict:      r.Verdict(),
					Remaps:       r.Counters.Remaps,
					Unreachable:  r.Counters.Unreachable,
					DeadDeclared: r.Counters.DeadDeclared,
					Readmissions: r.Counters.Readmissions,
					LiveExpelled: r.Counters.LiveExpelled,
					RouteGaps:    r.Counters.RouteGaps,
				}
			}
			return ops, 0, nil
		})
		if err != nil {
			return err
		}
		sections["controlplane_campaign"] = sec
	}

	if doHF {
		cfg := chaos.CampaignConfig{
			Trials: 2,
			Trial: chaos.TrialConfig{
				Nodes:     4,
				Traffic:   sim.Second,
				SendEvery: 4 * sim.Millisecond,
				Events:    2,
				MaxSettle: 30 * sim.Second,
			},
		}
		// Pin the audited message size so the throughput accounting below
		// can count delivered payload bytes the way fig7_bw does.
		cfg.Trial.MsgBytes = chaos.DefaultTrialConfig().MsgBytes
		if *quick {
			cfg.Trials = 1
		}
		sec, err := measure(func() (int64, uint64, error) {
			var res []experiments.HostFaultResult
			var err error
			if *ckptEvery > 0 || *resumeFrom != "" {
				res, err = runHostFaultResumable(*seed, cfg, *ckptEvery, *ckptFile, *resumeFrom)
			} else {
				res, err = experiments.HostFaultComparison(*seed, cfg)
			}
			if err != nil {
				return 0, 0, err
			}
			fmt.Println(experiments.RenderHostFault(res))
			rep.HostFault = make(map[string]hostFaultJSON)
			var ops int64
			var bytes uint64
			for _, r := range res {
				ops += int64(r.Campaign.Total.Sent)
				// Delivered payload bytes, like fig7_bw: unique deliveries
				// times the audited message size (checkpoint bytes are
				// recovery metadata, not moved payload).
				bytes += r.Campaign.Total.Unique * uint64(cfg.Trial.MsgBytes)
				rep.HostFault[r.Label] = hostFaultJSON{
					Sent:            r.Campaign.Total.Sent,
					Delivered:       r.Campaign.Total.Unique,
					Excused:         r.Campaign.Total.Excused,
					DeliveryRate:    r.DeliveryRate(),
					Verdict:         r.Verdict(),
					Checkpoints:     r.Counters.Checkpoints,
					CheckpointBytes: r.Counters.CheckpointBytes,
					Restores:        r.Counters.Restores,
					Rejoins:         r.Counters.Rejoins,
					DeadDeclared:    r.Counters.DeadDeclared,
					Readmissions:    r.Counters.Readmissions,
					LiveExpelled:    r.Counters.LiveExpelled,
					RouteGaps:       r.Counters.RouteGaps,
					PeriodicFrames:  r.Counters.PeriodicFrames,
					PeriodicBytes:   r.Counters.PeriodicBytes,
					PeriodicSkips:   r.Counters.PeriodicSkips,
					MaxDrainPauseNs: int64(r.Counters.MaxDrainPause),
					ChainMismatches: r.Counters.ChainMismatches,
				}
			}
			return ops, bytes, nil
		})
		if err != nil {
			return err
		}
		sections["hostfault_campaign"] = sec
	}

	if doScale {
		sizes := []int{16, 64, 128, 256}
		stormAt := 128
		if *quick {
			sizes = []int{16, 64}
			stormAt = 64
		}
		sec, err := measure(func() (int64, uint64, error) {
			pts, err := experiments.ScaleSweep(sizes, *shards, stormAt)
			if err != nil {
				return 0, 0, err
			}
			fmt.Println(experiments.RenderScale(pts))
			rep.Scale = pts
			var ops int64
			var bytes uint64
			for _, p := range pts {
				ops += p.Serial.Delivered + p.Sharded.Delivered
				bytes += uint64(p.Serial.Delivered+p.Sharded.Delivered) * 512
				if s := p.Speedup(); s > rep.ScaleSpeedupMax {
					rep.ScaleSpeedupMax = s
				}
			}
			return ops, bytes, nil
		})
		if err != nil {
			return err
		}
		sec.Shards = *shards
		sections["scale"] = sec
	}

	if doMC {
		nodes := 256
		shardCounts := []int{1, 2, 4, 8}
		thresholds := []int{1, 3, 6}
		dur := 2 * sim.Millisecond
		if *quick {
			nodes = 64
			shardCounts = []int{1, 4}
			thresholds = []int{3}
			dur = sim.Millisecond
		}
		pts, err := experiments.ScaleMatrix(nodes, shardCounts, thresholds, dur)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderScaleMatrix(nodes, pts))
		rep.ScaleMatrix = pts
		// Each cell is its own machine configuration, so each gets its own
		// section (the matrix already measures per-cell wall clock).
		for _, p := range pts {
			r := p.Result
			s := benchSection{
				WallNs:    r.WallNs,
				Ops:       r.Delivered,
				Shards:    r.Shards,
				Threshold: r.Threshold,
			}
			if r.Delivered > 0 {
				s.NsPerOp = float64(r.WallNs) / float64(r.Delivered)
			}
			sections["scale_mc_"+p.Label] = s
		}
	}

	rep.WallClockSec = time.Since(started).Seconds()
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%.1fs wall clock, %d workers)\n",
			*jsonPath, rep.WallClockSec, rep.Workers)
	}
	if *benchJSON != "" {
		brep := benchReport{
			GoVersion:  runtime.Version(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			Workers:    parallel.Workers(),
			Sections:   sections,
		}
		if *baseline != "" {
			base, baseCPU, err := loadBaseline(*baseline)
			if err != nil {
				return err
			}
			brep.Baseline = base
			brep.BaselineFrom = *baseline
			brep.BaselineNumCPU = baseCPU
			if b, ok := base["fig7_bw"]; ok {
				if cur, ok := sections["fig7_bw"]; ok && cur.WallNs > 0 {
					brep.Fig7Speedup = float64(b.WallNs) / float64(cur.WallNs)
				}
			}
		}
		buf, err := json.MarshalIndent(brep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*benchJSON, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s", *benchJSON)
		if brep.Fig7Speedup > 0 {
			fmt.Printf(" (fig7 %.2fx vs %s)", brep.Fig7Speedup, *baseline)
		}
		fmt.Println()
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}
