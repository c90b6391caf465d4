// Package repro's benchmark suite regenerates every table and figure of
// the paper as a testing.B benchmark. Each benchmark runs the experiment
// and reports the headline quantities as custom metrics (in the paper's
// units), so `go test -bench=. -benchmem` prints the reproduction next to
// the usual ns/op:
//
//	BenchmarkTable1FaultInjection    hang%%, corrupt%%, noimpact%%
//	BenchmarkFigure7Bandwidth        MB/s at the asymptote, GM and FTGM
//	BenchmarkFigure8Latency          small-message half-RTT µs, GM and FTGM
//	BenchmarkTable2Metrics           host/LANai utilization µs
//	BenchmarkTable3Recovery          detection/FTD/per-process µs
//	BenchmarkFigure9Timeline         total recovery ms
//	BenchmarkRecoveryEffectiveness   recovered fraction
//	BenchmarkFigure4/5Scenario       deliveries in the crash windows
//	BenchmarkAblation*               the DESIGN.md §6 ablations
package repro

import (
	"testing"

	"repro/gm"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/parallel"
)

// BenchmarkTable1FaultInjection reproduces Table 1: 1000 single-bit flips
// in the send_chunk section, classified by executing the corrupted
// firmware.
func BenchmarkTable1FaultInjection(b *testing.B) {
	var last fault.CampaignResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(1000, 2003)
		if err != nil {
			b.Fatal(err)
		}
		last = res.Campaign
	}
	b.ReportMetric(last.Percent(fault.OutcomeLocalHang), "hang%")
	b.ReportMetric(last.Percent(fault.OutcomeCorrupted), "corrupt%")
	b.ReportMetric(last.Percent(fault.OutcomeNoImpact), "noimpact%")
	b.ReportMetric(last.Percent(fault.OutcomeHostCrash), "hostcrash%")
}

// BenchmarkFigure7Bandwidth reproduces Figure 7's asymptote and the
// fragmentation dip: bidirectional streaming at 256 KB (asymptotic) for
// both variants.
func BenchmarkFigure7Bandwidth(b *testing.B) {
	modes := []gm.Mode{gm.ModeGM, gm.ModeFTGM}
	var gmRate, ftRate float64
	for i := 0; i < b.N; i++ {
		// The two variants are independent simulations: measure them
		// concurrently, one cluster per worker.
		rates, err := parallel.Map(len(modes), 0, func(m int) (float64, error) {
			p, err := experiments.NewPair(experiments.PairOptions{Mode: modes[m]})
			if err != nil {
				return 0, err
			}
			return experiments.BidirectionalRate(p, 256*1024, 40), nil
		})
		if err != nil {
			b.Fatal(err)
		}
		gmRate, ftRate = rates[0], rates[1]
	}
	b.ReportMetric(gmRate, "GM-MB/s")
	b.ReportMetric(ftRate, "FTGM-MB/s")
}

// BenchmarkFigure8Latency reproduces Figure 8's short-message point: the
// half round trip at 16 bytes for both variants.
func BenchmarkFigure8Latency(b *testing.B) {
	modes := []gm.Mode{gm.ModeGM, gm.ModeFTGM}
	var gmLat, ftLat float64
	for i := 0; i < b.N; i++ {
		lats, err := parallel.Map(len(modes), 0, func(m int) (float64, error) {
			p, err := experiments.NewPair(experiments.PairOptions{Mode: modes[m]})
			if err != nil {
				return 0, err
			}
			return experiments.HalfRoundTrip(p, 16, 50).Micros(), nil
		})
		if err != nil {
			b.Fatal(err)
		}
		gmLat, ftLat = lats[0], lats[1]
	}
	b.ReportMetric(gmLat, "GM-us")
	b.ReportMetric(ftLat, "FTGM-us")
	b.ReportMetric(ftLat-gmLat, "overhead-us")
}

// BenchmarkTable2Metrics reproduces the Table 2 summary.
func BenchmarkTable2Metrics(b *testing.B) {
	var res experiments.Table2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GM.HostSendUs, "GM-hostsend-us")
	b.ReportMetric(res.FTGM.HostSendUs, "FTGM-hostsend-us")
	b.ReportMetric(res.GM.HostRecvUs, "GM-hostrecv-us")
	b.ReportMetric(res.FTGM.HostRecvUs, "FTGM-hostrecv-us")
	b.ReportMetric(res.GM.LanaiPerMsgUs, "GM-lanai-us")
	b.ReportMetric(res.FTGM.LanaiPerMsgUs, "FTGM-lanai-us")
}

// BenchmarkTable3Recovery reproduces the recovery-time breakdown.
func BenchmarkTable3Recovery(b *testing.B) {
	var res *experiments.Table3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Table3(3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Detection.Mean().Micros(), "detect-us")
	b.ReportMetric(res.FTD.Mean().Micros(), "ftd-us")
	b.ReportMetric(res.PerProcess.Mean().Micros(), "perproc-us")
}

// BenchmarkFigure9Timeline reproduces the full-recovery timeline and
// reports the end-to-end time (the paper's "<2 sec" headline).
func BenchmarkFigure9Timeline(b *testing.B) {
	var totalMs float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(1)
		if err != nil {
			b.Fatal(err)
		}
		totalMs = res.Total.Mean().Millis()
	}
	b.ReportMetric(totalMs, "total-ms")
}

// BenchmarkRecoveryEffectiveness reproduces the §5.2 experiment: the
// campaign's hangs replayed against a live FTGM cluster.
func BenchmarkRecoveryEffectiveness(b *testing.B) {
	var res *experiments.EffectivenessResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Effectiveness(300, 3, 2003)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Detected), "detected")
	b.ReportMetric(float64(res.Recovered), "recovered")
	b.ReportMetric(float64(res.AuditFailed), "audit-violations")
}

// BenchmarkFigure4Scenario reproduces the duplicate-message crash window
// under both recovery schemes.
func BenchmarkFigure4Scenario(b *testing.B) {
	var naive, ftgm int
	for i := 0; i < b.N; i++ {
		r1, err := experiments.Figure4Scenario(gm.ModeGM)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := experiments.Figure4Scenario(gm.ModeFTGM)
		if err != nil {
			b.Fatal(err)
		}
		naive, ftgm = r1.Deliveries, r2.Deliveries
	}
	b.ReportMetric(float64(naive), "naive-deliveries")
	b.ReportMetric(float64(ftgm), "ftgm-deliveries")
}

// BenchmarkFigure5Scenario reproduces the lost-message crash window under
// both recovery schemes.
func BenchmarkFigure5Scenario(b *testing.B) {
	var naive, ftgm int
	for i := 0; i < b.N; i++ {
		r1, err := experiments.Figure5Scenario(gm.ModeGM)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := experiments.Figure5Scenario(gm.ModeFTGM)
		if err != nil {
			b.Fatal(err)
		}
		naive, ftgm = r1.Deliveries, r2.Deliveries
	}
	b.ReportMetric(float64(naive), "naive-deliveries")
	b.ReportMetric(float64(ftgm), "ftgm-deliveries")
}

// BenchmarkAblationDelayedACK measures the cost of the FTGM commit point.
func BenchmarkAblationDelayedACK(b *testing.B) {
	var res experiments.AblationDelayedACKResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationDelayedACK(4096, 40)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TurnaroundDelayedUs-res.TurnaroundImmediateUs, "turnaround-delta-us")
	b.ReportMetric(res.BandwidthDelayed, "delayed-MB/s")
	b.ReportMetric(res.BandwidthImmediate, "immediate-MB/s")
}

// BenchmarkAblationSeqStreams measures the rejected per-connection
// synchronization design.
func BenchmarkAblationSeqStreams(b *testing.B) {
	var res experiments.AblationSeqStreamsResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationSeqStreams()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.PerConnectionSendUs-res.PerPortSendUs, "sync-cost-us")
}

// BenchmarkAblationShadowCopy isolates the §4.1 backup's housekeeping cost.
func BenchmarkAblationShadowCopy(b *testing.B) {
	var res experiments.AblationShadowCopyResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationShadowCopy()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.WithCopySendUs-res.WithoutCopySendUs, "send-copy-us")
	b.ReportMetric(res.WithCopyRecvUs-res.WithoutCopyRecvUs, "recv-copy-us")
}

// BenchmarkRecoveryVsPorts measures the §5.2 port-count dependence: the
// per-process recovery time grows with the number of open ports.
func BenchmarkRecoveryVsPorts(b *testing.B) {
	var points []experiments.RecoveryVsPortsPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.RecoveryVsPorts([]int{1, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points[0].PerProcessUs, "perproc-1port-us")
	b.ReportMetric(points[1].PerProcessUs, "perproc-4ports-us")
	b.ReportMetric(points[2].PerProcessUs, "perproc-8ports-us")
}

// BenchmarkAblationWatchdogInterval sweeps the IT1 interval.
func BenchmarkAblationWatchdogInterval(b *testing.B) {
	var points []experiments.AblationWatchdogPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.AblationWatchdog([]int{400, 1000, 4000})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points[1].DetectionUs, "detect-at-1000us")
	b.ReportMetric(float64(points[0].FalseAlarms), "falsealarms-at-400us")
	b.ReportMetric(points[2].DetectionUs, "detect-at-4000us")
}

// BenchmarkAvailabilityMission runs the REE-style mission comparison:
// recurring hangs under no-recovery, naive restart, and FTGM.
func BenchmarkAvailabilityMission(b *testing.B) {
	var results []experiments.AvailabilityResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiments.AvailabilityComparison(experiments.AvailabilityConfig{
			Mission:        30 * gm.Second,
			FaultEvery:     8 * gm.Second,
			SendEvery:      2 * gm.Millisecond,
			NaiveDetection: 3 * gm.Second,
			TargetWindows:  true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*results[0].Availability, "none-avail%")
	b.ReportMetric(100*results[1].Availability, "naive-avail%")
	b.ReportMetric(100*results[2].Availability, "ftgm-avail%")
	b.ReportMetric(float64(results[1].Duplicates+results[1].Losses), "naive-violations")
	b.ReportMetric(float64(results[2].Duplicates+results[2].Losses), "ftgm-violations")
}

// BenchmarkCheckpointBaseline quantifies the rejected whole-state
// checkpointing design against FTGM's continuous backup.
func BenchmarkCheckpointBaseline(b *testing.B) {
	var points []experiments.CheckpointPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.CheckpointBaseline(
			[]gm.Duration{50 * gm.Millisecond, 10 * gm.Millisecond},
			experiments.DefaultCheckpointConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points[0].P99LatencyUs, "ftgm-p99-us")
	b.ReportMetric(points[2].P99LatencyUs, "ckpt10ms-p99-us")
	b.ReportMetric(100*points[2].PauseOverhead, "ckpt10ms-overhead%")
}

// BenchmarkTable1RecvSection runs the fault campaign against the receive
// path, the "other section of the code" the paper only conjectures about.
func BenchmarkTable1RecvSection(b *testing.B) {
	var last fault.CampaignResult
	for i := 0; i < b.N; i++ {
		c, err := fault.NewSectionCampaign(fault.SectionRecv, 2003)
		if err != nil {
			b.Fatal(err)
		}
		last = c.Run(1000)
	}
	b.ReportMetric(last.Percent(fault.OutcomeLocalHang), "hang%")
	b.ReportMetric(last.Percent(fault.OutcomeCorrupted), "corrupt%")
	b.ReportMetric(last.Percent(fault.OutcomeNoImpact), "noimpact%")
}
