// Command ftbench is the repository's end-to-end benchmark of the FTGM
// simulator. It builds its own clusters and traffic generators on the public
// gm API, repeats one fixed-length workload for a given number of host
// seconds (a fresh cluster per round, set-up timed apart from the steady
// phase), audits every message of every round, and prints each metric by
// name with its unit and direction. The last line of standard output is a
// JSON summary. See README.md for the workloads and for how to read a
// traced run.
//
//	ftbench --workload pair_stream --seed 1 --seconds 40 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// minRounds is the fewest measured rounds a run reports a median over,
// however short --seconds is.
const minRounds = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload: pair_stream, clos_alltoall or fault_recovery")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "host seconds to keep measuring rounds")
		trace   = flag.Int("trace", 0, "1: alternate traced and untraced rounds and report per-layer metrics")
	)
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || *seed == 0 {
		fmt.Fprintf(os.Stderr, "ftbench: need --workload (pair_stream|clos_alltoall|fault_recovery), --seed > 0, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	res, err := measure(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
		os.Exit(1)
	}
	if err := checkStoredFingerprint(w.name, *seed, res.warm.fingerprint); err != nil {
		res.problems = append(res.problems, err.Error())
	}
	res.report(os.Stdout, *trace == 1)
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

// runSet is the outcome of one invocation: every round it ran.
type runSet struct {
	w        *workload
	seed     uint64
	plain    []*roundResult // untraced, measured
	traced   []*roundResult
	warm     *roundResult // its fingerprint is the one every round must match
	problems []string
}

// measure runs an unmeasured warm-up round, then measured rounds until
// seconds of host time have passed (and at least minRounds of each kind).
// With trace, rounds alternate between untraced and traced.
func measure(w *workload, seed uint64, seconds float64, trace bool) (*runSet, error) {
	rs := &runSet{w: w, seed: seed}
	start := nanotime()
	warm, err := runRound(w, seed, false)
	if err != nil {
		return nil, err
	}
	rs.warm = warm
	rs.note(warm, "warm-up")
	for i := 0; ; i++ {
		elapsed := float64(nanotime()-start) / 1e9
		enough := len(rs.plain) >= minRounds && (!trace || len(rs.traced) >= minRounds)
		if elapsed >= seconds && enough {
			break
		}
		timed := trace && i%2 == 1
		r, err := runRound(w, seed, timed)
		if err != nil {
			return nil, err
		}
		if timed {
			rs.traced = append(rs.traced, r)
		} else {
			rs.plain = append(rs.plain, r)
		}
		rs.note(r, fmt.Sprintf("round %d", i+1))
	}
	return rs, nil
}

// note checks one round's audit and its fingerprint against the warm-up's.
func (rs *runSet) note(r *roundResult, label string) {
	for _, p := range r.problems {
		rs.problems = append(rs.problems, label+": "+p)
	}
	if r.fingerprint != rs.warm.fingerprint {
		rs.problems = append(rs.problems, fmt.Sprintf(
			"%s: simulated results differ from the warm-up round (fingerprint %016x vs %016x)",
			label, r.fingerprint, rs.warm.fingerprint))
	}
}

// checkStoredFingerprint compares the run's fingerprint with the one an
// earlier run of the same binary, workload and seed stored under
// .bench_build/ in the working directory, storing it on the first run.
func checkStoredFingerprint(workload string, seed uint64, fp uint64) error {
	exe, err := os.Executable()
	if err != nil {
		return nil
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return nil
	}
	dir := filepath.Join(".bench_build", "ftbench", "fingerprints")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil // nowhere to keep it: the in-run check still holds
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%x", workload, seed, h.Sum(nil)[:8]))
	want := fmt.Sprintf("%016x\n", fp)
	old, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		_ = os.WriteFile(path, []byte(want), 0o644) // best effort
		return nil
	case err != nil:
		return nil
	case string(old) != want:
		return fmt.Errorf("simulated results differ from an earlier run of this binary with seed %d (fingerprint %s vs %s)",
			seed, strings.TrimSpace(want), strings.TrimSpace(string(old)))
	}
	return nil
}

type metric struct {
	name, unit, better string
	value              float64
	moves              string // per-layer: the end-to-end metric and workload it should move
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rs *runSet) report(out io.Writer, trace bool) {
	all := append(append([]*roundResult{rs.warm}, rs.plain...), rs.traced...)
	var attempted, failed uint64
	for _, r := range all {
		attempted += r.attempted
		failed += r.failed
	}
	r0 := rs.warm
	fmt.Fprintf(out, "ftbench workload=%s seed=%d msgs_per_port=%d rounds=%d+%d traced num_cpu=%d gomaxprocs=%d fingerprint=%016x\n",
		rs.w.name, rs.seed, rs.w.msgsPerPort, len(rs.plain), len(rs.traced), runtime.NumCPU(),
		runtime.GOMAXPROCS(0), r0.fingerprint)
	fmt.Fprintf(out, "  delivered=%d msgs/round, %d latency samples, sim steady phase %.3f ms\n",
		r0.delivered, r0.latN, float64(r0.simDur)/1e6)

	e2e := endToEnd(rs.plain)
	fmt.Fprintln(out, "end-to-end (medians over untraced rounds):")
	for _, m := range e2e {
		fmt.Fprintf(out, "  %-22s %14.6g %-6s %s is better\n", m.name, m.value, m.unit, m.better)
	}
	fmt.Fprintf(out, "  %-22s %14.6g %-6s %s is better\n", "fail_ratio",
		float64(failed)/float64(max(attempted, 1)), "ratio", "lower")
	if len(r0.recoveries) > 0 {
		fmt.Fprintf(out, "  %-22s %14.6g %-6s %s is better (median of %d faults)\n", "sim_recovery_ms",
			recoveryMs(r0), "ms", "lower", len(r0.recoveries))
	}
	printed := e2e
	if trace {
		printed = perLayer(rs)
		fmt.Fprintln(out, "per-layer (traced rounds; counts are per steady phase):")
		for _, m := range printed {
			fmt.Fprintf(out, "  %-24s %14.6g %-6s -> %s\n", m.name, m.value, m.unit, m.moves)
		}
	}
	for _, p := range rs.problems {
		fmt.Fprintf(os.Stderr, "ftbench: CHECK FAILED: %s\n", p)
	}
	res := result{Correct: len(rs.problems) == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]jsonMetric, len(printed))}
	for _, m := range printed {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // only a round that delivered nothing gets here, and it failed its checks
		}
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	b, _ := json.Marshal(res) // plain struct of numbers: cannot fail
	fmt.Fprintln(out, string(b))
}

func recoveryMs(r *roundResult) float64 {
	if len(r.recoveries) == 0 {
		return 0
	}
	return float64(r.recoveries[len(r.recoveries)/2]) / 1e6
}

// perRound takes the median of f over rounds.
func perRound(rounds []*roundResult, f func(r *roundResult) float64) float64 {
	v := make([]float64, len(rounds))
	for i, r := range rounds {
		v[i] = f(r)
	}
	return median(v)
}

func msgsPerS(r *roundResult) float64 { return float64(r.delivered) / r.steadyS }

// endToEnd computes the metrics a user of the simulator sees. Host-time
// metrics are medians over rounds; sim_* metrics repeat exactly.
func endToEnd(rounds []*roundResult) []metric {
	r0 := rounds[0]
	perMsg := func(f func(r *roundResult) float64) float64 {
		return perRound(rounds, func(r *roundResult) float64 { return f(r) / float64(r.delivered) })
	}
	return []metric{
		{name: "msgs_per_s", unit: "1/s", better: "higher", value: perRound(rounds, msgsPerS)},
		{name: "cpu_us_per_msg", unit: "us", better: "lower", value: perMsg(func(r *roundResult) float64 { return r.cpuS * 1e6 })},
		{name: "setup_s", unit: "s", better: "lower", value: perRound(rounds, func(r *roundResult) float64 { return r.setupS })},
		{name: "allocs_per_msg", unit: "count", better: "lower", value: perMsg(func(r *roundResult) float64 { return float64(r.allocs) })},
		{name: "alloc_bytes_per_msg", unit: "B", better: "lower", value: perMsg(func(r *roundResult) float64 { return float64(r.allocBytes) })},
		{name: "live_heap_mb", unit: "MB", better: "lower", value: perRound(rounds, func(r *roundResult) float64 { return r.liveHeapMB })},
		{name: "sim_mb_per_s", unit: "MB/s", better: "higher", value: float64(r0.bytes) / 1e6 / (float64(r0.simDur) / 1e9)},
		{name: "sim_lat_p50_us", unit: "us", better: "lower", value: float64(r0.latP50) / 1e3},
		{name: "sim_lat_p99_us", unit: "us", better: "lower", value: float64(r0.latP99) / 1e3},
	}
}

// perLayer computes the traced run's per-layer metrics. Host times are
// medians over the traced rounds; counts are per steady phase, identical
// in every round.
func perLayer(rs *runSet) []metric {
	tr, r := rs.traced, rs.warm
	l := &r.layer
	msgs := float64(r.delivered)
	simMs := float64(r.simDur) / 1e6
	nodes := float64(r.nodes)
	per := func(c int) float64 { return float64(l[c]) / msgs }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	untraced := perRound(rs.plain, msgsPerS)
	traced := perRound(tr, msgsPerS)
	const (
		pair  = "pair_stream"
		clos  = "clos_alltoall"
		fault = "fault_recovery"
	)
	ms := []metric{
		{"gm.send_ns_p50", "ns", "lower", perRound(tr, func(r *roundResult) float64 { return r.send.quantile(0.5) }), "msgs_per_s, cpu_us_per_msg @ " + pair},
		{"gm.send_ns_p99", "ns", "lower", perRound(tr, func(r *roundResult) float64 { return r.send.quantile(0.99) }), "msgs_per_s @ " + pair},
		{"gm.recycle_ns_p50", "ns", "lower", perRound(tr, func(r *roundResult) float64 { return r.recycle.quantile(0.5) }), "msgs_per_s @ " + pair},
		{"gm.recycle_ns_p99", "ns", "lower", perRound(tr, func(r *roundResult) float64 { return r.recycle.quantile(0.99) }), "msgs_per_s @ " + pair},
		{"gm.send_ns_growth", "ratio", "lower", perRound(tr, func(r *roundResult) float64 { return ratio(r.growthLast, r.growthFirst) }), "msgs_per_s, live_heap_mb @ " + pair},
		{"gm.token_waits_per_msg", "count", "lower", float64(r.waits) / msgs, "sim_mb_per_s @ " + pair},
		{"gm.build_ms", "ms", "lower", perRound(rs.plain, func(r *roundResult) float64 { return r.buildMs }), "setup_s @ " + clos},
		{"sim.events_per_msg", "count", "lower", per(cEvents), "msgs_per_s, cpu_us_per_msg @ " + clos},
		{"sim.ns_per_event", "ns", "lower", perRound(tr, func(r *roundResult) float64 { return ratio(float64(r.runNs-r.childNs), float64(r.layer[cEvents])) }), "msgs_per_s, cpu_us_per_msg @ " + clos},
		{"sim.queue_max", "count", "lower", float64(r.queueMax), "msgs_per_s @ " + clos},
		{"core.recoveries", "count", "lower", float64(l[cRecoveries]), "sim_recovery_ms @ " + fault},
		{"core.false_alarms", "count", "lower", float64(l[cFalseAlarms]), "sim_recovery_ms @ " + fault},
		{"core.reload_retries", "count", "lower", float64(l[cReloadRetries]), "sim_recovery_ms @ " + fault},
		{"core.fatal_irqs", "count", "lower", float64(l[cFatalIRQs]), "sim_recovery_ms @ " + fault},
		{"core.sim_recovery_ms", "ms", "lower", recoveryMs(r), "sim_recovery_ms @ " + fault},
		{"mcp.frags_per_msg", "count", "lower", per(cFrags), "msgs_per_s @ " + clos},
		{"mcp.acks_per_msg", "count", "lower", per(cAcks), "msgs_per_s @ " + clos},
		{"mcp.retransmit_ratio", "ratio", "lower", ratio(float64(l[cRetx]), float64(l[cMsgsSent])), "sim_recovery_ms @ " + fault},
		{"mcp.dup_drops", "count", "lower", float64(l[cDupDrops]), "sim_recovery_ms @ " + fault},
		{"mcp.ltimer_per_ms", "1/ms", "lower", ratio(float64(l[cLTimer]), simMs), "msgs_per_s @ " + clos},
		{"lanai.busy_us_per_msg", "us", "lower", per(cExecBusy) / 1e3, "sim_lat_p50_us @ " + clos + "; msgs_per_s @ " + pair},
		{"lanai.dma_bytes_per_msg", "B", "lower", per(cDMABytes), "msgs_per_s @ " + pair},
		{"lanai.rx_drops", "count", "lower", float64(l[cRxDrops]), "sim_lat_p99_us @ " + clos},
		{"host.cpu_send_us", "us", "lower", r.hostSendUs, "sim_mb_per_s, sim_lat_p50_us @ " + pair},
		{"host.cpu_recv_us", "us", "lower", r.hostRecvUs, "sim_mb_per_s, sim_lat_p50_us @ " + pair},
		{"host.pci_busy_frac", "ratio", "lower", ratio(float64(l[cPCIBusy])/1e6, nodes*simMs), "sim_mb_per_s @ " + pair},
		{"host.pci_bytes_per_msg", "B", "lower", per(cPCIBytes), "sim_mb_per_s @ " + pair},
		{"fabric.pkts_per_msg", "count", "lower", per(cLinkPkts), "sim_mb_per_s @ " + pair},
		{"fabric.switch_fwd_per_msg", "count", "lower", per(cSwitchFwd), "sim_lat_p99_us @ " + clos},
		{"fabric.link_busy_frac", "ratio", "lower", ratio(float64(l[cLinkBusy])/1e6, 2*nodes*simMs), "sim_mb_per_s @ " + pair + "; sim_lat_p99_us @ " + clos},
		{"fabric.drops", "count", "lower", float64(l[cLinkDrops] + l[cSwitchDrops]), "sim_lat_p99_us @ " + clos},
		{"mapper.boot_ms", "ms", "lower", perRound(rs.plain, func(r *roundResult) float64 { return r.bootMs }), "setup_s @ " + fault},
		{"mapper.boot_events", "count", "lower", float64(r.bootEvents), "setup_s @ " + fault},
		{"ckpt.frames", "count", "lower", float64(r.ckpt.frames), "msgs_per_s @ " + fault},
		{"ckpt.bytes_per_frame", "B", "lower", ratio(float64(r.ckpt.bytes), float64(r.ckpt.frames)), "msgs_per_s @ " + fault},
		{"ckpt.skips", "count", "lower", float64(r.ckpt.skips), "sim_recovery_ms @ " + fault},
		{"ckpt.max_pause_us", "us", "lower", float64(r.ckpt.maxPause) / 1e3, "sim_recovery_ms @ " + fault},
		{"ckpt.replay_ms", "ms", "lower", perRound(rs.plain, func(r *roundResult) float64 { return float64(r.ckpt.replayNs) / 1e6 }), "msgs_per_s @ " + fault},
		{"ckpt.restore_ms", "ms", "lower", perRound(rs.plain, func(r *roundResult) float64 { return float64(r.ckpt.restoreNs) / 1e6 }), "msgs_per_s @ " + fault},
		{"gossip.probes", "count", "lower", float64(l[cProbes]), "sim_recovery_ms @ " + fault},
		{"gossip.suspicions", "count", "lower", float64(l[cSuspicions]), "sim_recovery_ms @ " + fault},
		{"gossip.dead_declared", "count", "lower", float64(l[cDeadDeclared]), "sim_recovery_ms @ " + fault},
		{"trace.msgs_per_s", "1/s", "higher", traced, "msgs_per_s of the traced rounds"},
		{"trace.overhead_frac", "ratio", "lower", 1 - ratio(traced, untraced), "share of untraced msgs_per_s lost to tracing"},
	}
	// The CPU profile splits Cluster.Run by package: self time summed over
	// the traced rounds' steady phases.
	cpu := map[string]int64{}
	var total int64
	for _, r := range tr {
		for l, ns := range r.cpu {
			cpu[l] += ns
			total += ns
		}
	}
	for _, l := range cpuLayers {
		ms = append(ms, metric{l + ".cpu_frac", "ratio", "lower", ratio(float64(cpu[l]), float64(total)),
			"share of profiled steady-phase CPU; moves msgs_per_s, cpu_us_per_msg"})
	}
	return ms
}
