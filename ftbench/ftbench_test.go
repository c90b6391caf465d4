package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/gm"
	"repro/internal/sim"
)

// The harness's per-message work — branding a send buffer, completing a
// send, auditing a delivery — must allocate nothing, so allocs_per_msg
// counts only the program under test.
func TestHarnessAllocsNothingPerMessage(t *testing.T) {
	eng := sim.NewEngine(1)
	ids := []gm.NodeID{1, 2}
	ref := refBody(7, 1024)
	g := newGen(eng, nil, 0, []int{1}, ids, 1, 0, 4, 1024, ref)
	g.small, g.large, g.largeEvery = 64, 1024, 4
	s := &sink{eng: eng, self: 1, ids: ids, ref: ref, expect: []uint64{1, 1},
		lats: make([]int64, 0, 1000)}
	var seq uint64
	allocs := testing.AllocsPerRun(500, func() {
		seq++
		sl := &g.slots[g.free[len(g.free)-1]]
		g.free = g.free[:len(g.free)-1]
		b := g.brand(sl, 0, seq, g.size(seq), eng.Now())
		s.check(b, ids[0])
		sl.cb(gm.SendOK) // frees the slot; nothing is due, so pump returns
	})
	if allocs != 0 {
		t.Fatalf("harness allocates %.1f times per message, want 0", allocs)
	}
	if s.delivered != 501 || s.dups+s.gaps+s.corrupt != 0 {
		t.Fatalf("auditor: delivered %d, dup %d gap %d corrupt %d", s.delivered, s.dups, s.gaps, s.corrupt)
	}
}

// The auditor must notice every way a delivery can go wrong.
func TestAuditorFlagsBadDeliveries(t *testing.T) {
	eng := sim.NewEngine(1)
	ids := []gm.NodeID{1, 2}
	ref := refBody(7, 256)
	g := newGen(eng, nil, 0, []int{1}, ids, 1, 0, 4, 256, ref)
	g.small = 100
	msg := func(seq uint64) []byte {
		return append([]byte(nil), g.brand(&g.slots[0], 0, seq, 100, 0)...)
	}
	s := &sink{eng: eng, self: 1, ids: ids, ref: ref, expect: []uint64{1, 1}}
	s.check(msg(1), 1)
	s.check(msg(1), 1) // duplicate
	s.check(msg(3), 1) // skips 2
	bad := msg(4)
	bad[50] ^= 1
	s.check(bad, 1)    // body damaged
	s.check(msg(4), 2) // wrong source
	if s.delivered != 2 || s.dups != 1 || s.gaps != 1 || s.corrupt != 2 {
		t.Fatalf("delivered %d dups %d gaps %d corrupt %d; want 2 1 1 2",
			s.delivered, s.dups, s.gaps, s.corrupt)
	}
}

// hostTimed are the metrics read off the host clock; everything else a run
// prints is simulated and must repeat exactly.
var hostTimed = map[string]bool{
	"msgs_per_s": true, "cpu_us_per_msg": true, "setup_s": true, "allocs_per_msg": true,
	"alloc_bytes_per_msg": true, "live_heap_mb": true,
	"gm.send_ns_p50": true, "gm.send_ns_p99": true, "gm.recycle_ns_p50": true,
	"gm.recycle_ns_p99": true, "gm.send_ns_growth": true, "gm.build_ms": true,
	"sim.ns_per_event": true, "mapper.boot_ms": true, "ckpt.replay_ms": true,
	"ckpt.restore_ms": true, "trace.msgs_per_s": true, "trace.overhead_frac": true,
}

var wantEndToEnd = []string{"msgs_per_s", "cpu_us_per_msg", "setup_s", "allocs_per_msg",
	"alloc_bytes_per_msg", "live_heap_mb", "sim_mb_per_s", "sim_lat_p50_us", "sim_lat_p99_us"}

var wantPerLayer = []string{
	"gm.send_ns_p50", "gm.send_ns_p99", "gm.recycle_ns_p50", "gm.recycle_ns_p99",
	"gm.send_ns_growth", "gm.token_waits_per_msg", "gm.build_ms",
	"sim.events_per_msg", "sim.ns_per_event", "sim.queue_max",
	"core.recoveries", "core.false_alarms", "core.reload_retries", "core.fatal_irqs", "core.sim_recovery_ms",
	"mcp.frags_per_msg", "mcp.acks_per_msg", "mcp.retransmit_ratio", "mcp.dup_drops", "mcp.ltimer_per_ms",
	"lanai.busy_us_per_msg", "lanai.dma_bytes_per_msg", "lanai.rx_drops",
	"host.cpu_send_us", "host.cpu_recv_us", "host.pci_busy_frac", "host.pci_bytes_per_msg",
	"fabric.pkts_per_msg", "fabric.switch_fwd_per_msg", "fabric.link_busy_frac", "fabric.drops",
	"mapper.boot_ms", "mapper.boot_events",
	"ckpt.frames", "ckpt.bytes_per_frame", "ckpt.skips", "ckpt.max_pause_us", "ckpt.replay_ms", "ckpt.restore_ms",
	"gossip.probes", "gossip.suspicions", "gossip.dead_declared",
	"trace.msgs_per_s", "trace.overhead_frac",
}

func init() {
	for _, l := range cpuLayers {
		wantPerLayer = append(wantPerLayer, l+".cpu_frac")
		hostTimed[l+".cpu_frac"] = true
	}
}

// smokeRun runs a shrunken workload untraced and traced and returns the
// printed text and the two JSON summaries.
func smokeRun(t *testing.T, w *workload) (text string, e2e, layers result) {
	t.Helper()
	for i, trace := range []bool{false, true} {
		rs, err := measure(w, 3, 0.01, trace)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		rs.report(&out, trace)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the JSON summary: %v", err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: output checks failed: %v", w.name, rs.problems)
		}
		text += out.String()
		if i == 0 {
			e2e = res
		} else {
			layers = res
		}
	}
	return text, e2e, layers
}

// Every workload, shrunk, prints every metric with its unit, passes its
// output checks, and repeats its simulated metrics exactly.
func TestSmokeAllWorkloads(t *testing.T) {
	sizes := map[string]int{"pair_stream": 2000, "clos_alltoall": 64, "fault_recovery": 3000}
	for _, full := range workloads {
		w := *full
		w.msgsPerPort = sizes[w.name]
		t.Run(w.name, func(t *testing.T) {
			text, e2e, layers := smokeRun(t, &w)
			for _, want := range []struct {
				res   result
				names []string
			}{{e2e, wantEndToEnd}, {layers, wantPerLayer}} {
				if len(want.res.Metrics) != len(want.names) {
					t.Errorf("%d metrics printed, want %d", len(want.res.Metrics), len(want.names))
				}
				for _, n := range want.names {
					m, ok := want.res.Metrics[n]
					if !ok || m.Unit == "" {
						t.Errorf("metric %s missing or without unit", n)
					}
					if !strings.Contains(text, n) {
						t.Errorf("metric %s not in the printed table", n)
					}
				}
			}
			for _, n := range []string{"fail_ratio", "is better"} {
				if !strings.Contains(text, n) {
					t.Errorf("table lacks %q", n)
				}
			}
			if w.name == "fault_recovery" && !strings.Contains(text, "sim_recovery_ms") {
				t.Error("fault_recovery does not print sim_recovery_ms")
			}
			_, e2e2, layers2 := smokeRun(t, &w)
			for _, pair := range [][2]result{{e2e, e2e2}, {layers, layers2}} {
				for n, m := range pair[0].Metrics {
					if !hostTimed[n] && pair[1].Metrics[n] != m {
						t.Errorf("%s: %v then %v; simulated metrics must repeat exactly", n, m, pair[1].Metrics[n])
					}
				}
			}
		})
	}
}
