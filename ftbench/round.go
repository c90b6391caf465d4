package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"syscall"

	"repro/gm"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// trial is one built cluster with its traffic attached: what a workload's
// set-up returns and the steady phase runs.
type trial struct {
	cl     *gm.Cluster
	nodes  []*gm.Node
	sws    []*gm.Switch
	gens   []*gen
	sinks  []*sink
	chunk  sim.Duration // simulated time per Cluster.Run call
	limit  sim.Duration // the steady phase fails if it needs longer
	faults *faultPlan   // fault_recovery only

	buildNs, bootNs int64 // spans: NewCluster..Connect, Boot/BootStatic
	bootEvents      uint64
}

// roundResult is everything one set-up + steady phase measured.
type roundResult struct {
	setupS, buildMs, bootMs float64
	bootEvents              uint64
	nodes                   int
	steadyS, cpuS           float64
	allocs, allocBytes      uint64
	liveHeapMB              float64

	attempted, failed uint64
	problems          []string

	delivered, bytes uint64
	simDur           sim.Duration
	// simulated latency: sample count, median, p99 and maximum (ns)
	latN                   int
	latP50, latP99, latMax int64
	waits                  uint64
	layer                  counters
	queueMax               int
	hostSendUs             float64
	hostRecvUs             float64
	recoveries             []sim.Duration
	ckpt                   ckptStats
	fingerprint            uint64

	// traced rounds only
	runNs, childNs          int64
	send, recycle           hist
	cpu                     map[string]int64 // profiled CPU ns by layer
	growthFirst, growthLast float64
}

type ckptStats struct {
	frames, bytes, skips uint64
	maxPause             sim.Duration
	replayNs, restoreNs  int64
}

func (r *roundResult) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runRound builds one cluster with w's set-up, runs its steady phase to
// completion and audits the outcome. timed wraps the benchmark's calls into
// gm with host-time spans.
func runRound(w *workload, seed uint64, timed bool) (*roundResult, error) {
	r := &roundResult{}
	// Every set-up starts as in a fresh process: the previous round's cluster
	// collected and its memory handed back to the OS.
	debug.FreeOSMemory()
	live0 := fabric.PoolStats().Live

	t0 := nanotime()
	t, err := w.setup(seed, w.msgsPerPort)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	r.setupS = float64(nanotime()-t0) / 1e9
	r.buildMs, r.bootMs = float64(t.buildNs)/1e6, float64(t.bootNs)/1e6
	r.bootEvents = t.bootEvents
	r.nodes = len(t.nodes)
	if timed {
		for _, g := range t.gens {
			g.tr = &genTrace{}
		}
		for _, s := range t.sinks {
			s.recycle = &hist{}
		}
	}

	runtime.GC()
	var prof bytes.Buffer
	if timed {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	c0 := snapshot(t.cl, t.nodes, t.sws)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	h0 := nanotime()

	eng := t.cl.Engine()
	simStart := t.cl.Now()
	for _, g := range t.gens {
		g.begin()
	}
	if t.faults != nil {
		t.faults.arm(t, simStart)
	}
	deadline := simStart + t.limit
	for !t.complete() && t.cl.Now() < deadline {
		rs := nanotime()
		t.cl.Run(t.chunk)
		r.runNs += nanotime() - rs
		r.queueMax = max(r.queueMax, eng.PendingAll())
	}

	r.steadyS = float64(nanotime()-h0) / 1e9
	r.cpuS = cpuSeconds() - cpu0
	if timed {
		pprof.StopCPUProfile()
		r.cpu = make(map[string]int64, len(cpuLayers))
		if err := profileSelfTime(prof.Bytes(), r.cpu); err != nil {
			r.fail("%v", err)
		}
	}
	runtime.ReadMemStats(&ms1)
	r.allocs = ms1.Mallocs - ms0.Mallocs
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	r.liveHeapMB = float64(ms1.HeapAlloc) / (1 << 20)
	r.layer = snapshot(t.cl, t.nodes, t.sws).sub(c0)
	r.hostSendUs, r.hostRecvUs = modelledHostCPU(t.nodes)

	t.audit(r)
	var last sim.Time
	var lats []int64
	for _, s := range t.sinks {
		r.delivered += s.delivered
		r.bytes += s.bytes
		last = max(last, s.last)
		lats = append(lats, s.lats...)
	}
	r.simDur = sim.Duration(last - simStart)
	if r.latN = len(lats); r.latN > 0 {
		r.latP50, r.latP99 = exactQuantile(lats, 0.5), exactQuantile(lats, 0.99)
		r.latMax = lats[r.latN-1]
	}
	if t.faults != nil {
		t.faults.collect(r)
	}
	if timed {
		for _, g := range t.gens {
			r.send.merge(&g.tr.send)
			r.growthFirst += float64(g.tr.firstNs) / float64(max(g.tr.firstN, 1))
			r.growthLast += float64(g.tr.lastNs) / float64(max(g.tr.lastN, 1))
		}
		for _, s := range t.sinks {
			r.recycle.merge(s.recycle)
		}
		r.childNs = r.ckpt.replayNs + r.ckpt.restoreNs + r.send.sum + r.recycle.sum
	}

	t.cl.Shutdown(sim.Millisecond)
	if live := fabric.PoolStats().Live; live != live0 {
		r.fail("packet pool: %d packets live after Shutdown, %d before set-up", live, live0)
	}
	r.fingerprint = r.print()
	return r, nil
}

// complete reports whether every generator has sent its messages, every
// send has completed and every message has been delivered.
func (t *trial) complete() bool {
	var sent, got uint64
	for _, g := range t.gens {
		if g.sent < g.total || g.done+g.refused != uint64(g.sent) {
			return false
		}
		sent += uint64(g.sent) - g.refused
	}
	for _, s := range t.sinks {
		got += s.delivered
	}
	return got >= sent && (t.faults == nil || t.faults.settled())
}

// audit counts every way the steady phase fell short of exactly-once,
// in-order, undamaged delivery of every message the generators sent.
func (t *trial) audit(r *roundResult) {
	for _, g := range t.gens {
		r.attempted += uint64(g.total)
		r.waits += g.waits
		if g.sent < g.total {
			r.failed += uint64(g.total - g.sent)
			r.fail("node %d: %d of %d messages never sent", g.self, g.total-g.sent, g.total)
		}
		if g.refused > 0 {
			r.failed += g.refused
			r.fail("node %d: %d sends refused", g.self, g.refused)
		}
		if g.errs > 0 {
			r.failed += g.errs
			r.fail("node %d: %d terminal send errors", g.self, g.errs)
		}
		if pend := uint64(g.sent) - g.refused - g.done; pend > 0 {
			r.failed += pend
			r.fail("node %d: %d sends never completed", g.self, pend)
		}
		for d, dst := range g.dests {
			got := t.sinks[dst].expect[g.self] - 1
			if sent := g.seqs[d]; got < sent {
				r.failed += sent - got
				r.fail("stream %d->%d: %d of %d messages lost", g.self, dst, sent-got, sent)
			}
		}
	}
	for _, s := range t.sinks {
		bad := s.dups + s.gaps + s.corrupt
		if bad > 0 {
			r.failed += bad
			r.fail("node %d: %d duplicate, %d out-of-order, %d corrupt deliveries",
				s.self, s.dups, s.gaps, s.corrupt)
		}
		if s.recycleErrs > 0 {
			r.fail("node %d: %d receive buffers could not be recycled", s.self, s.recycleErrs)
		}
	}
}

// print hashes the simulated outcome: for a fixed seed it must not change
// from round to round or run to run.
func (r *roundResult) print() uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, r.simDur, r.delivered, r.bytes, r.attempted, r.failed, r.waits,
		r.layer, r.bootEvents, r.recoveries, r.ckpt.frames, r.ckpt.bytes, r.ckpt.skips,
		r.ckpt.maxPause, r.latN, r.latP50, r.latP99, r.latMax, r.queueMax)
	return h.Sum64()
}
