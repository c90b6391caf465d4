package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements within-trial parallelism: an Engine can be split into
// per-component *domains* — each with its own event queue, clock, sequence
// counter and RNG — synchronized with link propagation delays as lookahead.
// Two mechanisms bound how far a domain may run between barriers:
//
//  1. Per-edge lookahead. Boundaries register directed edges
//     (ObserveEdgeLookahead), and each window computes every domain's
//     earliest-affect time: the minimum over chains of queued foreign
//     events of (event time + accumulated edge latency) — the classic
//     lower-bound-on-timestamp fixpoint. A leaf domain three switch hops
//     from the nearest busy sender runs three hops of latency past the
//     global minimum instead of being clipped to it.
//  2. Sole-due run-ahead. When exactly one domain has work, it runs to the
//     earliest foreign head under a self-containment rule (stop at the
//     first cross-domain transfer), collapsing drain tails into one
//     barrier per interaction.
//
// The design keys on one observation: every component in this codebase takes
// its *Engine at construction and schedules exclusively through that pointer.
// A domain therefore IS an Engine — no goroutine-local state, no domain
// handles threaded through APIs. The root engine (domain 0) remains the
// control domain: experiment harnesses, chaos schedulers, the cluster's
// mapper/netwatch plumbing all schedule there, and any window in which a
// control event is due runs *serialized* in global (time, domain, seq) order,
// so control code may freely touch every domain. Windows with no due control
// event run the domains concurrently.
//
// Determinism contract (bit-for-bit, invariant in shard count):
//   - Within a domain, events fire in (when, seq) order — the same strict
//     total order the serial engine uses; seq is domain-local.
//   - Cross-domain transfers move only at window barriers, in domain-index
//     order, FIFO within each boundary; the receiver assigns its own local
//     seqs at that point. Transfer order is thus a pure function of the
//     window schedule, which depends only on queue contents — never on how
//     many OS threads executed a window.
//   - Window bounds and control promotion times are pure functions of queue
//     contents and the registered edge graph, so they too are
//     executor-count invariant.
//   - Trace lines are buffered per domain and merged by (time, domain
//     index, emission order) — lines are held back until the global clock
//     floor passes them, so per-domain window skew never reorders a line.
//
// SetShards(1) keeps the exact same windowed schedule but executes every
// window on the coordinator goroutine, domain by domain in index order —
// which is precisely what the concurrent execution is equivalent to.

// Boundary is a cross-domain edge (e.g. one direction of a fabric link) that
// accumulated transfers during a window. The coordinator flushes all dirty
// boundaries at each window barrier, in domain-index order of the producing
// engine, FIFO within the boundary.
type Boundary interface {
	// FlushBoundary moves the boundary's accumulated transfers into the
	// receiving domain (scheduling receiver-side events as needed). Runs on
	// the coordinator goroutine between windows.
	FlushBoundary()
}

// traceLine is one buffered trace emission awaiting the barrier merge.
type traceLine struct {
	at   Time
	comp string
	msg  string
}

// edge is one directed in-edge of the lookahead graph: transfers from
// domain `from` arrive after at least `lat`.
type edge struct {
	from int
	lat  Duration
}

// coord synchronizes a root (control) engine and its domains.
type coord struct {
	root    *Engine
	engines []*Engine // engines[0] == root
	shards  int       // requested parallel executors; <=1 means serial sweep

	// lookahead is the minimum cross-domain latency over every observation
	// (edges and legacy endpoint-less registrations): the nominal window
	// span and the serialized-window width.
	lookahead Duration
	// legacy is the minimum over endpoint-less ObserveLookahead calls; when
	// nonzero, an unattributed boundary with that latency may connect any
	// two domains, so it clamps every per-edge bound.
	legacy Duration
	// inEdges[i] lists domain i's in-edges, deduplicated by source with the
	// minimum latency; edgeIdx maps (from<<32|to) to the slice position.
	inEdges [][]edge
	edgeIdx map[int64]int
	edges   int

	sink    TraceFunc // installed trace sink (domain mode buffers + merges)
	running bool      // inside coord.run; Control() defers, Tracef buffers
	stopReq atomic.Bool

	// heads caches every domain's next live event time for the window being
	// planned — one contiguous scan instead of re-chasing queue pointers in
	// each of the per-window decision passes.
	heads []Time
	// minIdx / secondMin describe the heads just collected: the index of
	// the earliest head and the earliest head among the OTHER domains
	// (Forever when no other domain has events). When minIdx is the only
	// domain due in a window, it may safely run ahead toward secondMin.
	minIdx    int
	secondMin Time
	// eat holds each domain's per-window earliest-affect time: the
	// conservative bound below which no foreign event chain can land.
	eat []Time

	// dirtyDoms lists domains that noted a dirty boundary this window, so
	// the barrier touches only producers with pending transfers instead of
	// sweeping every domain. Appended under dirtyMu from domain executors,
	// sorted (for deterministic flush order) and drained by the
	// coordinator.
	dirtyMu   sync.Mutex
	dirtyDoms []int
	// anyCtrl notes that some domain deferred control closures this window,
	// so the barrier can skip the promotion pass entirely on quiet windows.
	anyCtrl atomic.Bool

	// arrivalClasses allocates AtArrival ordering classes (sim.go): one per
	// cross-domain arrival source, in construction order.
	arrivalClasses uint32

	// parThreshold is the number of domains with due work below which a
	// window executes inline on the coordinator: dispatching to the worker
	// pool costs ~a microsecond of channel and barrier traffic, which only
	// pays for itself when several domains have events to fire.
	// sparseStreak counts consecutive inline windows; waking a cold pool is
	// charged against it, so alternating sparse/dense phases do not pay a
	// wakeup per window.
	parThreshold int
	sparseStreak int
}

// defaultParallelThreshold is the dispatch threshold when
// SetParallelThreshold was never called.
const defaultParallelThreshold = 3

func (e *Engine) ensureCoord() *coord {
	if e.co == nil {
		e.co = &coord{root: e, engines: []*Engine{e}, parThreshold: defaultParallelThreshold}
	} else if e.co.root != e {
		panic("sim: domain engines cannot own shards or domains")
	}
	return e.co
}

// NewDomain carves a new event domain out of the engine: an independent
// Engine with its own queue, clock, sequence counter and a deterministically
// forked RNG. The receiver becomes (or already is) the control domain; the
// returned engine should be handed to exactly the components that make up
// the domain (a node and its NIC, or one switch). Must be called before the
// first Run.
func (e *Engine) NewDomain(name string) *Engine {
	c := e.ensureCoord()
	if c.running {
		panic("sim: NewDomain during run")
	}
	d := &Engine{
		now:    e.now,
		rng:    e.rng.Fork(),
		co:     c,
		domIdx: len(c.engines),
		dname:  name,
	}
	c.engines = append(c.engines, d)
	return d
}

// SetShards sets how many OS threads execute concurrent windows: n parallel
// executors (the coordinator plus n-1 pooled workers). SetShards(1) runs
// every window on the coordinator alone — today's exact serial path — and is
// the default. The schedule, results and traces are bit-for-bit identical
// for every n >= 1; only wall-clock time changes.
func (e *Engine) SetShards(n int) {
	c := e.ensureCoord()
	if c.running {
		panic("sim: SetShards during run")
	}
	if n < 1 {
		n = 1
	}
	c.shards = n
}

// Shards reports the configured executor count (1 when unset or legacy).
func (e *Engine) Shards() int {
	if e.co == nil || e.co.shards < 1 {
		return 1
	}
	return e.co.shards
}

// SetParallelThreshold sets how many domains must have due work in a window
// before it is dispatched to the worker pool rather than swept inline on
// the coordinator. Purely a performance knob — the schedule is identical
// for every value. The default is 3.
func (e *Engine) SetParallelThreshold(n int) {
	c := e.ensureCoord()
	if c.running {
		panic("sim: SetParallelThreshold during run")
	}
	if n < 1 {
		n = 1
	}
	c.parThreshold = n
}

// ParallelThreshold reports the configured dispatch threshold.
func (e *Engine) ParallelThreshold() int {
	if e.co == nil || e.co.parThreshold < 1 {
		return defaultParallelThreshold
	}
	return e.co.parThreshold
}

// Domains reports how many domains exist including the control domain
// (1 for a legacy undomained engine).
func (e *Engine) Domains() int {
	if e.co == nil {
		return 1
	}
	return len(e.co.engines)
}

// DomainIndex reports this engine's domain number (0 = control domain; also
// 0 for a legacy undomained engine).
func (e *Engine) DomainIndex() int { return e.domIdx }

// DomainName reports the name given at NewDomain ("" for the control
// domain and legacy engines).
func (e *Engine) DomainName() string { return e.dname }

// domLabel names the engine's domain for diagnostics: the NewDomain name
// with the index appended, or "control" / "legacy" for unnamed roots.
func (e *Engine) domLabel() string {
	if e.dname != "" {
		return fmt.Sprintf("%q (domain %d)", e.dname, e.domIdx)
	}
	if e.co != nil && e.domIdx == 0 {
		return "control (domain 0)"
	}
	if e.co == nil {
		return "legacy engine"
	}
	return fmt.Sprintf("domain %d", e.domIdx)
}

// ObserveLookahead tells the coordinator a cross-domain boundary exists with
// the given minimum latency, without saying which domains it connects. The
// unattributed latency clamps every domain's window bound; boundaries that
// know their endpoints should call ObserveEdgeLookahead instead so only the
// actual neighbors are bounded. No-op on a legacy engine or with d <= 0.
func (e *Engine) ObserveLookahead(d Duration) {
	if e.co == nil || d <= 0 {
		return
	}
	c := e.co
	if c.legacy == 0 || d < c.legacy {
		c.legacy = d
	}
	if c.lookahead == 0 || d < c.lookahead {
		c.lookahead = d
	}
}

// ObserveEdgeLookahead registers a directed edge of the lookahead graph:
// transfers produced by this engine's domain arrive in dst's domain no
// earlier than d after the producing event. Parallel registrations for the
// same ordered pair keep the minimum. Both engines must belong to the same
// coordinator; must be called before the first Run (boundaries are built at
// topology-construction time).
func (e *Engine) ObserveEdgeLookahead(dst *Engine, d Duration) {
	if d <= 0 {
		src, tgt := e.domLabel(), "?"
		if dst != nil {
			tgt = dst.domLabel()
		}
		panic(fmt.Sprintf("sim: ObserveEdgeLookahead(%s -> %s) registered latency %v; "+
			"a directed edge's latency bounds the synchronization window and must be positive "+
			"(check the boundary built between these two domains)", src, tgt, d))
	}
	c := e.co
	if c == nil || dst == nil || dst.co != c {
		panic("sim: ObserveEdgeLookahead across unrelated engines")
	}
	if c.running {
		panic("sim: ObserveEdgeLookahead during run")
	}
	from, to := e.domIdx, dst.domIdx
	if from == to {
		return // intra-domain: not a boundary
	}
	if c.lookahead == 0 || d < c.lookahead {
		c.lookahead = d
	}
	for len(c.inEdges) < len(c.engines) {
		c.inEdges = append(c.inEdges, nil)
	}
	if c.edgeIdx == nil {
		c.edgeIdx = make(map[int64]int)
	}
	key := int64(from)<<32 | int64(to)
	if i, ok := c.edgeIdx[key]; ok {
		if d < c.inEdges[to][i].lat {
			c.inEdges[to][i].lat = d
		}
		return
	}
	c.edgeIdx[key] = len(c.inEdges[to])
	c.inEdges[to] = append(c.inEdges[to], edge{from: from, lat: d})
	c.edges++
}

// NoteBoundary marks a boundary dirty: it accumulated at least one transfer
// during the current window and must be flushed at the barrier. The producer
// must call this from its own domain and should dedupe per window (the
// boundary is flushed once per note).
func (e *Engine) NoteBoundary(b Boundary) {
	e.dirty = append(e.dirty, b)
	if e.co == nil {
		return
	}
	if !e.dirtyNoted {
		e.dirtyNoted = true
		c := e.co
		c.dirtyMu.Lock()
		c.dirtyDoms = append(c.dirtyDoms, e.domIdx)
		c.dirtyMu.Unlock()
	}
}

// Control hands fn to the control domain. Called during a concurrent window
// from a domain event (e.g. a NIC firing a host-level fault callback that
// must inspect cluster-wide state), fn is deferred to the control domain at
// the next window barrier — where it runs serialized and may touch any
// domain. Outside a run, or already on the control domain, fn runs inline.
// Deferral order is deterministic: domain-index order, FIFO within a domain.
func (e *Engine) Control(fn func()) {
	if e.co == nil || !e.co.running || e.domIdx == 0 {
		fn()
		return
	}
	e.ctrlq = append(e.ctrlq, fn)
	e.co.anyCtrl.Store(true)
}

// runWindow fires the engine's events with timestamps strictly below end.
// The clock is left at the last executed event (not advanced to end): only
// event execution moves a domain clock, exactly as in the serial engine.
func (e *Engine) runWindow(end Time) {
	for {
		e.discardCanceledRoot()
		if len(e.queue) == 0 || e.queue[0].when >= end {
			return
		}
		ev := e.heapPop()
		e.now = ev.when
		e.executed++
		ev.fn()
		e.recycle(ev)
	}
}

// run is the domain-mode main loop: per-domain windows bounded by the edge
// lookahead graph, serialized when control events are due, with
// boundary/control/trace flushes at each barrier. deadline == Forever runs
// until every queue drains (or Stop).
func (c *coord) run(deadline Time) Time {
	if len(c.engines) > 1 && c.lookahead <= 0 {
		panic(fmt.Sprintf("sim: %d event domains but no boundary registered a lookahead; "+
			"windows would degenerate to 1 ns and the run would crawl — register the minimum "+
			"cross-domain latency with ObserveEdgeLookahead (or ObserveLookahead) when the "+
			"boundary is built", len(c.engines)))
	}
	c.running = true
	c.stopReq.Store(false)
	rw := c.startWorkers()
	defer func() {
		c.running = false
		if rw != nil {
			rw.stop()
		}
	}()
	for !c.stopReq.Load() {
		// One pass over the domains plans the whole window: every head
		// timestamp lands in the contiguous heads cache, from which the
		// window start, the serial/concurrent decision and the dispatch
		// threshold all follow without touching the queues again.
		t := c.collectHeads()
		if c.sink != nil {
			// Everything before the global clock floor is final: no domain
			// can ever execute an event before the earliest head.
			c.mergeTraces(t)
		}
		if t == Forever || t > deadline {
			break
		}
		end := t + c.windowSpan()
		if end <= t { // Time overflow guard; never hit with sane clocks.
			end = t + 1
		}
		if deadline != Forever && end > deadline+1 {
			// RunUntil semantics are inclusive of the deadline: clip the
			// final window to execute events with when <= deadline.
			end = deadline + 1
		}
		if c.heads[0] < end {
			c.runSerialWindow(end)
		} else if limit := c.runAheadLimit(end, deadline); limit > end {
			// Exactly one domain is due this window: it may run ahead of
			// the nominal span. Nothing can arrive before the earliest
			// foreign head plus one span, and pending control events (the
			// root head bounds secondMin) stay in its future.
			c.engines[c.minIdx].runAhead(end, limit)
		} else {
			c.computeEAT(t, end, deadline)
			c.runParallelWindow(rw)
		}
		c.flushWindow(end)
	}
	if c.sink != nil {
		c.mergeTraces(Forever)
	}
	if deadline != Forever {
		for _, d := range c.engines {
			if d.now < deadline {
				d.now = deadline
			}
		}
	}
	return c.root.now
}

// windowSpan is the nominal window length: the minimum latency over every
// registered boundary. No cross-domain transfer produced inside a window
// can demand execution before the producer's head plus this span.
func (c *coord) windowSpan() Duration {
	if c.lookahead > 0 {
		return c.lookahead
	}
	return 1
}

// collectHeads refreshes the heads cache with every domain's next live
// event timestamp (Forever when drained) and returns the minimum, also
// recording which domain holds it and the runner-up time.
func (c *coord) collectHeads() Time {
	if cap(c.heads) < len(c.engines) {
		c.heads = make([]Time, len(c.engines))
	}
	c.heads = c.heads[:len(c.engines)]
	t, t2 := Forever, Forever
	c.minIdx = -1
	for i, d := range c.engines {
		d.discardCanceledRoot()
		if len(d.queue) == 0 {
			c.heads[i] = Forever
			continue
		}
		h := d.queue[0].when
		c.heads[i] = h
		if h < t {
			t, t2 = h, t
			c.minIdx = i
		} else if h < t2 {
			t2 = h
		}
	}
	c.secondMin = t2
	return t
}

// computeEAT fills c.eat with each domain's earliest-affect time for the
// window starting at t: the least fixpoint of
//
//	eat[i] = min over in-edges (j, L) of  min(head[j], eat[j]) + L
//
// capped by the control domain's readiness (control closures can touch any
// domain with zero latency), by any unattributed legacy lookahead, and by
// the RunUntil deadline. Every causal chain that could land in domain i
// starts at some queued event (a head) and accumulates at least one edge
// latency per hop, so executing events strictly below eat[i] is safe. The
// relaxation converges in at most diameter+1 passes (edge latencies are
// positive, so revisiting a domain never improves a chain).
func (c *coord) computeEAT(t, end, deadline Time) {
	n := len(c.engines)
	if cap(c.eat) < n {
		c.eat = make([]Time, n)
	}
	c.eat = c.eat[:n]
	if c.edges == 0 {
		// Pure legacy graph: every boundary is unattributed, the nominal
		// span is all we know.
		for i := range c.eat {
			c.eat[i] = end
		}
		return
	}
	legacyCap := Forever
	if c.legacy > 0 {
		legacyCap = t + c.legacy
	}
	dcap := Forever
	if deadline != Forever {
		dcap = deadline + 1
	}
	base := legacyCap
	if dcap < base {
		base = dcap
	}
	for i := range c.eat {
		c.eat[i] = Forever
	}
	for {
		ready0 := c.heads[0]
		if c.eat[0] < ready0 {
			ready0 = c.eat[0]
		}
		cap0 := base
		if ready0 < cap0 {
			cap0 = ready0
		}
		changed := false
		for i := 0; i < n; i++ {
			v := cap0
			if i == 0 {
				v = base // the control domain does not bound itself
			}
			if ie := c.inEdges; i < len(ie) {
				for _, ed := range ie[i] {
					r := c.heads[ed.from]
					if er := c.eat[ed.from]; er < r {
						r = er
					}
					if r >= Forever-ed.lat {
						continue
					}
					if a := r + ed.lat; a < v {
						v = a
					}
				}
			}
			if v < c.eat[i] {
				c.eat[i] = v
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Safety floor: every in-edge latency is >= the global minimum, so the
	// fixpoint can never undercut the nominal window — but a domain with no
	// in-edges at all converged to the caps, which is exactly right.
	for i := range c.eat {
		if c.eat[i] < end {
			c.eat[i] = end
		}
	}
}

// runAheadLimit reports how far the sole due domain may run ahead of the
// nominal window, or end when run-ahead does not apply (several domains due,
// the control domain is the one due, or nothing is gained). The limit is the
// second-earliest head: every foreign event — and so every transfer aimed
// back at the runner — lies at or beyond it, and a pending control event
// (part of that minimum) is never overtaken.
func (c *coord) runAheadLimit(end, deadline Time) Time {
	if c.minIdx <= 0 || c.secondMin < end {
		return end
	}
	limit := c.secondMin
	if deadline != Forever && limit > deadline+1 {
		limit = deadline + 1
	}
	return limit
}

// runAhead executes the always-safe nominal window [·, end), then keeps
// firing events up to limit as long as the domain stays self-contained: the
// first event that produces a cross-domain transfer or defers a control
// closure ends the window, since reactions to it can demand this domain's
// attention one lookahead span later. This collapses sparse phases — one
// domain grinding through timer wheels while the rest of the fabric idles —
// from one barrier per span into one barrier per interaction.
func (e *Engine) runAhead(end, limit Time) {
	e.runWindow(end)
	for !e.co.stopReq.Load() {
		if len(e.dirty) > 0 || len(e.ctrlq) > 0 {
			return
		}
		e.discardCanceledRoot()
		if len(e.queue) == 0 || e.queue[0].when >= limit {
			return
		}
		ev := e.heapPop()
		e.now = ev.when
		e.executed++
		ev.fn()
		e.recycle(ev)
	}
}

// runSerialWindow executes every due event across all domains in global
// (when, domain index, seq) order, advancing every domain clock in step so
// control events observe a coherent Now() everywhere and may schedule on any
// domain without tripping past-time checks. This is the canonical order the
// concurrent windows are provably equivalent to.
func (c *coord) runSerialWindow(end Time) {
	for !c.stopReq.Load() {
		var best *Engine
		for _, d := range c.engines {
			d.discardCanceledRoot()
			if len(d.queue) == 0 || d.queue[0].when >= end {
				continue
			}
			if best == nil || d.queue[0].when < best.queue[0].when {
				best = d
			}
		}
		if best == nil {
			return
		}
		ev := best.heapPop()
		for _, d := range c.engines {
			if d.now < ev.when {
				d.now = ev.when
			}
		}
		best.executed++
		ev.fn()
		best.recycle(ev)
	}
}

// runParallelWindow executes a window with no due control events: the
// domains are independent until the barrier, so they may run concurrently,
// each to its own earliest-affect bound. With one executor — or too little
// due work to pay for waking the pool — the sweep runs inline in
// domain-index order, the same order the merge semantics guarantee for any
// executor count. Consecutive inline windows raise the wakeup bar, so a
// sparse phase does not pay pool traffic on every window.
func (c *coord) runParallelWindow(rw *runWorkers) {
	if rw != nil {
		active := 0
		for i := 1; i < len(c.engines); i++ {
			if c.heads[i] < c.eat[i] {
				active++
			}
		}
		bar := c.parThreshold
		if c.sparseStreak > 0 {
			extra := c.sparseStreak
			if extra > c.parThreshold {
				extra = c.parThreshold
			}
			bar += extra
		}
		if active >= bar {
			c.sparseStreak = 0
			rw.dispatch()
			return
		}
		c.sparseStreak++
	}
	for i, d := range c.engines[1:] {
		if c.heads[i+1] < c.eat[i+1] {
			d.runWindow(c.eat[i+1])
		}
	}
}

// flushWindow is the barrier: move boundary transfers into their receiving
// domains and promote deferred control closures to control-domain events —
// both in deterministic domain-index order. Only domains that noted a dirty
// boundary are touched.
func (c *coord) flushWindow(end Time) {
	if len(c.dirtyDoms) > 0 {
		sort.Ints(c.dirtyDoms)
		for _, di := range c.dirtyDoms {
			d := c.engines[di]
			d.dirtyNoted = false
			for i, b := range d.dirty {
				b.FlushBoundary()
				d.dirty[i] = nil
			}
			d.dirty = d.dirty[:0]
		}
		c.dirtyDoms = c.dirtyDoms[:0]
	}
	if c.anyCtrl.Swap(false) {
		// A run-ahead domain's clock may sit past the nominal window end;
		// the control event must land at or after every domain clock so
		// control code never observes — or schedules into — a domain's past.
		at := end
		for _, d := range c.engines {
			if d.now > at {
				at = d.now
			}
		}
		for _, d := range c.engines {
			if len(d.ctrlq) == 0 {
				continue
			}
			for i, fn := range d.ctrlq {
				c.root.AtLabel(at, "ctrl", fn)
				d.ctrlq[i] = nil
			}
			d.ctrlq = d.ctrlq[:0]
		}
	}
}

// mergeTraces drains buffered trace lines strictly below cutoff into the
// sink in (time, domain index, emission order) order — identical to the
// serialized execution order. Lines at or beyond the cutoff (the global
// clock floor) stay buffered: a domain that ran ahead of its peers must not
// emit before a slower peer's earlier line. Pass Forever for the final drain.
func (c *coord) mergeTraces(cutoff Time) {
	for {
		var best *Engine
		for _, d := range c.engines {
			if d.tracePos >= len(d.traceBuf) {
				continue
			}
			l := &d.traceBuf[d.tracePos]
			if l.at >= cutoff {
				continue // per-domain times are nondecreasing: all held
			}
			if best == nil || l.at < best.traceBuf[best.tracePos].at {
				best = d
			}
		}
		if best == nil {
			break
		}
		l := &best.traceBuf[best.tracePos]
		best.tracePos++
		c.sink(l.at, l.comp, "%s", l.msg)
	}
	for _, d := range c.engines {
		if d.tracePos == len(d.traceBuf) {
			for i := range d.traceBuf {
				d.traceBuf[i] = traceLine{}
			}
			d.traceBuf = d.traceBuf[:0]
			d.tracePos = 0
		} else if d.tracePos > 256 && d.tracePos*2 > len(d.traceBuf) {
			n := copy(d.traceBuf, d.traceBuf[d.tracePos:])
			for i := n; i < len(d.traceBuf); i++ {
				d.traceBuf[i] = traceLine{}
			}
			d.traceBuf = d.traceBuf[:n]
			d.tracePos = 0
		}
	}
}

// --- Worker pool ---

// runWorkers is the per-run executor pool: shards-1 goroutines plus the
// coordinator itself, each sweeping a static domain partition per window.
// Workers live for one Run call — parked on their job channel between
// windows, joined when the run ends — so idle engines hold no goroutines.
type runWorkers struct {
	c        *coord
	n        int             // executors, including the coordinator
	jobs     []chan struct{} // one per pooled worker
	wg       sync.WaitGroup
	lifetime sync.WaitGroup
	panicMu  sync.Mutex
	panicVal any
}

func (c *coord) startWorkers() *runWorkers {
	n := c.shards
	if max := len(c.engines) - 1; n > max {
		n = max
	}
	if n <= 1 {
		return nil
	}
	rw := &runWorkers{c: c, n: n, jobs: make([]chan struct{}, n-1)}
	for w := range rw.jobs {
		rw.jobs[w] = make(chan struct{}, 1)
		rw.lifetime.Add(1)
		go rw.workerLoop(w + 1)
	}
	return rw
}

func (rw *runWorkers) workerLoop(w int) {
	defer rw.lifetime.Done()
	for range rw.jobs[w-1] {
		rw.runPartition(w)
		rw.wg.Done()
	}
}

// runPartition sweeps the domains assigned to executor w (round-robin by
// domain index, a static assignment so a domain's queue is touched by
// exactly one goroutine per window), each to its own per-edge bound.
// Panics are captured and re-raised on the coordinator after the barrier,
// so a failing event cannot deadlock the pool.
func (rw *runWorkers) runPartition(w int) {
	defer func() {
		if r := recover(); r != nil {
			rw.panicMu.Lock()
			if rw.panicVal == nil {
				rw.panicVal = fmt.Sprintf("sim: domain event panic: %v", r)
			}
			rw.panicMu.Unlock()
		}
	}()
	c := rw.c
	doms := c.engines[1:]
	for i := w; i < len(doms); i += rw.n {
		if c.heads[i+1] < c.eat[i+1] {
			doms[i].runWindow(c.eat[i+1])
		}
	}
}

// dispatch fans one window out to the pool, participates as executor 0, and
// waits for every partition to finish before returning.
func (rw *runWorkers) dispatch() {
	rw.wg.Add(rw.n - 1)
	for _, ch := range rw.jobs {
		ch <- struct{}{}
	}
	rw.runPartition(0)
	rw.wg.Wait()
	if rw.panicVal != nil {
		v := rw.panicVal
		rw.panicVal = nil
		panic(v)
	}
}

func (rw *runWorkers) stop() {
	for _, ch := range rw.jobs {
		close(ch)
	}
	rw.lifetime.Wait()
}
