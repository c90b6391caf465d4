package sim

import (
	"fmt"
	"strings"
	"testing"
)

// --- Toy ring harness ----------------------------------------------------
//
// A ring of domains, each running an RNG-paced ticker that folds a running
// hash and periodically sends its hash across a Boundary to the next
// domain. Fingerprints cover component state, event counts and the merged
// trace stream — byte-equal across every shard count is the contract under
// test.

type toyMsg struct {
	at Time
	v  uint64
}

type toyBoundary struct {
	src, dst *Engine
	owner    *toyDom // receiving component
	class    uint32  // arrival ordering class (AtArrival)
	q        []toyMsg
	noted    bool
}

func (b *toyBoundary) FlushBoundary() {
	b.noted = false
	for _, m := range b.q {
		m := m
		b.dst.AtArrival(m.at, b.class, "xfer", func() { b.owner.recv(m.v) })
	}
	b.q = b.q[:0]
}

func (b *toyBoundary) send(v uint64, lat Duration) {
	b.q = append(b.q, toyMsg{at: b.src.Now() + lat, v: v})
	if !b.noted {
		b.noted = true
		b.src.NoteBoundary(b)
	}
}

type toyDom struct {
	eng      *Engine
	idx      int
	counter  uint64
	hash     uint64
	out      *toyBoundary // boundary this domain produces into (nil for sinks)
	lat      Duration
	sendMod  uint64 // send every sendMod ticks (0 = never)
	deadline Time
}

func (d *toyDom) fold(v uint64) {
	h := d.hash ^ v
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	d.hash = h ^ (h >> 27)
}

func (d *toyDom) recv(v uint64) {
	d.fold(v ^ 0xabcdef)
	d.fold(uint64(d.eng.Now()))
}

func (d *toyDom) tick() {
	d.counter++
	d.fold(d.counter)
	d.fold(uint64(d.eng.Now()))
	d.fold(d.eng.RNG().Uint64())
	if d.sendMod > 0 && d.counter%d.sendMod == 0 && d.out != nil {
		d.out.send(d.hash, d.lat)
	}
	if d.counter%97 == 0 {
		d.eng.Tracef("toy", "dom%d c=%d h=%x", d.idx, d.counter, d.hash)
	}
	next := d.eng.Now() + 50*Nanosecond + d.eng.RNG().Duration(150*Nanosecond)
	if next <= d.deadline {
		d.eng.AtLabel(next, "tick", func() { d.tick() })
	}
}

// toyRing is a constructed-but-not-yet-run ring plus its trace sink.
type toyRing struct {
	root  *Engine
	doms  []*toyDom
	trace *strings.Builder
}

// buildToyRing constructs an n-domain ring and hands it back unrun, so the
// caller can run it straight through or snapshot/resume at arbitrary
// points. threshold > 0 overrides the parallel dispatch threshold.
func buildToyRing(n, shards, threshold int, deadline Time) *toyRing {
	root := NewEngine(42)
	root.SetShards(shards)
	if threshold > 0 {
		root.SetParallelThreshold(threshold)
	}
	trace := &strings.Builder{}
	root.SetTrace(func(at Time, comp, format string, args ...any) {
		fmt.Fprintf(trace, "[%d] %s %s\n", at, comp, fmt.Sprintf(format, args...))
	})
	const lat = 1 * Microsecond
	doms := make([]*toyDom, n)
	for i := range doms {
		doms[i] = &toyDom{
			eng:      root.NewDomain(fmt.Sprintf("d%d", i)),
			idx:      i,
			lat:      lat,
			sendMod:  13,
			deadline: deadline,
		}
	}
	for i, d := range doms {
		next := doms[(i+1)%n]
		d.out = &toyBoundary{src: d.eng, dst: next.eng, owner: next, class: next.eng.ArrivalClass()}
		d.eng.ObserveEdgeLookahead(next.eng, lat)
	}
	for _, d := range doms {
		d := d
		d.eng.AtLabel(Time(100+d.idx*7)*Nanosecond, "tick", func() { d.tick() })
	}
	return &toyRing{root: root, doms: doms, trace: trace}
}

// fingerprint renders the ring's complete observable state: component
// hashes, per-domain engine counters, the full merged trace.
func (r *toyRing) fingerprint() string {
	var fp strings.Builder
	for _, d := range r.doms {
		fmt.Fprintf(&fp, "dom%d c=%d h=%x exec=%d now=%d\n",
			d.idx, d.counter, d.hash, d.eng.Executed(), d.eng.Now())
	}
	fp.WriteString(r.trace.String())
	return fp.String()
}

// TestRingShardInvariance is the core contract: the complete observable
// state — component hashes, event counts, merged trace bytes — is identical
// for every executor count and every dispatch threshold.
func TestRingShardInvariance(t *testing.T) {
	const deadline = Time(300 * Microsecond)
	run := func(shards, threshold int) string {
		r := buildToyRing(12, shards, threshold, deadline)
		r.root.RunUntil(deadline)
		return r.fingerprint()
	}
	ref := run(1, 0)
	for _, cfg := range []struct{ shards, threshold int }{
		{2, 0}, {4, 0}, {8, 0}, {4, 1}, {4, 100},
	} {
		if got := run(cfg.shards, cfg.threshold); got != ref {
			t.Errorf("shards=%d threshold=%d diverged from serial run:\n--- serial ---\n%.400s\n--- got ---\n%.400s",
				cfg.shards, cfg.threshold, ref, got)
		}
	}
}

// TestEdgeLookaheadGuards covers the lookahead-registration misuse panics.
func TestEdgeLookaheadGuards(t *testing.T) {
	root := NewEngine(1)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	d := root.NewDomain("a")
	mustPanic("ObserveEdgeLookahead with zero latency", func() {
		d.ObserveEdgeLookahead(root, 0)
	})
	mustPanic("ObserveEdgeLookahead across coordinators", func() {
		other := NewEngine(2)
		d.ObserveEdgeLookahead(other, Microsecond)
	})
}
