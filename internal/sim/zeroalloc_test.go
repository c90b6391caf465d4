//go:build !race

// Zero-allocation guard for the windowed engine: a two-domain steady state —
// conservative windows, digests crossing a boundary, barrier flushes — must
// allocate nothing per step once the event free lists and queue capacities
// are warm. Excluded under the race detector, whose instrumentation
// allocates.

package sim

import "testing"

// zaDom is a dense ticker folding a digest, with a periodic transfer into
// the peer's inbox across a boundary. All closures are bound once at setup
// so the steady state schedules only pooled events.
type zaDom struct {
	eng     *Engine
	counter uint64
	digest  uint64
	out     *zaBoundary
	tickFn  func()
}

func (d *zaDom) fold(v uint64) {
	h := d.digest ^ v
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	d.digest = h ^ (h >> 27)
}

func (d *zaDom) tick() {
	d.counter++
	d.fold(d.counter)
	d.fold(d.eng.RNG().Uint64())
	if d.counter%16 == 0 {
		d.out.send(d.digest, 2*Microsecond)
	}
	d.eng.After(100*Nanosecond, d.tickFn)
}

// zaBoundary delivers digests into the receiver's inbox. The drain closure
// is bound once; each message costs one pooled arrival event plus an append
// into a warm slice.
type zaBoundary struct {
	src, dst *Engine
	tgt      *zaDom
	class    uint32
	q        []toyMsg
	noted    bool

	inbox   []uint64
	head    int
	drainFn func()
}

func (b *zaBoundary) FlushBoundary() {
	b.noted = false
	for _, m := range b.q {
		b.inbox = append(b.inbox, m.v)
		b.dst.AtArrival(m.at, b.class, "xfer", b.drainFn)
	}
	b.q = b.q[:0]
}

func (b *zaBoundary) send(v uint64, lat Duration) {
	b.q = append(b.q, toyMsg{at: b.src.Now() + lat, v: v})
	if !b.noted {
		b.noted = true
		b.src.NoteBoundary(b)
	}
}

func (b *zaBoundary) drain() {
	if b.head < len(b.inbox) {
		b.tgt.fold(b.inbox[b.head] ^ 0xabcdef)
		b.head++
	}
	if b.head == len(b.inbox) {
		b.inbox = b.inbox[:0]
		b.head = 0
	}
}

// TestZeroAllocWindows pins the windowed engine's steady state: after a
// warmup that sizes every pool, advancing the pair through windows,
// boundary flushes and cross-domain arrivals allocates nothing.
func TestZeroAllocWindows(t *testing.T) {
	root := NewEngine(2003)
	root.SetShards(1)
	// Keep every window on the calling goroutine: worker handoff is not
	// the machinery under test and its parking can allocate.
	root.SetParallelThreshold(1 << 20)

	a := &zaDom{eng: root.NewDomain("a")}
	b := &zaDom{eng: root.NewDomain("b")}
	wire := func(src, dst *zaDom) {
		bd := &zaBoundary{src: src.eng, dst: dst.eng, tgt: dst, class: dst.eng.ArrivalClass()}
		bd.drainFn = bd.drain
		src.out = bd
		src.eng.ObserveEdgeLookahead(dst.eng, 2*Microsecond)
	}
	wire(a, b)
	wire(b, a)
	for _, d := range []*zaDom{a, b} {
		d.tickFn = d.tick
		d.eng.AtLabel(Time(100), "tick", d.tickFn)
	}

	next := root.RunUntil(Time(2 * Millisecond))
	const step = Time(20 * Microsecond)
	before := a.digest ^ b.digest
	allocs := testing.AllocsPerRun(100, func() {
		next += step
		root.RunUntil(next)
	})
	if allocs != 0 {
		t.Fatalf("windowed steady state allocates %.2f/step, want 0", allocs)
	}
	if a.digest^b.digest == before {
		t.Fatal("measured steps did not advance the workload")
	}
}
