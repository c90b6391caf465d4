package sim

// Deferred runs queued calls of one function at caller-chosen times, using a
// single pending engine event instead of a closure-carrying event per call.
// It is the engine-level idiom for a serial resource whose completion times
// are nondecreasing (a FIFO pipeline stage, a fixed post-processing delay):
// the per-call state travels in a plain ring slot, and the one callback is
// allocated when the Deferred is built.
//
// Calls MUST be issued with nondecreasing times; Call panics otherwise,
// because the ring would then dispatch later-due work first.
type Deferred[T any] struct {
	eng      *Engine
	label    string
	run      func(T)
	q        []deferredItem[T]
	head     int
	wake     *Event
	draining bool
	drainFn  func() // cached; arming a drain must not allocate
}

type deferredItem[T any] struct {
	at Time
	v  T
}

// NewDeferred returns a Deferred that dispatches queued values to run.
func NewDeferred[T any](eng *Engine, label string, run func(T)) *Deferred[T] {
	d := &Deferred[T]{eng: eng, label: label, run: run}
	d.drainFn = d.drain
	return d
}

// Call queues run(v) for virtual time t. t must be >= every previously
// queued time.
func (d *Deferred[T]) Call(t Time, v T) {
	if n := len(d.q); n > d.head && t < d.q[n-1].at {
		panic("sim: Deferred.Call with decreasing time")
	}
	if d.head > 0 && d.head == len(d.q) {
		d.q = d.q[:0]
		d.head = 0
	}
	d.q = append(d.q, deferredItem[T]{at: t, v: v})
	if d.wake == nil && !d.draining {
		d.wake = d.eng.AtLabel(t, d.label, d.drainFn)
	}
}

// After queues run(v) for dur from now.
func (d *Deferred[T]) After(dur Duration, v T) { d.Call(d.eng.Now()+dur, v) }

// Pending reports how many queued calls have not yet dispatched.
func (d *Deferred[T]) Pending() int { return len(d.q) - d.head }

func (d *Deferred[T]) drain() {
	d.wake = nil
	d.draining = true
	now := d.eng.Now()
	var zero deferredItem[T]
	for d.head < len(d.q) {
		it := &d.q[d.head]
		if it.at > now {
			break
		}
		v := it.v
		*it = zero
		d.head++
		d.run(v)
	}
	d.draining = false
	// Under sustained load the ring may never fully empty; slide the tail
	// down once the dead prefix dominates so the array stays bounded.
	if d.head > 1024 && d.head*2 > len(d.q) {
		n := copy(d.q, d.q[d.head:])
		for i := n; i < len(d.q); i++ {
			d.q[i] = zero
		}
		d.q = d.q[:n]
		d.head = 0
	}
	if d.head < len(d.q) {
		d.wake = d.eng.AtLabel(d.q[d.head].at, d.label, d.drainFn)
	}
}
