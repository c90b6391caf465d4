package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"

	"repro/gm"
	"repro/internal/sim"
)

// Every benchmark message starts with a header the sender brands in place
// just before the send, so the receiving auditor can check per-stream
// order, identity and integrity and measure simulated latency:
//
//	[0:8)   per-stream sequence number, from 1
//	[8:16)  simulated instant the message was due (ns)
//	[16:20) source node index << 16 | destination node index
//	[20:24) check word over the first 20 bytes and the length
//
// The body after the header is a seed-derived pattern written once at
// set-up; the receiver compares it with the reference byte for byte.
const hdrLen = 24

var le = binary.LittleEndian

func checkWord(h []byte, n int) uint32 {
	x := uint32(2166136261) ^ uint32(n)
	for _, b := range h[:20] {
		x = (x ^ uint32(b)) * 16777619
	}
	return x
}

// refBody builds the seed-derived payload pattern shared by every stream.
func refBody(seed uint64, n int) []byte {
	rng := sim.DeriveRNG(seed, 0xb0d1)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint64())
	}
	return b
}

// slot is one pinned send buffer. A port owns exactly as many slots as it
// has send tokens, and each slot carries its own completion callback, built
// once, so a completion frees precisely the buffer the library released.
type slot struct {
	buf   []byte
	idx   int32
	busy  bool
	order uint64 // send order, for re-arming callbacks after a restore
	cb    gm.SendCallback
}

// gen drives one port's traffic: closed loop (every == 0: send whenever a
// token is free until total messages are out) or open loop (message k is
// due at start + k*every and waits for a token if none is free; its latency
// counts from the due instant). Destinations are visited round-robin.
// Nothing here allocates once set-up is done.
type gen struct {
	eng   *sim.Engine
	port  *gm.Port
	self  int
	dests []int
	ids   []gm.NodeID // by node index
	total int
	every sim.Duration
	// the first message is due offset after the steady phase starts
	offset sim.Duration
	start  sim.Time

	// size mix: message k of a stream is large when (k+phase)%largeEvery == 0.
	small, large, largeEvery, phase int

	slots []slot
	free  []int32
	seqs  []uint64 // per destination: messages sent, i.e. the last sequence number

	due, sent      int // messages due (open loop) and handed to Send
	orders         uint64
	done, errs     uint64
	refused, waits uint64
	paused         bool
	tickFn         func()
	tr             *genTrace // nil on untimed rounds
	// send indexes that end the first tenth and start the last tenth
	firstTenth, lastTenth int
}

// genTrace holds the host-time spans around this port's calls into gm.
type genTrace struct {
	send            hist
	firstNs, lastNs int64 // Send time summed over the first and last tenth
	firstN, lastN   int64
}

func newGen(eng *sim.Engine, port *gm.Port, self int, dests []int, ids []gm.NodeID,
	total int, every sim.Duration, tokens, maxSize int, ref []byte) *gen {
	g := &gen{eng: eng, port: port, self: self, dests: dests, ids: ids, total: total,
		every: every, seqs: make([]uint64, len(dests)),
		slots: make([]slot, tokens), free: make([]int32, 0, tokens)}
	for i := range g.slots {
		s := &g.slots[i]
		s.idx = int32(i)
		s.buf = make([]byte, maxSize)
		copy(s.buf, ref)
		s.cb = func(st gm.SendStatus) {
			s.busy = false
			g.free = append(g.free, s.idx)
			g.done++
			if st != gm.SendOK {
				g.errs++
			}
			g.pump()
		}
		g.free = append(g.free, int32(tokens-1-i))
	}
	g.tickFn = g.tick
	g.firstTenth = total / 10
	g.lastTenth = total - total/10
	return g
}

// begin starts the generator at the engine's current instant plus offset.
func (g *gen) begin() {
	g.start = g.eng.Now() + g.offset
	g.eng.At(g.start, g.tickFn)
}

func (g *gen) tick() {
	if g.every == 0 {
		g.due = g.total
	} else if g.due < g.total {
		g.due++
		if g.due < g.total {
			g.eng.At(g.start+sim.Duration(g.due)*g.every, g.tickFn)
		}
	}
	g.pump()
}

// size returns the length of the stream's next message.
func (g *gen) size(k uint64) int {
	if g.largeEvery > 0 && (int(k)+g.phase)%g.largeEvery == 0 {
		return g.large
	}
	return g.small
}

// pump sends every due message a token allows.
func (g *gen) pump() {
	for !g.paused && g.sent < g.due {
		if len(g.free) == 0 {
			g.waits++
			return
		}
		d := g.sent % len(g.dests)
		seq := g.seqs[d] + 1
		n := g.size(seq)
		at := g.eng.Now()
		if g.every > 0 {
			at = g.start + sim.Duration(g.sent)*g.every
		}
		si := g.free[len(g.free)-1]
		s := &g.slots[si]
		b := g.brand(s, d, seq, n, at)
		var t0 int64
		if g.tr != nil {
			t0 = nanotime()
		}
		err := g.port.Send(g.ids[g.dests[d]], g.port.ID(), gm.PriorityLow, b, s.cb)
		if g.tr != nil {
			g.tr.record(nanotime()-t0, g.sent, g.firstTenth, g.lastTenth)
		}
		if errors.Is(err, gm.ErrNoSendTokens) {
			g.waits++
			return
		}
		g.sent++
		if err != nil {
			g.refused++
			continue
		}
		g.free = g.free[:len(g.free)-1]
		g.orders++
		s.busy, s.order = true, g.orders
		g.seqs[d] = seq
	}
}

// brand stamps the header of message seq to destination slot d into send
// buffer s and returns the n-byte message.
func (g *gen) brand(s *slot, d int, seq uint64, n int, at sim.Time) []byte {
	b := s.buf[:n]
	le.PutUint64(b[0:], seq)
	le.PutUint64(b[8:], uint64(at))
	le.PutUint32(b[16:], uint32(g.self)<<16|uint32(g.dests[d]))
	le.PutUint32(b[20:], checkWord(b, n))
	return b
}

func (t *genTrace) record(ns int64, k, lo, hi int) {
	t.send.add(ns)
	if k < lo {
		t.firstNs += ns
		t.firstN++
	} else if k >= hi {
		t.lastNs += ns
		t.lastN++
	}
}

// rearm re-attaches the generator to a restored port: the checkpointed
// sends the library re-posts get their slots' callbacks back, matched in
// posting order. It reports false when the library's outstanding sends do
// not line up with the busy slots.
func (g *gen) rearm(p *gm.Port) bool {
	g.port = p
	var busy []int
	for i := range g.slots {
		if g.slots[i].busy {
			busy = append(busy, i)
		}
	}
	slices.SortFunc(busy, func(a, b int) int {
		return int(g.slots[a].order) - int(g.slots[b].order)
	})
	ids := p.OutstandingSendIDs()
	if len(ids) != len(busy) {
		return false
	}
	for i, id := range ids {
		if p.SetSendCompletion(id, g.slots[busy[i]].cb) != nil {
			return false
		}
	}
	return true
}

// sink is the receiving half of the auditor for one node: it checks every
// delivery against the per-stream expectations, records the simulated
// latency, and recycles the buffer. Only the node's own event domain
// touches it.
type sink struct {
	eng    *sim.Engine
	port   *gm.Port
	self   int
	ids    []gm.NodeID
	ref    []byte
	expect []uint64 // per source node: next sequence number

	delivered, bytes    uint64
	dups, gaps, corrupt uint64
	lats                []int64 // simulated ns, preallocated
	last                sim.Time
	onDeliver           func(src int, at, now sim.Time)
	recycle             *hist // nil on untimed rounds
	recycleErrs         uint64
	handler             gm.RecvHandler
}

func newSink(eng *sim.Engine, port *gm.Port, self int, ids []gm.NodeID, ref []byte, expected int) *sink {
	s := &sink{eng: eng, port: port, self: self, ids: ids, ref: ref,
		expect: make([]uint64, len(ids)), lats: make([]int64, 0, expected)}
	for i := range s.expect {
		s.expect[i] = 1
	}
	s.handler = s.onRecv
	port.SetReceiveHandler(s.handler)
	return s
}

func (s *sink) onRecv(ev gm.RecvEvent) {
	s.check(ev.Data, ev.Src)
	var t0 int64
	if s.recycle != nil {
		t0 = nanotime()
	}
	if s.port.RecycleReceiveBuffer(ev.Data, ev.Prio) != nil {
		s.recycleErrs++
	}
	if s.recycle != nil {
		s.recycle.add(nanotime() - t0)
	}
}

func (s *sink) check(d []byte, from gm.NodeID) {
	n := len(d)
	if n < hdrLen || n > len(s.ref) || le.Uint32(d[20:]) != checkWord(d, n) {
		s.corrupt++
		return
	}
	key := le.Uint32(d[16:])
	src, dst := int(key>>16), int(key&0xffff)
	if dst != s.self || src >= len(s.ids) || s.ids[src] != from ||
		!bytes.Equal(d[hdrLen:], s.ref[hdrLen:n]) {
		s.corrupt++
		return
	}
	seq, at := le.Uint64(d[0:]), sim.Time(le.Uint64(d[8:]))
	exp := s.expect[src]
	switch {
	case seq < exp:
		s.dups++
		return
	case seq > exp:
		s.gaps += seq - exp
	}
	s.expect[src] = seq + 1
	now := s.eng.Now()
	s.delivered++
	s.bytes += uint64(n)
	s.lats = append(s.lats, int64(now-at))
	s.last = now
	if s.onDeliver != nil {
		s.onDeliver(src, at, now)
	}
}
