package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// This file implements whole-simulation snapshot/resume. Event callbacks are
// Go closures and cannot be serialized, so a snapshot does not try to persist
// the heap's code pointers. Instead it records a *cursor with attestation*:
// the exact virtual time the simulation stopped at plus a cryptographic-free
// but collision-resistant-enough digest of every piece of engine state that
// the determinism contract says is a pure function of (configuration, seed,
// schedule) — per-domain clocks, sequence counters, executed counts, RNG
// states, and the full live event heap (timestamps, sequence numbers,
// labels). Resume takes a freshly constructed simulation built from the same
// configuration, replays it to the cursor time (bit-for-bit identical by the
// determinism contract, shard-invariant by DESIGN.md §12/13)
// and then verifies the attestation field by field. Any divergence — a
// different seed, a drifted config, a code change that reordered events —
// fails loudly with ErrSnapshotMismatch instead of silently continuing a
// different simulation. See DESIGN.md §15.
//
// Snapshots are only meaningful at quiescence: between Run/RunUntil calls,
// when every window barrier has flushed (no pending boundary transfers, no
// deferred control closures, no unmerged trace lines). Snapshot refuses
// with ErrNotQuiescent otherwise.

// Snapshot format errors. Decoding never panics on hostile input: a
// truncated, corrupt or foreign byte stream yields one of these.
var (
	// ErrNotQuiescent is returned by Snapshot when the simulation has
	// unresolved barrier state (mid-run, dirty boundaries, deferred control
	// closures, or unmerged trace lines).
	ErrNotQuiescent = errors.New("sim: snapshot requires a quiescent simulation")
	// ErrSnapshotTruncated is returned when the stream ends mid-record.
	ErrSnapshotTruncated = errors.New("sim: snapshot truncated")
	// ErrSnapshotCorrupt is returned on a bad magic number or checksum.
	ErrSnapshotCorrupt = errors.New("sim: snapshot corrupt")
	// ErrSnapshotVersion is returned on an unknown format version.
	ErrSnapshotVersion = errors.New("sim: unsupported snapshot version")
	// ErrSnapshotMismatch is returned by Resume when the replayed simulation
	// does not attest to the snapshotted state — the configuration, seed or
	// code differs from the run that produced the snapshot.
	ErrSnapshotMismatch = errors.New("sim: resumed simulation diverges from snapshot")
)

// snapshotMagic identifies a sim snapshot stream ("GMSN").
const snapshotMagic uint32 = 0x474d534e

// snapshotVersion is the current format version. Bump on any layout change;
// Resume rejects versions it does not understand rather than guessing.
// Version 2 dropped the four run-ahead outcome counters version 1 carried
// after the root clock.
const snapshotVersion uint16 = 2

// domainCursor is one domain's attested state at the snapshot instant.
type domainCursor struct {
	name     string
	now      Time
	nextSeq  uint64
	executed uint64
	rngState uint64
	live     uint32 // live (non-canceled) queued events
	digest   uint64 // FNV-1a over the sorted live heap (when, seq, label)
}

// snapshotCursor is the decoded form of a snapshot stream.
type snapshotCursor struct {
	rootNow Time
	shards  int
	domains []domainCursor
}

// heapDigest folds every live queued event into an order-independent-input,
// order-fixed-output digest: the live events are sorted by the queue's own
// strict total order (when, seq) and hashed FNV-1a style with their labels.
// Canceled-but-undiscarded events are excluded — whether a dead timer has
// been compacted yet is heap-administrivia, not simulation state.
func (e *Engine) heapDigest() (uint64, uint32) {
	type key struct {
		when Time
		seq  uint64
	}
	keys := make([]key, 0, len(e.queue))
	labels := make(map[key]string, len(e.queue))
	for _, ev := range e.queue {
		if ev.canceled {
			continue
		}
		k := key{ev.when, ev.seq}
		keys = append(keys, k)
		labels[k] = ev.label
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].when != keys[j].when {
			return keys[i].when < keys[j].when
		}
		return keys[i].seq < keys[j].seq
	})
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	var buf [8]byte
	mix64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		for _, b := range buf {
			mix(b)
		}
	}
	for _, k := range keys {
		mix64(uint64(k.when))
		mix64(k.seq)
		l := labels[k]
		mix64(uint64(len(l)))
		for i := 0; i < len(l); i++ {
			mix(l[i])
		}
	}
	return h, uint32(len(keys))
}

// quiescent reports whether the engine tree is at a barrier-clean stop, or
// the reason it is not.
func (e *Engine) quiescent() error {
	c := e.co
	if c == nil {
		// Legacy single engine: always between events when user code runs.
		return nil
	}
	if c.running {
		return fmt.Errorf("%w: inside a Run window", ErrNotQuiescent)
	}
	for _, d := range c.engines {
		if len(d.dirty) > 0 {
			return fmt.Errorf("%w: domain %d (%s) has unflushed boundary transfers", ErrNotQuiescent, d.domIdx, d.dname)
		}
		if len(d.ctrlq) > 0 {
			return fmt.Errorf("%w: domain %d (%s) has deferred control closures", ErrNotQuiescent, d.domIdx, d.dname)
		}
		if d.tracePos != len(d.traceBuf) {
			return fmt.Errorf("%w: domain %d (%s) has unmerged trace lines", ErrNotQuiescent, d.domIdx, d.dname)
		}
	}
	return nil
}

// cursor assembles the attested state of the whole engine tree.
func (e *Engine) cursor() snapshotCursor {
	cur := snapshotCursor{rootNow: e.now, shards: e.Shards()}
	engines := []*Engine{e}
	if e.co != nil {
		engines = e.co.engines
	}
	cur.domains = make([]domainCursor, len(engines))
	for i, d := range engines {
		digest, live := d.heapDigest()
		cur.domains[i] = domainCursor{
			name:     d.dname,
			now:      d.now,
			nextSeq:  d.nextSeq,
			executed: d.executed,
			rngState: d.rng.State(),
			live:     live,
			digest:   digest,
		}
	}
	return cur
}

// Snapshot writes a versioned, checksummed cursor of the simulation's state
// to w. It must be called on the control engine at quiescence — between
// Run/RunUntil calls, after every barrier has flushed — and returns
// ErrNotQuiescent otherwise. The snapshot is deterministic: two runs that
// reached the same virtual time with the same configuration produce
// byte-identical snapshots, for any shard count.
func (e *Engine) Snapshot(w io.Writer) error {
	if e.co != nil {
		e.checkControl()
	}
	if err := e.quiescent(); err != nil {
		return err
	}
	cur := e.cursor()
	buf := make([]byte, 0, 64+48*len(cur.domains))
	p := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	buf = binary.LittleEndian.AppendUint32(buf, snapshotMagic)
	buf = binary.LittleEndian.AppendUint16(buf, snapshotVersion)
	buf = binary.LittleEndian.AppendUint16(buf, 0) // reserved flags
	p(uint64(cur.rootNow))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cur.domains)))
	for _, d := range cur.domains {
		if len(d.name) > 0xffff {
			return fmt.Errorf("sim: domain name too long for snapshot: %d bytes", len(d.name))
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(d.name)))
		buf = append(buf, d.name...)
		p(uint64(d.now))
		p(d.nextSeq)
		p(d.executed)
		p(d.rngState)
		buf = binary.LittleEndian.AppendUint32(buf, d.live)
		p(d.digest)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	_, err := w.Write(buf)
	return err
}

// decodeSnapshot parses and validates a snapshot stream. It never panics on
// hostile input: every length is checked before use and the trailing CRC
// must match.
func decodeSnapshot(data []byte) (snapshotCursor, error) {
	var cur snapshotCursor
	// Fixed header through the domain count, plus the trailing CRC.
	const fixed = 4 + 2 + 2 + 8 + 4
	if len(data) < fixed+4 {
		return cur, ErrSnapshotTruncated
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBytes) {
		return cur, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	if binary.LittleEndian.Uint32(body[0:4]) != snapshotMagic {
		return cur, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	if v := binary.LittleEndian.Uint16(body[4:6]); v != snapshotVersion {
		return cur, fmt.Errorf("%w: version %d", ErrSnapshotVersion, v)
	}
	off := 8
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(body[off:])
		off += 8
		return v
	}
	cur.rootNow = Time(u64())
	nDomains := binary.LittleEndian.Uint32(body[off:])
	off += 4
	// Each domain record is at least 2 (name len) + 8*4 + 4 + 8 bytes.
	const minDomain = 2 + 8 + 8 + 8 + 8 + 4 + 8
	if uint64(nDomains) > uint64(len(body)-off)/minDomain {
		return cur, fmt.Errorf("%w: domain count %d exceeds stream", ErrSnapshotTruncated, nDomains)
	}
	cur.domains = make([]domainCursor, nDomains)
	for i := range cur.domains {
		if off+2 > len(body) {
			return cur, ErrSnapshotTruncated
		}
		nameLen := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if off+nameLen+minDomain-2 > len(body) {
			return cur, ErrSnapshotTruncated
		}
		cur.domains[i].name = string(body[off : off+nameLen])
		off += nameLen
		cur.domains[i].now = Time(u64())
		cur.domains[i].nextSeq = u64()
		cur.domains[i].executed = u64()
		cur.domains[i].rngState = u64()
		cur.domains[i].live = binary.LittleEndian.Uint32(body[off:])
		off += 4
		cur.domains[i].digest = u64()
	}
	if off != len(body) {
		return cur, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(body)-off)
	}
	return cur, nil
}

// Resume restores the simulation to the state captured in a snapshot. The
// receiver must be a freshly constructed simulation built from the identical
// configuration and seed that produced the snapshot, with its clock at or
// before the snapshot time. Resume replays the simulation to the snapshot's
// virtual time — bit-for-bit identical by the engine's determinism contract,
// regardless of the shard count of either run — and
// then verifies every attested field (per-domain clocks, sequence counters,
// executed counts, RNG states, live event heaps). A mismatch means the
// configuration, seed or code differs from the snapshotting run and returns
// ErrSnapshotMismatch; the simulation must not be trusted to continue.
func (e *Engine) Resume(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	cur, err := decodeSnapshot(data)
	if err != nil {
		return err
	}
	if e.co != nil {
		e.checkControl()
	}
	if e.now > cur.rootNow {
		return fmt.Errorf("%w: engine already at %v, snapshot taken at %v", ErrSnapshotMismatch, e.now, cur.rootNow)
	}
	if got := e.Domains(); got != len(cur.domains) {
		return fmt.Errorf("%w: %d domains, snapshot has %d", ErrSnapshotMismatch, got, len(cur.domains))
	}
	e.RunUntil(cur.rootNow)
	if err := e.quiescent(); err != nil {
		return err
	}
	return e.attest(cur)
}

// attest compares the engine tree's current state against a decoded cursor,
// reporting the first divergent field.
func (e *Engine) attest(cur snapshotCursor) error {
	got := e.cursor()
	if got.rootNow != cur.rootNow {
		return fmt.Errorf("%w: clock %v vs snapshot %v", ErrSnapshotMismatch, got.rootNow, cur.rootNow)
	}
	for i := range cur.domains {
		g, w := got.domains[i], cur.domains[i]
		switch {
		case g.name != w.name:
			return fmt.Errorf("%w: domain %d name %q vs snapshot %q", ErrSnapshotMismatch, i, g.name, w.name)
		case g.now != w.now:
			return fmt.Errorf("%w: domain %d (%s) clock %v vs snapshot %v", ErrSnapshotMismatch, i, g.name, g.now, w.now)
		case g.nextSeq != w.nextSeq:
			return fmt.Errorf("%w: domain %d (%s) seq %d vs snapshot %d", ErrSnapshotMismatch, i, g.name, g.nextSeq, w.nextSeq)
		case g.executed != w.executed:
			return fmt.Errorf("%w: domain %d (%s) executed %d vs snapshot %d", ErrSnapshotMismatch, i, g.name, g.executed, w.executed)
		case g.rngState != w.rngState:
			return fmt.Errorf("%w: domain %d (%s) rng state diverges", ErrSnapshotMismatch, i, g.name)
		case g.live != w.live:
			return fmt.Errorf("%w: domain %d (%s) %d live events vs snapshot %d", ErrSnapshotMismatch, i, g.name, g.live, w.live)
		case g.digest != w.digest:
			return fmt.Errorf("%w: domain %d (%s) event heap diverges", ErrSnapshotMismatch, i, g.name)
		}
	}
	return nil
}
