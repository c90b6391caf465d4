package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// --- Snapshot/resume harness -------------------------------------------
//
// Reuses the toy ring (shard_test.go). The snapshot contract under test: a
// run snapshotted at T1 and resumed on a fresh ring is byte-for-byte
// identical at T2 to a run that never stopped, for any (snapshot shard
// count) x (resume shard count) pairing.

const (
	toySnapAt  = Time(150 * Microsecond)
	toySnapEnd = Time(300 * Microsecond)
)

// TestSnapshotResumeBitForBit is the acceptance contract: snapshot at T1 on
// one shard count, resume on another, run both to T2 — the resumed
// fingerprint must be byte-identical to the uninterrupted one.
func TestSnapshotResumeBitForBit(t *testing.T) {
	// The reference never stops: one uninterrupted run to T2.
	ref := buildToyRing(12, 1, 0, toySnapEnd)
	ref.root.RunUntil(toySnapEnd)
	want := ref.fingerprint()
	if want == "" {
		t.Fatal("empty reference fingerprint")
	}

	for _, snapShards := range []int{1, 4, 8} {
		src := buildToyRing(12, snapShards, 0, toySnapEnd)
		src.root.RunUntil(toySnapAt)
		var snap bytes.Buffer
		if err := src.root.Snapshot(&snap); err != nil {
			t.Fatalf("snapshot at shards=%d: %v", snapShards, err)
		}
		for _, resShards := range []int{1, 4, 8} {
			dst := buildToyRing(12, resShards, 0, toySnapEnd)
			if err := dst.root.Resume(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatalf("resume shards=%d from snapshot shards=%d: %v", resShards, snapShards, err)
			}
			if dst.root.Now() != toySnapAt {
				t.Fatalf("resume landed at %v, want %v", dst.root.Now(), toySnapAt)
			}
			dst.root.RunUntil(toySnapEnd)
			got := dst.fingerprint()
			if got != want {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("snap@shards=%d resume@shards=%d diverges at byte %d:\n  want ...%.120s\n  got  ...%.120s",
					snapShards, resShards, i, want[i:], got[i:])
			}
		}
	}
}

// TestSnapshotDeterministic: two runs reaching the same virtual time must
// produce byte-identical snapshots regardless of shard count.
func TestSnapshotDeterministic(t *testing.T) {
	var bufs [][]byte
	for _, shards := range []int{1, 4, 8} {
		r := buildToyRing(12, shards, 0, toySnapEnd)
		r.root.RunUntil(toySnapAt)
		var b bytes.Buffer
		if err := r.root.Snapshot(&b); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		bufs = append(bufs, b.Bytes())
	}
	for i := 1; i < len(bufs); i++ {
		if !bytes.Equal(bufs[0], bufs[i]) {
			t.Fatalf("snapshot bytes differ between shard counts (len %d vs %d)", len(bufs[0]), len(bufs[i]))
		}
	}
}

// TestSnapshotLegacyEngine: a plain undomained engine snapshots and resumes
// through the same API.
func TestSnapshotLegacyEngine(t *testing.T) {
	build := func() (*Engine, *int) {
		e := NewEngine(7)
		n := new(int)
		var tick func()
		tick = func() {
			*n++
			e.RNG().Uint64()
			e.After(10*Microsecond, tick)
		}
		e.After(Microsecond, tick)
		return e, n
	}
	e1, n1 := build()
	e1.RunUntil(Millisecond)
	var snap bytes.Buffer
	if err := e1.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	e1.RunUntil(2 * Millisecond)

	e2, n2 := build()
	if err := e2.Resume(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	e2.RunUntil(2 * Millisecond)
	if *n1 != *n2 || e1.Executed() != e2.Executed() || e1.RNG().State() != e2.RNG().State() {
		t.Fatalf("resumed legacy run diverged: n=%d/%d exec=%d/%d", *n1, *n2, e1.Executed(), e2.Executed())
	}
}

// TestSnapshotNotQuiescent: snapshotting from inside a run must refuse.
func TestSnapshotNotQuiescent(t *testing.T) {
	r := buildToyRing(4, 1, 0, toySnapEnd)
	var got error
	r.root.At(50*Microsecond, func() {
		got = r.root.Snapshot(&bytes.Buffer{})
	})
	r.root.RunUntil(60 * Microsecond)
	if !errors.Is(got, ErrNotQuiescent) {
		t.Fatalf("mid-run Snapshot = %v, want ErrNotQuiescent", got)
	}
}

// TestResumeMismatch: resuming onto a simulation built from a different
// seed must fail the attestation with ErrSnapshotMismatch, and resuming
// onto one with a different domain count must fail before replaying.
func TestResumeMismatch(t *testing.T) {
	src := buildToyRing(6, 1, 0, toySnapEnd)
	src.root.RunUntil(toySnapAt)
	var snap bytes.Buffer
	if err := src.root.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	wrongSeed := buildToyRing(6, 1, 0, toySnapEnd)
	wrongSeed.root.rng = NewRNG(999) // perturb the root stream only
	if err := wrongSeed.root.Resume(bytes.NewReader(snap.Bytes())); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("wrong-seed Resume = %v, want ErrSnapshotMismatch", err)
	}

	wrongShape := buildToyRing(7, 1, 0, toySnapEnd)
	if err := wrongShape.root.Resume(bytes.NewReader(snap.Bytes())); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("wrong-shape Resume = %v, want ErrSnapshotMismatch", err)
	}

	past := buildToyRing(6, 1, 0, toySnapEnd)
	past.root.RunUntil(toySnapAt + Microsecond)
	if err := past.root.Resume(bytes.NewReader(snap.Bytes())); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("past-deadline Resume = %v, want ErrSnapshotMismatch", err)
	}
}

// TestSnapshotDecodeRejects: hostile bytes must come back as typed errors,
// never panics.
func TestSnapshotDecodeRejects(t *testing.T) {
	src := buildToyRing(4, 1, 0, toySnapEnd)
	src.root.RunUntil(toySnapAt)
	var snap bytes.Buffer
	if err := src.root.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	good := snap.Bytes()

	// seal appends a valid CRC so inner corruption reaches the structural
	// checks instead of tripping the checksum; reseal re-checksums an
	// already-sealed stream after mutation.
	seal := func(body []byte) []byte {
		return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
	}
	reseal := func(b []byte) []byte { return seal(b[:len(b)-4]) }

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrSnapshotTruncated},
		{"short", good[:8], ErrSnapshotTruncated},
		{"bitflip", func() []byte {
			b := append([]byte(nil), good...)
			b[10] ^= 0x40
			return b
		}(), ErrSnapshotCorrupt},
		{"truncated-resealed", reseal(good[:len(good)-20]), ErrSnapshotTruncated},
		{"bad-magic", func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b[0:4], 0xdeadbeef)
			return reseal(b)
		}(), ErrSnapshotCorrupt},
		{"bad-version", func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint16(b[4:6], 99)
			return reseal(b)
		}(), ErrSnapshotVersion},
		// A version-1 stream carried four run-ahead outcome counters after
		// the root clock; a well-formed one must be refused by version, not
		// misparsed as a v2 layout.
		{"v1-layout", func() []byte {
			b := append([]byte(nil), good[:16]...)
			binary.LittleEndian.PutUint16(b[4:6], 1)
			b = append(b, make([]byte, 4*8)...)
			b = append(b, good[16:len(good)-4]...)
			return seal(b)
		}(), ErrSnapshotVersion},
		{"domain-count-overflow", func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b[16:20], 1<<30)
			return reseal(b)
		}(), ErrSnapshotTruncated},
		{"trailing-garbage", seal(append(append([]byte(nil), good[:len(good)-4]...), 1, 2, 3)), ErrSnapshotCorrupt},
	}
	for _, tc := range cases {
		_, err := decodeSnapshot(tc.data)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: decode = %v, want %v", tc.name, err, tc.want)
		}
	}
}
