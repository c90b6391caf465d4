package fabric

import (
	"sync"
	"testing"
)

// TestPoolCounters checks the leak accounting: every checkout is matched by
// exactly one release and Live returns to its starting value.
func TestPoolCounters(t *testing.T) {
	before := PoolStats()
	pkts := make([]*Packet, 64)
	for i := range pkts {
		pkts[i] = GetPacket()
	}
	mid := PoolStats()
	if got := mid.Live - before.Live; got != 64 {
		t.Fatalf("live after 64 checkouts: got %d, want 64", got)
	}
	if got := mid.Checkouts - before.Checkouts; got != 64 {
		t.Fatalf("checkouts: got %d, want 64", got)
	}
	for _, p := range pkts {
		p.Release()
	}
	after := PoolStats()
	if after.Live != before.Live {
		t.Fatalf("live after release: got %d, want %d", after.Live, before.Live)
	}
	if got := after.Releases - mid.Releases; got != 64 {
		t.Fatalf("releases: got %d, want 64", got)
	}
}

// TestReleaseLiteralNoop checks that drop points can release packets built
// as plain literals without effect.
func TestReleaseLiteralNoop(t *testing.T) {
	before := PoolStats()
	p := &Packet{Payload: []byte{1, 2, 3}}
	p.Release()
	p.Release() // must not panic either
	if after := PoolStats(); after.Releases != before.Releases {
		t.Fatalf("literal release bumped pool counters: %+v -> %+v", before, after)
	}
	if len(p.Payload) != 3 {
		t.Fatalf("literal release wiped payload")
	}
}

// TestDoubleReleasePanics checks the two-owners guard.
func TestDoubleReleasePanics(t *testing.T) {
	p := GetPacket()
	p.Release()
	defer func() {
		if recover() == nil {
			t.Fatalf("double release of a pooled packet did not panic")
		}
	}()
	p.Release()
}

// TestReleaseClearsState checks a released-then-reacquired packet carries
// nothing over (a stale CRC verdict would let corrupt payloads through).
func TestReleaseClearsState(t *testing.T) {
	p := GetPacket()
	p.CopyRoute([]byte{1, 2, 3})
	copy(p.Buf(8), []byte("deadbeef"))
	p.SealCRC()
	p.ID = 42
	p.SrcLabel = "x"
	p.Release()

	q := GetPacket() // likely the same object back from the pool
	defer q.Release()
	if q.Route != nil || q.Payload != nil || q.CRC != 0 || q.ID != 0 || q.SrcLabel != "" {
		t.Fatalf("reacquired packet carries state: %+v", q)
	}
	if q.crcValid {
		t.Fatalf("reacquired packet has a cached CRC verdict")
	}
}

// TestBufGrowsAndInvalidates checks Buf beyond the born capacity and that
// resizing clears the CRC cache.
func TestBufGrowsAndInvalidates(t *testing.T) {
	p := GetPacket()
	defer p.Release()
	copy(p.Buf(4), []byte("abcd"))
	p.SealCRC()
	if !p.CRCOk() {
		t.Fatalf("sealed packet fails CRCOk")
	}
	big := pooledPayloadCap * 2
	buf := p.Buf(big)
	if len(buf) != big {
		t.Fatalf("Buf(%d) returned len %d", big, len(buf))
	}
	if p.crcValid {
		t.Fatalf("Buf did not invalidate the CRC cache")
	}
}

// TestCRCCacheSemantics checks the seal-once/verify-once state machine.
func TestCRCCacheSemantics(t *testing.T) {
	p := GetPacket()
	defer p.Release()
	copy(p.Buf(16), []byte("0123456789abcdef"))
	p.SealCRC()
	if !p.CRCOk() {
		t.Fatalf("sealed: CRCOk false")
	}
	// Mutating Payload outside the packet's own mutators leaves the cached
	// verdict in place until InvalidateCRC.
	p.Payload[0] ^= 0xff
	if !p.CRCOk() {
		t.Fatalf("cached verdict should still answer true before InvalidateCRC")
	}
	p.InvalidateCRC()
	if p.CRCOk() {
		t.Fatalf("damaged payload passes CRCOk after InvalidateCRC")
	}
	// CorruptPayload clears the cache itself.
	p.Payload[0] ^= 0xff
	p.SealCRC()
	p.CorruptPayload(3, false)
	if p.CRCOk() {
		t.Fatalf("CorruptPayload(reseal=false) still passes CRCOk")
	}
	// ...and reseal models pre-checksum corruption that slips through.
	p.CorruptPayload(9, true)
	if !p.CRCOk() {
		t.Fatalf("CorruptPayload(reseal=true) should pass CRCOk")
	}
}

// TestCloneThroughPool checks Clone deep-copies and is independently owned.
func TestCloneThroughPool(t *testing.T) {
	orig := &Packet{Route: []byte{7, 7}, Payload: []byte("payload")}
	orig.SealCRC()
	cp := orig.Clone()
	if !cp.pooled || !cp.live {
		t.Fatalf("clone is not a live pooled packet")
	}
	if string(cp.Payload) != "payload" || len(cp.Route) != 2 || cp.Route[0] != 7 {
		t.Fatalf("clone content mismatch: %+v", cp)
	}
	if !cp.CRCOk() {
		t.Fatalf("clone lost the CRC verdict")
	}
	// Deep copy: mutating the clone must not touch the original.
	cp.Payload[0] = 'X'
	cp.Route[0] = 9
	if orig.Payload[0] != 'p' || orig.Route[0] != 7 {
		t.Fatalf("clone aliases the original's buffers")
	}
	cp.Release()
	if !orig.CRCOk() {
		t.Fatalf("original damaged by clone release")
	}
}

// TestCopyRouteInline checks short routes land in the inline buffer and long
// ones are still copied correctly.
func TestCopyRouteInline(t *testing.T) {
	p := GetPacket()
	defer p.Release()
	src := []byte{1, 2, 3}
	p.CopyRoute(src)
	src[0] = 99 // must not alias
	if p.Route[0] != 1 || len(p.Route) != 3 {
		t.Fatalf("CopyRoute aliases or mis-copies: %v", p.Route)
	}
	long := make([]byte, 32)
	for i := range long {
		long[i] = byte(i)
	}
	p.CopyRoute(long)
	if len(p.Route) != 32 || p.Route[31] != 31 {
		t.Fatalf("long route mis-copied: %v", p.Route)
	}
}

// TestPoolConcurrentStress exercises checkout/release from many goroutines;
// under `go test -race` this checks the arena's synchronization.
func TestPoolConcurrentStress(t *testing.T) {
	before := PoolStats()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p := GetPacket()
				copy(p.Buf(64), []byte("stress"))
				p.SealCRC()
				if !p.CRCOk() {
					t.Errorf("goroutine %d: CRCOk false after seal", g)
				}
				p.Release()
			}
		}(g)
	}
	wg.Wait()
	after := PoolStats()
	if after.Live != before.Live {
		t.Fatalf("stress leaked packets: live %d -> %d", before.Live, after.Live)
	}
}
