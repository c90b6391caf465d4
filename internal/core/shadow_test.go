package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gmproto"
)

// tokenModel is the reference behaviour of one shadow token queue: the
// outstanding ids in posting order and the value last stored under each.
type tokenModel struct {
	order []uint64
	val   map[uint64]uint32
}

func newTokenModel() *tokenModel { return &tokenModel{val: make(map[uint64]uint32)} }

func (m *tokenModel) add(id uint64, v uint32) {
	if _, ok := m.val[id]; !ok {
		m.order = append(m.order, id)
	}
	m.val[id] = v
}

func (m *tokenModel) remove(id uint64) {
	if _, ok := m.val[id]; ok {
		delete(m.val, id)
		m.order = slices.DeleteFunc(m.order, func(x uint64) bool { return x == id })
	}
}

// matches reports whether the (id, value) pairs equal the model in order.
func (m *tokenModel) matches(ids []uint64, vals []uint32) bool {
	if len(ids) != len(m.order) {
		return false
	}
	for i, id := range m.order {
		if ids[i] != id || vals[i] != m.val[id] {
			return false
		}
	}
	return true
}

func sendPairs(s *ShadowStore) ([]uint64, []uint32) {
	var ids []uint64
	var vals []uint32
	for _, t := range s.OutstandingSends() {
		ids = append(ids, t.ID)
		vals = append(vals, t.Seq)
	}
	return ids, vals
}

func recvPairs(s *ShadowStore) ([]uint64, []uint32) {
	var ids []uint64
	var vals []uint32
	for _, t := range s.OutstandingRecvs() {
		ids = append(ids, t.ID)
		vals = append(vals, t.Size)
	}
	return ids, vals
}

// Property: the receive side keeps posting order under any interleaving of
// adds and removes; a re-added id goes to the back and a duplicate add
// overwrites in place.
func TestPropertyShadowStoreRecvModel(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewShadowStore(1)
		model := newTokenModel()
		for _, op := range ops {
			id := uint64(op%32) + 1
			if op&0x8000 == 0 {
				model.add(id, uint32(op))
				s.AddRecvToken(gmproto.RecvToken{ID: id, Size: uint32(op)})
			} else {
				model.remove(id)
				s.RemoveRecvToken(id)
			}
		}
		return model.matches(recvPairs(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestShadowStoreBoundedChurn runs a long-lived port's token traffic — at
// most 64 outstanding, completions out of order, removed ids now and then
// re-added — and checks that the queues stay bounded by the live count,
// keep the model's order, and allocate nothing once warm.
func TestShadowStoreBoundedChurn(t *testing.T) {
	const (
		cycles   = 100_000
		maxLive  = 64
		checkGap = 997
	)
	s := NewShadowStore(1)
	sends, recvs := newTokenModel(), newTokenModel()
	rng := rand.New(rand.NewSource(1))
	var nextID uint64
	var removed []uint64 // recently removed ids, candidates for a re-add

	bounded := func(q string, order []uint64, live int) {
		t.Helper()
		if len(order) > 2*live+compactSlack {
			t.Fatalf("%s order holds %d slots for %d live tokens", q, len(order), live)
		}
	}
	for c := 0; c < cycles; c++ {
		// Add: mostly fresh ids, sometimes a removed id, sometimes an
		// overwrite of an outstanding one.
		var id uint64
		switch r := rng.Intn(16); {
		case r == 0 && len(removed) > 0:
			id = removed[rng.Intn(len(removed))]
		case r == 1 && len(sends.order) > 0:
			id = sends.order[rng.Intn(len(sends.order))]
		default:
			nextID++
			id = nextID
		}
		v := uint32(c)
		sends.add(id, v)
		s.AddSendToken(gmproto.SendToken{ID: id, Seq: v})
		recvs.add(id, v)
		s.AddRecvToken(gmproto.RecvToken{ID: id, Size: v})
		bounded("send", s.sends.order, len(sends.val))
		bounded("recv", s.recvs.order, len(recvs.val))

		// Remove: a random outstanding token, more than one while over
		// the cap, so the live count wanders between 0 and maxLive.
		for len(sends.order) > 0 && (len(sends.order) > maxLive || rng.Intn(2) == 0) {
			id := sends.order[rng.Intn(len(sends.order))]
			sends.remove(id)
			s.RemoveSendToken(id)
			recvs.remove(id)
			s.RemoveRecvToken(id)
			bounded("send", s.sends.order, len(sends.val))
			bounded("recv", s.recvs.order, len(recvs.val))
			if len(removed) < 8 {
				removed = append(removed, id)
			} else {
				removed[rng.Intn(len(removed))] = id
			}
		}
		if c%checkGap == 0 || c == cycles-1 {
			if !sends.matches(sendPairs(s)) {
				t.Fatalf("cycle %d: sends diverge from model", c)
			}
			if !recvs.matches(recvPairs(s)) {
				t.Fatalf("cycle %d: recvs diverge from model", c)
			}
		}
	}
	if n, m := s.Counts(); n != len(sends.val) || m != len(recvs.val) {
		t.Fatalf("Counts = %d, %d; model %d, %d", n, m, len(sends.val), len(recvs.val))
	}

	allocs := testing.AllocsPerRun(1000, func() {
		nextID++
		s.AddSendToken(gmproto.SendToken{ID: nextID})
		s.RemoveSendToken(nextID)
		s.AddRecvToken(gmproto.RecvToken{ID: nextID})
		s.RemoveRecvToken(nextID)
	})
	if allocs != 0 {
		t.Errorf("warm Add+Remove allocates %.1f times", allocs)
	}
}

// BenchmarkShadowStoreChurn times one port's token round trip — a send
// and a receive token added, the oldest of 64 outstanding of each removed —
// on ports that have already cycled 1k and 100k tokens. ns/op should not
// depend on the age.
func BenchmarkShadowStoreChurn(b *testing.B) {
	const window = 64
	for _, age := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("age=%dk", age/1000), func(b *testing.B) {
			s := NewShadowStore(1)
			var id uint64
			step := func() {
				id++
				s.AddSendToken(gmproto.SendToken{ID: id})
				s.AddRecvToken(gmproto.RecvToken{ID: id})
				if id > window {
					s.RemoveSendToken(id - window)
					s.RemoveRecvToken(id - window)
				}
			}
			for i := 0; i < age; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
