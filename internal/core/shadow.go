// Package core implements the paper's primary contribution: low-overhead
// fault tolerance for network-interface processor hangs (§3-§4). It
// provides
//
//   - the continuous host-side state backup ("checkpointing") of §4.1: the
//     shadow copies of the send and receive tokens in the LANai's
//     possession, the host-generated per-(port, remote-node) sequence-number
//     streams, and the receiver's per-(connection, port) ACK table;
//   - the device driver that loads the MCP and turns the watchdog's FATAL
//     interrupt into a fault-tolerance-daemon wakeup (§4.2-4.3);
//   - the fault tolerance daemon (FTD) itself, with the full recovery
//     sequence of §4.3 (magic-word verification, card reset, SRAM clear,
//     MCP reload, page-hash/route restoration, FAULT_DETECTED posting);
//   - a recovery timeline that reproduces the measurement points of
//     Figure 9 and Table 3;
//   - the naive restart baseline (driver reload without state restoration)
//     whose failures motivate the design (Figures 4 and 5).
package core

import (
	"slices"
	"sort"

	"repro/internal/gmproto"
)

// ShadowStore is one port's backup copy of the state the LANai holds on its
// behalf: "the user keeps a copy of the required LANai state that is not
// implicitly stored in the host memory" (§4.1). The gm library updates it
// on every send/receive call and consumes it in the FAULT_DETECTED handler.
type ShadowStore struct {
	port gmproto.PortID

	sendTokens map[uint64]gmproto.SendToken
	sendOrder  []uint64

	recvTokens map[uint64]gmproto.RecvToken
	recvOrder  []uint64

	// txSeq is the next host-generated sequence number per remote node and
	// priority level: "independent streams of sequence numbers for each
	// remote node on a per-port basis" (§4.1), with GM's two priority
	// levels carrying separate spaces.
	txSeq map[seqKey]uint32
}

type seqKey struct {
	node gmproto.NodeID
	prio gmproto.Priority
}

// NewShadowStore returns an empty store for a port.
func NewShadowStore(port gmproto.PortID) *ShadowStore {
	return &ShadowStore{
		port:       port,
		sendTokens: make(map[uint64]gmproto.SendToken),
		recvTokens: make(map[uint64]gmproto.RecvToken),
		txSeq:      make(map[seqKey]uint32),
	}
}

// Port returns the owning port.
func (s *ShadowStore) Port() gmproto.PortID { return s.port }

// NextSeq mints the next sequence number of the (dest, priority) stream.
func (s *ShadowStore) NextSeq(dest gmproto.NodeID, prio gmproto.Priority) uint32 {
	k := seqKey{node: dest, prio: prio}
	s.txSeq[k]++
	return s.txSeq[k]
}

// ResetPeerSeqs forgets the sequence streams toward one remote node, both
// priorities. Used when a peer expelled as unreachable is readmitted: its
// terminal send failures left gaps in the old streams, so both sides restart
// at sequence 1 (the receive side forgets via RxAckTable.Forget).
func (s *ShadowStore) ResetPeerSeqs(node gmproto.NodeID) {
	lo := seqKey{node: node, prio: gmproto.PriorityLow}
	hi := seqKey{node: node, prio: gmproto.PriorityHigh}
	delete(s.txSeq, lo)
	delete(s.txSeq, hi)
}

// AddSendToken records a token handed to the LANai; "when a call to any of
// the gm_send() functions is made, a copy of the send token is added to the
// queue" (§4.1). Re-adding an id that was removed places it at the back of
// the queue (it is a fresh token that happens to reuse the id).
func (s *ShadowStore) AddSendToken(tok gmproto.SendToken) {
	if _, dup := s.sendTokens[tok.ID]; !dup {
		if hasID(s.sendOrder, tok.ID) {
			s.sendOrder = scrubID(s.sendOrder, tok.ID)
		}
		s.sendOrder = append(s.sendOrder, tok.ID)
	}
	s.sendTokens[tok.ID] = tok
}

// hasID reports whether id occurs in order, so the common case — a fresh
// id — appends without rewriting the order slice.
func hasID(order []uint64, id uint64) bool {
	for _, v := range order {
		if v == id {
			return true
		}
	}
	return false
}

// scrubID drops stale occurrences of id left behind by a removal.
func scrubID(order []uint64, id uint64) []uint64 {
	out := order[:0]
	for _, v := range order {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}

// RemoveSendToken drops the copy "just before the callback function for
// that send token is invoked" (§4.1).
func (s *ShadowStore) RemoveSendToken(id uint64) {
	delete(s.sendTokens, id)
}

// AddRecvToken records a provided receive buffer.
func (s *ShadowStore) AddRecvToken(tok gmproto.RecvToken) {
	if _, dup := s.recvTokens[tok.ID]; !dup {
		if hasID(s.recvOrder, tok.ID) {
			s.recvOrder = scrubID(s.recvOrder, tok.ID)
		}
		s.recvOrder = append(s.recvOrder, tok.ID)
	}
	s.recvTokens[tok.ID] = tok
}

// RemoveRecvToken drops the copy when the message lands ("the receiver, at
// this time, also deletes the corresponding copy of the receive token",
// §4.1).
func (s *ShadowStore) RemoveRecvToken(id uint64) {
	delete(s.recvTokens, id)
}

// OutstandingSends returns the unacknowledged send tokens in posting order —
// "the send tokens contain the sequence numbers of the messages that have
// not been acknowledged" (§4.4). Order matters: restored messages must
// re-enter the window in sequence order.
func (s *ShadowStore) OutstandingSends() []gmproto.SendToken {
	return s.AppendOutstandingSends(make([]gmproto.SendToken, 0, len(s.sendTokens)))
}

// AppendOutstandingSends is OutstandingSends into a caller-retained buffer:
// appending onto dst (usually dst[:0] of a pooled slice) keeps periodic
// checkpoint encoding allocation-free at steady state.
func (s *ShadowStore) AppendOutstandingSends(dst []gmproto.SendToken) []gmproto.SendToken {
	live := s.sendOrder[:0]
	for _, id := range s.sendOrder {
		tok, ok := s.sendTokens[id]
		if !ok {
			continue
		}
		live = append(live, id)
		dst = append(dst, tok)
	}
	s.sendOrder = live
	return dst
}

// OutstandingRecvs returns the receive tokens the LANai still owes buffers
// for, in posting order.
func (s *ShadowStore) OutstandingRecvs() []gmproto.RecvToken {
	return s.AppendOutstandingRecvs(make([]gmproto.RecvToken, 0, len(s.recvTokens)))
}

// AppendOutstandingRecvs is OutstandingRecvs into a caller-retained buffer.
func (s *ShadowStore) AppendOutstandingRecvs(dst []gmproto.RecvToken) []gmproto.RecvToken {
	live := s.recvOrder[:0]
	for _, id := range s.recvOrder {
		tok, ok := s.recvTokens[id]
		if !ok {
			continue
		}
		live = append(live, id)
		dst = append(dst, tok)
	}
	s.recvOrder = live
	return dst
}

// Counts reports outstanding send and receive token counts.
func (s *ShadowStore) Counts() (sends, recvs int) {
	return len(s.sendTokens), len(s.recvTokens)
}

// SeqStream is one host-generated sequence stream's cursor: the last
// sequence number minted toward (Node, Prio). Exposed for endpoint
// checkpointing (internal/ckpt), which must serialize the generator state
// deterministically.
type SeqStream struct {
	Node gmproto.NodeID
	Prio gmproto.Priority
	Last uint32
}

// SeqStreams returns every sequence-stream cursor, sorted by (node,
// priority) so the enumeration is deterministic.
func (s *ShadowStore) SeqStreams() []SeqStream {
	out := make([]SeqStream, 0, len(s.txSeq))
	for k, v := range s.txSeq {
		out = append(out, SeqStream{Node: k.node, Prio: k.prio, Last: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Prio < out[j].Prio
	})
	return out
}

// AppendSeqStreams is SeqStreams into a caller-retained buffer, sorted with
// slices.SortFunc so the append-and-sort allocates nothing once dst has
// steady-state capacity.
func (s *ShadowStore) AppendSeqStreams(dst []SeqStream) []SeqStream {
	base := len(dst)
	for k, v := range s.txSeq {
		dst = append(dst, SeqStream{Node: k.node, Prio: k.prio, Last: v})
	}
	slices.SortFunc(dst[base:], func(a, b SeqStream) int {
		if a.Node != b.Node {
			return int(a.Node) - int(b.Node)
		}
		return int(a.Prio) - int(b.Prio)
	})
	return dst
}

// RestoreSeq reinstates a sequence-stream cursor from a checkpoint: the next
// NextSeq for (node, prio) returns last+1.
func (s *ShadowStore) RestoreSeq(node gmproto.NodeID, prio gmproto.Priority, last uint32) {
	k := seqKey{node: node, prio: prio}
	s.txSeq[k] = last
}

// Per-entry sizes of the backup structures, as a C implementation inside
// the GM library would declare them (§5 prices the whole process-side
// overhead at ~20 KB of virtual memory).
const (
	sendTokenBytes = 96 // buffer pointer/len, destination, priority, seq
	recvTokenBytes = 32 // buffer len, priority, id
	seqStreamBytes = 8  // per-destination next sequence number
)

// FootprintBytes reports the process virtual memory held by this port's
// backup copies: the shadow send/receive token queues and the sequence
// generators. Hash-table slack is included at 2x load factor.
func (s *ShadowStore) FootprintBytes(maxSendTokens, maxRecvTokens, maxNodes int) int {
	sends := maxSendTokens * sendTokenBytes * 2
	recvs := maxRecvTokens * recvTokenBytes * 2
	seqs := maxNodes * seqStreamBytes
	return sends + recvs + seqs
}

// RxAckTable is the node-level copy of the last sequence number received on
// each incoming stream — "an ACK number for every (connection, port) pair"
// (§4.1). The gm library updates it from the sequence number the LANai
// includes in every receive event.
type RxAckTable struct {
	last map[gmproto.StreamID]uint32

	// Dirty-epoch tracking for incremental checkpoints. epoch is 0 while
	// tracking is off; once enabled, every Update stamps the stream's mark
	// with the current epoch, and NextDirtyEpoch (called after each delta
	// emission) opens a fresh epoch without touching the marks. Forget
	// deletes entries — which a merge delta cannot express — so it latches
	// replaced, telling the next delta to carry the whole table.
	marks    map[gmproto.StreamID]uint64
	epoch    uint64
	replaced bool
}

// NewRxAckTable returns an empty table.
func NewRxAckTable() *RxAckTable {
	return &RxAckTable{last: make(map[gmproto.StreamID]uint32)}
}

// Update records a received (and host-committed) sequence number.
func (t *RxAckTable) Update(id gmproto.StreamID, seq uint32) {
	if seq > t.last[id] {
		t.last[id] = seq
		t.markDirty(id)
	}
}

// Last returns the recorded sequence number for a stream.
func (t *RxAckTable) Last(id gmproto.StreamID) uint32 { return t.last[id] }

// Snapshot copies the table for upload to a recovering LANai (§4.4).
func (t *RxAckTable) Snapshot() map[gmproto.StreamID]uint32 {
	out := make(map[gmproto.StreamID]uint32, len(t.last))
	for k, v := range t.last {
		out[k] = v
	}
	return out
}

// Forget drops every stream originating at one remote node. Used on
// readmission of an expelled peer, whose streams restart at sequence 1.
func (t *RxAckTable) Forget(node gmproto.NodeID) {
	for id := range t.last {
		if id.Node == node {
			delete(t.last, id)
		}
	}
	t.setReplaced()
}

// markDirty stamps a stream with the current epoch.
func (t *RxAckTable) markDirty(id gmproto.StreamID) {
	if t.epoch != 0 {
		t.marks[id] = t.epoch
	}
}

// setReplaced latches the replace-all flag for the current epoch.
func (t *RxAckTable) setReplaced() {
	if t.epoch != 0 {
		t.replaced = true
	}
}

// Len reports how many streams are tracked.
func (t *RxAckTable) Len() int { return len(t.last) }

// StartDirtyTracking opens the first dirty epoch. The caller is expected to
// take a full base checkpoint at the same instant, so no pre-existing entry
// needs marking. Idempotent restart after StopDirtyTracking opens a fresh
// epoch (stale marks from the previous run compare unequal and read clean).
func (t *RxAckTable) StartDirtyTracking() {
	if t.marks == nil {
		t.marks = make(map[gmproto.StreamID]uint64, len(t.last)+16)
	}
	t.epoch++
	t.replaced = false
}

// StopDirtyTracking turns tracking off; marks are retained (stale) so a
// later restart is cheap.
func (t *RxAckTable) StopDirtyTracking() {
	if t.epoch == 0 {
		return
	}
	t.epoch = 0
	t.replaced = false
}

// NextDirtyEpoch closes the current epoch after a delta emission: entries
// marked so far read clean until their next Update.
func (t *RxAckTable) NextDirtyEpoch() {
	if t.epoch == 0 {
		return
	}
	t.epoch++
	t.replaced = false
}

// Replaced reports whether the table saw a deletion this epoch, forcing the
// next delta to carry the whole table instead of a merge.
func (t *RxAckTable) Replaced() bool { return t.replaced }

// DirtyLen reports how many live streams are marked in the current epoch.
func (t *RxAckTable) DirtyLen() int {
	n := 0
	for id, m := range t.marks {
		if m == t.epoch {
			if _, ok := t.last[id]; ok {
				n++
			}
		}
	}
	return n
}

// AppendDirtyStreams appends the streams dirtied in the current epoch,
// sorted by (node, port, priority). Marks whose entry has since been
// deleted (by a Forget, which forces a full replace anyway) are skipped.
func (t *RxAckTable) AppendDirtyStreams(dst []gmproto.StreamID) []gmproto.StreamID {
	base := len(dst)
	for id, m := range t.marks {
		if m == t.epoch {
			if _, ok := t.last[id]; ok {
				dst = append(dst, id)
			}
		}
	}
	sortStreamIDs(dst[base:])
	return dst
}

// AppendAllStreams appends every tracked stream, sorted — the replace-all
// companion of AppendDirtyStreams.
func (t *RxAckTable) AppendAllStreams(dst []gmproto.StreamID) []gmproto.StreamID {
	base := len(dst)
	for id := range t.last {
		dst = append(dst, id)
	}
	sortStreamIDs(dst[base:])
	return dst
}

func sortStreamIDs(ids []gmproto.StreamID) {
	slices.SortFunc(ids, func(a, b gmproto.StreamID) int {
		if a.Node != b.Node {
			return int(a.Node) - int(b.Node)
		}
		if a.Port != b.Port {
			return int(a.Port) - int(b.Port)
		}
		return int(a.Prio) - int(b.Prio)
	})
}
