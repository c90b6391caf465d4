package chaos

import (
	"fmt"
	"sort"

	"repro/gm"
)

// StreamKey names one audited delivery stream: the (connection, port) pair
// of the paper's §4.1 sequence spaces, as seen end to end.
type StreamKey struct {
	Src     gm.NodeID
	SrcPort gm.PortID
	Dst     gm.NodeID
	DstPort gm.PortID
}

func (k StreamKey) String() string {
	return fmt.Sprintf("%d:%d->%d:%d", k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// payloadMagic brands audited messages so a damaged or foreign payload is
// recognized instead of silently miscounted.
const payloadMagic = 0x4654_4743 // "FTGC"

// MinMsgBytes is the smallest message an audited pump may send: the audit
// header (magic, stream tag, per-stream index, checksum) needs 20 bytes.
const MinMsgBytes = 20

func auditChecksum(k StreamKey, idx uint32) uint32 {
	return payloadMagic ^ idx ^
		(uint32(k.Src)<<16 | uint32(k.Dst)) ^
		(uint32(k.SrcPort)<<8 | uint32(k.DstPort)) ^ 0xA5A5A5A5
}

// encodeAudit stamps the audit header into buf (len(buf) >= MinMsgBytes).
func encodeAudit(buf []byte, k StreamKey, idx uint32) {
	put32 := func(off int, v uint32) {
		buf[off] = byte(v)
		buf[off+1] = byte(v >> 8)
		buf[off+2] = byte(v >> 16)
		buf[off+3] = byte(v >> 24)
	}
	put32(0, payloadMagic)
	buf[4] = byte(k.Src)
	buf[5] = byte(k.Src >> 8)
	buf[6] = byte(k.Dst)
	buf[7] = byte(k.Dst >> 8)
	buf[8] = byte(k.SrcPort)
	buf[9] = byte(k.DstPort)
	buf[10] = 0
	buf[11] = 0
	put32(12, idx)
	put32(16, auditChecksum(k, idx))
}

// decodeAudit recovers the stream key and index, reporting ok=false when
// the header is short, unbranded, or fails its checksum.
func decodeAudit(data []byte) (k StreamKey, idx uint32, ok bool) {
	if len(data) < MinMsgBytes {
		return k, 0, false
	}
	get32 := func(off int) uint32 {
		return uint32(data[off]) | uint32(data[off+1])<<8 |
			uint32(data[off+2])<<16 | uint32(data[off+3])<<24
	}
	if get32(0) != payloadMagic {
		return k, 0, false
	}
	k = StreamKey{
		Src:     gm.NodeID(uint16(data[4]) | uint16(data[5])<<8),
		Dst:     gm.NodeID(uint16(data[6]) | uint16(data[7])<<8),
		SrcPort: gm.PortID(data[8]),
		DstPort: gm.PortID(data[9]),
	}
	idx = get32(12)
	if get32(16) != auditChecksum(k, idx) {
		return k, 0, false
	}
	return k, idx, true
}

// streamAudit is one stream's bookkeeping.
type streamAudit struct {
	sent    uint32
	lastIdx uint32
	seen    map[uint32]bool
	failed  map[uint32]bool
	unique  uint64
	dups    uint64
	ooo     uint64
}

// failedUndelivered counts messages whose send failed terminally and which
// never arrived: excused from loss accounting (at-most-once is the contract
// once the library reports failure). A failed-but-delivered message — a
// failover race can deliver what the callback disowned — simply counts as
// delivered.
func (s *streamAudit) failedUndelivered() uint64 {
	n := uint64(0)
	for idx := range s.failed {
		if !s.seen[idx] {
			n++
		}
	}
	return n
}

// AuditReport aggregates delivery accounting over every stream of a trial
// or campaign. A clean FTGM run has Delivered == Sent and every defect
// counter at zero.
type AuditReport struct {
	Streams    int    `json:"streams"`
	Sent       uint64 `json:"sent"`
	Delivered  uint64 `json:"delivered"` // delivery events, duplicates included
	Unique     uint64 `json:"unique"`    // distinct message indices delivered
	Duplicates uint64 `json:"duplicates"`
	OutOfOrder uint64 `json:"out_of_order"`
	Lost       uint64 `json:"lost"`    // sent but never delivered (and not excused by Failed)
	Failed     uint64 `json:"failed"`  // sends that completed with a terminal error status
	Excused    uint64 `json:"excused"` // undelivered sends of an ExcuseSource'd (dead) sender
	Corrupt    uint64 `json:"corrupt"` // unbranded/damaged payloads or sender identity mismatch
	// ExactlyOnceInOrder is the tentpole assertion: every sent message
	// delivered exactly once, in per-stream order, undamaged.
	ExactlyOnceInOrder bool `json:"exactly_once_in_order"`
	// Dirty lists the defective streams ("src:port->dst:port defect=n"),
	// sorted, for diagnosis.
	Dirty []string `json:"dirty,omitempty"`
}

func (r AuditReport) String() string {
	return fmt.Sprintf("streams=%d sent=%d delivered=%d dups=%d ooo=%d lost=%d failed=%d excused=%d corrupt=%d exactly-once=%v",
		r.Streams, r.Sent, r.Delivered, r.Duplicates, r.OutOfOrder, r.Lost, r.Failed, r.Excused, r.Corrupt,
		r.ExactlyOnceInOrder)
}

// merge folds another report's counters into r (ExactlyOnceInOrder is
// re-derived by the caller).
func (r *AuditReport) merge(o AuditReport) {
	r.Streams += o.Streams
	r.Sent += o.Sent
	r.Delivered += o.Delivered
	r.Unique += o.Unique
	r.Duplicates += o.Duplicates
	r.OutOfOrder += o.OutOfOrder
	r.Lost += o.Lost
	r.Failed += o.Failed
	r.Excused += o.Excused
	r.Corrupt += o.Corrupt
	r.Dirty = append(r.Dirty, o.Dirty...)
}

// Auditor records every audited send and delivery of one trial and judges
// exactly-once in-order delivery at the end. All methods run inside
// simulation callbacks (single-threaded virtual time).
type Auditor struct {
	streams map[StreamKey]*streamAudit
	corrupt uint64
	// excusedSrcs holds senders declared permanently dead mid-trial: their
	// undelivered sends are excused (counted, not judged) — a dead sender
	// has no delivery contract left, and nothing will ever drain its
	// streams. Duplicates and reordering of what did arrive still count.
	excusedSrcs map[gm.NodeID]bool
}

// NewAuditor returns an empty auditor.
func NewAuditor() *Auditor {
	return &Auditor{
		streams:     make(map[StreamKey]*streamAudit),
		excusedSrcs: make(map[gm.NodeID]bool),
	}
}

// ExcuseSource declares src permanently dead: every undelivered send of its
// streams is excused from loss accounting and the drain loop stops waiting
// for them. Call at the instant of an unrecoverable kill (hard hang with
// the chip timers dead), never for a fault the scheme is expected to heal.
func (a *Auditor) ExcuseSource(src gm.NodeID) { a.excusedSrcs[src] = true }

func (a *Auditor) stream(k StreamKey) *streamAudit {
	s := a.streams[k]
	if s == nil {
		s = &streamAudit{seen: make(map[uint32]bool)}
		a.streams[k] = s
	}
	return s
}

// NewMessage allocates and stamps the next audited message of stream k:
// the send is recorded and the payload returned ready to pass to Send.
// Call Unsend if the send is subsequently refused.
func (a *Auditor) NewMessage(k StreamKey, size int) []byte {
	if size < MinMsgBytes {
		size = MinMsgBytes
	}
	s := a.stream(k)
	s.sent++
	buf := make([]byte, size)
	encodeAudit(buf, k, s.sent)
	return buf
}

// Unsend rolls back the most recent NewMessage of stream k (the send was
// refused and the message never entered the system).
func (a *Auditor) Unsend(k StreamKey) { a.stream(k).sent-- }

// RecordSendFailure accounts a terminal send failure the library reported
// through the message's callback (e.g. SendErrorUnreachable after the
// network watchdog expelled the destination). The message is excused from
// loss accounting unless it was in fact delivered.
func (a *Auditor) RecordSendFailure(data []byte) {
	k, idx, ok := decodeAudit(data)
	if !ok {
		return
	}
	s := a.stream(k)
	if s.failed == nil {
		s.failed = make(map[uint32]bool)
	}
	s.failed[idx] = true
}

// RecordDelivery accounts one delivery at the receiver. The receiver
// passes its own identity; a payload whose embedded stream disagrees with
// the wire's source, or whose checksum fails, counts as corrupt.
func (a *Auditor) RecordDelivery(self gm.NodeID, selfPort gm.PortID, ev gm.RecvEvent) {
	k, idx, ok := decodeAudit(ev.Data)
	if !ok || k.Src != ev.Src || k.SrcPort != ev.SrcPort || k.Dst != self || k.DstPort != selfPort {
		a.corrupt++
		return
	}
	s := a.stream(k)
	s.unique++ // provisional; demoted below for duplicates
	switch {
	case idx > s.sent:
		// An index this stream never issued: damaged in a way the
		// checksum happened to survive, or bookkeeping gone wrong.
		s.unique--
		a.corrupt++
		return
	case s.seen[idx]:
		s.unique--
		s.dups++
	case idx < s.lastIdx:
		s.seen[idx] = true
		s.ooo++
	default:
		s.seen[idx] = true
		s.lastIdx = idx
	}
}

// Complete reports whether every recorded send has been delivered at least
// once or excused by a terminal failure (the settle loop's drain condition).
func (a *Auditor) Complete() bool {
	any := false
	for k, s := range a.streams {
		any = true
		if a.excusedSrcs[k.Src] {
			continue
		}
		if s.unique+s.failedUndelivered() < uint64(s.sent) {
			return false
		}
	}
	return any
}

// Report closes the books: per-stream counters are aggregated and the
// exactly-once in-order verdict rendered.
func (a *Auditor) Report() AuditReport {
	r := AuditReport{Corrupt: a.corrupt}
	for k, s := range a.streams {
		r.Streams++
		r.Sent += uint64(s.sent)
		r.Delivered += s.unique + s.dups
		r.Unique += s.unique
		r.Duplicates += s.dups
		r.OutOfOrder += s.ooo
		r.Failed += uint64(len(s.failed))
		lost := uint64(0)
		if u := uint64(s.sent); s.unique+s.failedUndelivered() < u {
			lost = u - s.unique - s.failedUndelivered()
			if a.excusedSrcs[k.Src] {
				r.Excused += lost
				lost = 0
			} else {
				r.Lost += lost
			}
		}
		if lost > 0 || s.dups > 0 || s.ooo > 0 {
			var missing []uint32
			for idx := uint32(1); idx <= s.sent && len(missing) < 32; idx++ {
				if !s.seen[idx] && !s.failed[idx] {
					missing = append(missing, idx)
				}
			}
			r.Dirty = append(r.Dirty,
				fmt.Sprintf("%v sent=%d lost=%d dups=%d ooo=%d missing=%v", k, s.sent, lost, s.dups, s.ooo, missing))
		}
	}
	sort.Strings(r.Dirty)
	r.ExactlyOnceInOrder = r.Sent > 0 && r.Duplicates == 0 && r.OutOfOrder == 0 &&
		r.Lost == 0 && r.Corrupt == 0
	return r
}
