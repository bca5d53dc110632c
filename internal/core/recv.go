package core

import (
	"slices"
	"time"

	"github.com/cercs/iqrudp/internal/attr"
	"github.com/cercs/iqrudp/internal/guard"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/trace"
)

// handleData processes an incoming DATA packet: buffer or deliver in order,
// then acknowledge — at once, or, for in-order data that leaves no hole
// inside a receive run, at the run's end (see BeginRun). The packet is
// borrowed from the caller for the duration
// of the call only (see HandlePacket); anything the machine must keep — an
// out-of-order packet, a fragment payload — is copied.
//
//iqlint:borrow
func (m *Machine) handleData(p *packet.Packet) {
	switch m.state {
	case stSynRcvd:
		// Data from the initiator completes the handshake, under the same
		// return-routability rule as handleAck: the piggybacked ack must
		// cover our SYNACK's ISN, which a blind spoofer cannot know once
		// the driver picks a random one. Data without an ack block proves
		// nothing and is dropped; the initiator keeps the block on its data
		// until it has heard an ack of it (see attachAck).
		if !p.HasAck() || p.Ack != m.sndUna {
			return
		}
		m.establish()
	case stEstablished, stFinWait:
	default:
		return
	}
	if p.HasFwd() {
		m.applyFwd(p.Fwd)
	}

	reason := ""
	switch {
	case packet.SeqLT(p.Seq, m.rcvNxt):
		// Duplicate of already-delivered data: re-ack so the sender advances.
		reason = trace.ReasonDup
	case p.Seq == m.rcvNxt:
		m.acceptInOrder(p)
		m.drainOOO()
	default:
		// Out of order: buffer within the advertised window. The buffered
		// copy comes from the packet freelist; drainOOO/applyFwd return it.
		reason = trace.ReasonOOO
		if len(m.ooo) < int(m.cfg.RecvWindow) {
			if _, dup := m.ooo[p.Seq]; !dup {
				if m.ooo == nil {
					m.ooo = make(map[uint32]*packet.Packet)
				}
				m.ooo[p.Seq] = clonePacket(p)
				m.memAdd(guard.ClassOOO, len(p.Payload))
			}
		}
	}
	if m.tr != nil {
		m.tr.Trace(trace.Event{
			Time: m.now, Type: trace.PacketReceived, ConnID: m.connID,
			Seq: p.Seq, MsgID: p.MsgID, Size: len(p.Payload),
			Marked: p.Marked(), Reason: reason,
		})
	}
	if m.inRun && reason == "" && len(m.ooo) == 0 {
		m.oweAck(p.TS)
	} else {
		m.sendAckEcho(p.TS, true)
	}
	// Every arrival — fresh, duplicate or out-of-order — feeds the repair
	// decoder after normal processing; reconstructions it unlocks re-enter
	// HandlePacket from the hook (and land back here, including in this
	// hook, where the drain guard flattens the recursion).
	if m.fecDec != nil {
		m.fecOnData(p)
	}
}

// clonePacket deep-copies a borrowed packet into a pooled one for the
// out-of-order buffer, reusing the pooled packet's payload and eack storage.
// The attribute list is shared, not copied: decode builds a fresh list per
// packet and the machine never mutates it.
func clonePacket(p *packet.Packet) *packet.Packet {
	q := packet.Get()
	payload, eacks := q.Payload, q.Eacks
	*q = *p
	q.Payload = append(payload[:0], p.Payload...)
	q.Eacks = append(eacks[:0], p.Eacks...)
	return q
}

// acceptInOrder consumes the packet at rcvNxt. The reassembler copies the
// payload out, so the packet may be reused once this returns.
//
//iqlint:borrow
func (m *Machine) acceptInOrder(p *packet.Packet) {
	m.rcvNxt = p.Seq + 1
	m.reasm.addFragment(p)
}

// drainOOO moves now-in-order buffered packets into the stream, returning
// each buffered clone to the packet freelist once consumed.
func (m *Machine) drainOOO() {
	for {
		p, ok := m.ooo[m.rcvNxt]
		if !ok {
			return
		}
		delete(m.ooo, m.rcvNxt)
		m.memSub(guard.ClassOOO, len(p.Payload))
		m.acceptInOrder(p)
		packet.Put(p)
	}
}

// applyFwd advances the in-order point past skipped packets (the sender
// abandoned unmarked data within our declared loss tolerance). Sequence
// numbers in [rcvNxt, fwd) that were never received count as skipped
// fragments for reassembly.
func (m *Machine) applyFwd(fwd uint32) {
	if !packet.SeqGT(fwd, m.rcvNxt) {
		return
	}
	for packet.SeqLT(m.rcvNxt, fwd) {
		if p, ok := m.ooo[m.rcvNxt]; ok {
			delete(m.ooo, m.rcvNxt)
			m.memSub(guard.ClassOOO, len(p.Payload))
			m.acceptInOrder(p)
			packet.Put(p)
			continue
		}
		m.reasm.skipSeq(m.rcvNxt)
		m.rcvNxt++
	}
	m.drainOOO()
}

// reassembler rebuilds application messages from in-order fragments. Because
// fragments of one message occupy contiguous sequence numbers and arrive (or
// are skipped) in order, at most one message is under assembly at a time and
// its fragment indices reach the reassembler in ascending order. That lets
// the message accumulate into one right-sized buffer as fragments arrive
// instead of a per-fragment slice table concatenated at completion; the
// buffer's ownership passes to the application on Deliver.
type reassembler struct {
	m *Machine

	cur         uint32 // msgID under assembly
	active      bool
	data        []byte // accumulated payload, one allocation per message
	nextIdx     int    // next fragment index not yet consumed or skipped
	got         int
	skipped     int
	fragCnt     int
	marked      bool
	attrsSet    bool
	attrs       *attr.List
	sentAt      time.Duration
	orphanSkips int // skipped seqs not attributable to an active message
	accounted   int // bytes charged to the shared ledger (Config.Mem)
}

// addFragment consumes the next in-order fragment, copying its payload into
// the message buffer (the packet is borrowed and may be reused by the caller).
//
//iqlint:borrow
func (r *reassembler) addFragment(p *packet.Packet) {
	// Unwrap against the entry's clock reading, the packet's arrival time.
	ts := packet.TSUnwrap(p.TS, r.m.now)
	if !r.active || r.cur != p.MsgID {
		r.flushIncomplete()
		r.start(p, ts)
	}
	idx := int(p.Frag)
	if idx >= r.fragCnt {
		// Malformed fragment index: drop the message.
		r.flushIncomplete()
		return
	}
	if idx >= r.nextIdx {
		// Indices in (nextIdx, idx) were holes already charged via skipSeq;
		// idx < nextIdx would be a duplicate, impossible at the in-order
		// point, so it is ignored rather than appended twice.
		r.data = append(r.data, p.Payload...)
		r.m.memAdd(guard.ClassReasm, len(p.Payload))
		r.accounted += len(p.Payload)
		r.got++
		r.nextIdx = idx + 1
	}
	if p.Marked() {
		r.marked = true
	}
	if !r.attrsSet && p.Attrs.Len() > 0 {
		r.attrs = p.Attrs
		r.attrsSet = true
	}
	if ts < r.sentAt {
		r.sentAt = ts
	}
	r.maybeComplete()
}

// skipSeq records that the sequence number at the in-order point was
// abandoned by the sender. The reassembler cannot know which message the
// hole belonged to; if a message is currently under assembly the hole is
// charged to it, otherwise it represents an entire message (or leading
// fragments of the next message) that was skipped — accounted when the next
// real fragment arrives or at flush.
func (r *reassembler) skipSeq(seq uint32) {
	if r.active {
		r.skipped++
		r.maybeComplete()
		return
	}
	r.orphanSkips++
}

// start opens the message p is a fragment of; ts is p's unwrapped
// timestamp.
//
//iqlint:borrow
func (r *reassembler) start(p *packet.Packet, ts time.Duration) {
	r.cur = p.MsgID
	r.active = true
	r.fragCnt = int(p.FragCnt)
	if r.fragCnt <= 0 {
		r.fragCnt = 1
	}
	// All fragments but the last carry a full MSS of payload, so the first
	// fragment seen bounds the message size; a message whose leading
	// fragments were skipped may underestimate and grow once.
	r.data = make([]byte, 0, r.fragCnt*len(p.Payload))
	r.got = 0
	r.marked = false
	r.attrsSet = false
	r.attrs = nil
	r.sentAt = ts
	// The holes just below p that its fragment index accounts for were this
	// message's leading fragments; any before those were fragments of
	// wholly skipped messages.
	lead := min(int(p.Frag), r.orphanSkips)
	r.skipped = lead
	r.nextIdx = lead
	if r.orphanSkips > lead {
		r.m.metrics.LostMsgs++
	}
	r.orphanSkips = 0
}

// maybeComplete delivers the message once every fragment is accounted for.
func (r *reassembler) maybeComplete() {
	if !r.active || r.got+r.skipped < r.fragCnt {
		return
	}
	if r.got == 0 {
		r.m.metrics.LostMsgs++
		r.reset()
		return
	}
	msg := Message{
		ID:          r.cur,
		Data:        r.data,
		Marked:      r.marked,
		Partial:     r.skipped > 0,
		Attrs:       r.attrs,
		SentAt:      r.sentAt,
		DeliveredAt: r.m.now,
	}
	r.m.metrics.DeliveredMsgs++
	if msg.Partial {
		r.m.metrics.PartialMsgs++
	}
	if r.m.hs != nil && msg.Marked {
		// Send→deliver latency for marked messages. SentAt is the sender's
		// packet timestamp, so the difference crosses clock domains over real
		// sockets; RecordDur clamps the skew-negative case to zero.
		r.m.hs.Delivery.RecordDur(msg.DeliveredAt - msg.SentAt)
	}
	r.m.arrivals.Observe(msg.DeliveredAt)
	r.reset()
	r.m.env.Deliver(msg)
}

// flushIncomplete abandons the message under assembly (fragments lost to a
// malformed stream); counted as lost.
func (r *reassembler) flushIncomplete() {
	if r.active && r.got > 0 {
		r.m.metrics.LostMsgs++
	}
	r.reset()
}

func (r *reassembler) reset() {
	// Whether the buffer was delivered or abandoned, it is no longer the
	// transport's memory: release its ledger charge.
	r.m.memSub(guard.ClassReasm, r.accounted)
	r.accounted = 0
	r.active = false
	r.data = nil // ownership passed to the application (or abandoned)
	r.nextIdx = 0
	r.got, r.skipped, r.fragCnt = 0, 0, 0
}

// appendSortedEacks appends the out-of-order buffer's sequence numbers to
// dst in ascending circular order (deterministic wire content), capped at
// limit. dst's backing array is reused across acks; with an empty buffer —
// the steady state — nothing is appended and nothing allocates.
func (m *Machine) appendSortedEacks(dst []uint32, limit int) []uint32 {
	if len(m.ooo) == 0 {
		return dst
	}
	start := len(dst)
	for seq := range m.ooo {
		dst = append(dst, seq)
	}
	out := dst[start:]
	// Ordered by circular distance, the order packet.SeqLT defines. A
	// generic sort with a capture-free comparison allocates nothing, unlike
	// sort.Slice's reflected swapper and closure.
	slices.SortFunc(out, func(a, b uint32) int { return int(packet.SeqDiff(a, b)) })
	if len(out) > limit {
		// The clipped extents stay unreported this ack: the sender may
		// retransmit data the receiver already holds. Surface the clip
		// instead of truncating silently.
		m.metrics.EackClips++
		if m.tr != nil {
			m.tr.Trace(trace.Event{
				Time: m.now, Type: trace.EackClipped, ConnID: m.connID,
				Size: len(out) - limit,
			})
		}
		dst = dst[:start+limit]
	}
	return dst
}
