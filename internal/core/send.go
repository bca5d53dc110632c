package core

import (
	"time"

	"github.com/cercs/iqrudp/internal/attr"
	"github.com/cercs/iqrudp/internal/guard"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/trace"
)

// Send transmits one application message (datagram) reliably when marked,
// or best-effort within the receiver's loss tolerance when unmarked. It
// keeps data as SendMsg does.
func (m *Machine) Send(data []byte, marked bool) error {
	return m.SendMsg(data, marked, nil)
}

// SendMsg is the CMwritev_attr() of the paper: it transmits a message with a
// quality-attribute list attached. ADAPT_* attributes in the list are
// interpreted by the coordination engine before the message is queued, so an
// application can enact a previously announced (delayed) adaptation exactly
// at the send call that first reflects it.
//
// SendMsg keeps data: its fragments are slices of the caller's buffer, held
// until the peer's cumulative acknowledgement passes them (retransmissions
// and FEC parity read from them), and CarryoverMarked may return them after
// the connection dies. The caller must not modify or reuse data after the
// call. The transport does not copy, because a copy would cost every message
// a pass over its bytes (16 KiB on a bulk message) to protect a buffer most
// callers never touch again.
func (m *Machine) SendMsg(data []byte, marked bool, attrs *attr.List) error {
	if m.state == stDead || m.closing {
		return ErrClosed
	}
	if len(data) == 0 {
		return ErrPayloadEmpty
	}
	defer m.exit(m.enter())
	// Coordination first: attributes describe the traffic that FOLLOWS,
	// starting with this message.
	if attrs != nil {
		m.coo.onSendAttrs(attrs, len(data))
	}
	m.coo.onFrame()

	m.relMsgsTotal++
	// Case 1 (conflicting interests): with coordination active and the
	// application having reported a reliability adaptation, unmarked
	// messages are discarded here — before they consume network resources —
	// as long as the overall undelivered fraction stays within the
	// receiver's declared loss tolerance.
	if !marked && m.coo.discardUnmarked() && m.withinTolerance(1) {
		m.relMsgsDropped++
		m.metrics.SenderDiscards++
		if m.tr != nil {
			// The message dies before segmentation, so it never gets a
			// sequence number or message id.
			m.tr.Trace(trace.Event{
				Time: m.now, Type: trace.PacketAbandoned, ConnID: m.connID,
				Size: len(data), Reason: trace.ReasonCase1Discard,
			})
		}
		return nil
	}

	// A DEADLINE attribute (seconds from now) bounds the usefulness of an
	// unmarked message: if it is still waiting to be transmitted when the
	// deadline passes, the transport drops it instead of wasting bandwidth
	// on stale data — provided the receiver's loss tolerance permits.
	var deadline time.Duration
	if d := attrs.FloatOr(attr.Deadline, 0); d > 0 {
		deadline = m.now + time.Duration(d*float64(time.Second))
	}

	mss := m.cfg.MSS
	frags := (len(data) + mss - 1) / mss
	if frags > 0xFFFF {
		return ErrPayloadEmpty // unreachable with sane MSS; guards uint16
	}

	// Graceful degradation under local overload: at the backlog bound,
	// unmarked data is shed first — incoming unmarked messages die at
	// ingress (cheapest: nothing was segmented yet), and an incoming marked
	// message evicts queued unmarked packets to make room. Both moves are
	// gated by the receiver's loss tolerance, exactly like network-loss
	// skips; a marked message is queued regardless, so overload never
	// blocks must-deliver data behind droppable data. Brownout level ≥ 1
	// (the driver's global memory governor, Config.Pressure) sheds unmarked
	// ingress through the same rule: under engine-wide pressure, droppable
	// traffic degrades first while marked traffic keeps its guarantees.
	if m.cfg.MaxSendBacklog > 0 && m.pendingLen()+frags > m.cfg.MaxSendBacklog {
		if marked {
			m.shedBacklog(frags)
		} else if m.withinTolerance(1) {
			m.shedIngress(len(data))
			return nil
		}
	} else if !marked && m.pressureLevel() >= 1 && m.withinTolerance(1) {
		m.shedIngress(len(data))
		return nil
	}

	// A message is named by its first fragment's sequence number, which the
	// receiver recovers from any fragment as Seq − Frag (see packet.Packet).
	msgID := m.sndNxt
	for i := 0; i < frags; i++ {
		lo, hi := i*mss, (i+1)*mss
		if hi > len(data) {
			hi = len(data)
		}
		var flags uint8
		if marked {
			flags |= packet.FlagMarked
		}
		if i == frags-1 {
			flags |= packet.FlagMsgEnd
		}
		sp := m.getSendPkt()
		*sp = sendPkt{
			seq:      m.sndNxt,
			msgID:    msgID,
			frag:     uint16(i),
			fragCnt:  uint16(frags),
			flags:    flags,
			payload:  data[lo:hi],
			deadline: deadline,
		}
		if i == 0 {
			sp.attrs = attrs.Clone()
		}
		m.sndNxt++
		m.pending = append(m.pending, sp)
	}
	m.memAdd(guard.ClassSend, len(data))
	if m.hs != nil {
		m.hs.Backlog.Record(int64(m.pendingLen()))
	}
	m.trySend()
	return nil
}

// shedIngress discards an unmarked message before segmentation — the
// cheapest disposal point — charging the adaptive-reliability budget and
// tracing the shed.
func (m *Machine) shedIngress(size int) {
	m.relMsgsDropped++
	m.metrics.ShedMsgs++
	m.metrics.ShedBytes += uint64(size)
	if m.tr != nil {
		m.tr.Trace(trace.Event{
			Time: m.now, Type: trace.ShedUnmarked, ConnID: m.connID,
			Size: size, Reason: trace.ReasonShedIngress,
		})
	}
}

// shedBacklog frees room for an incoming marked message of need fragments by
// abandoning unmarked packets from the head of the untransmitted queue,
// oldest first, while the receiver's loss tolerance permits. Abandoned
// packets join the flight as skipped so the forward-seq mechanism carries
// the receiver past them — the same path deadline drops take. The loop stops
// at the first marked or tolerance-blocked packet: shedding around it would
// reorder the queue.
func (m *Machine) shedBacklog(need int) {
	shed := false
	for m.pendingLen()+need > m.cfg.MaxSendBacklog && m.pendingLen() > 0 {
		sp := m.pending[m.pendHead]
		if sp.marked() || !m.canSkipFragment(sp) {
			break
		}
		m.popPending()
		if !m.skippedMsgs[sp.msgID] {
			m.skippedMsgs[sp.msgID] = true
			m.relMsgsDropped++
			m.metrics.ShedMsgs++
		}
		sp.skipped = true
		m.metrics.ShedPackets++
		m.metrics.ShedBytes += uint64(len(sp.payload))
		if m.tr != nil {
			m.tracePacket(trace.ShedUnmarked, sp, trace.ReasonShedQueue)
		}
		m.flight = append(m.flight, sp)
		shed = true
	}
	if shed {
		m.advanceFwd()
	}
}

// getSendPkt takes a sendPkt from the machine's freelist, or allocates one.
// The caller must overwrite every field (SendMsg assigns a full literal).
func (m *Machine) getSendPkt() *sendPkt {
	if n := len(m.spFree); n > 0 {
		sp := m.spFree[n-1]
		m.spFree[n-1] = nil
		m.spFree = m.spFree[:n-1]
		return sp
	}
	return new(sendPkt)
}

// putSendPkt returns a sendPkt whose flight is over to the freelist. The
// payload and attribute references are dropped so the freelist never pins
// application data. The list has no cap: getSendPkt allocates only when it
// is empty, so it never holds more structs than the connection once had
// live at the same time (send backlog plus flight). A cap below that peak
// — a 512-packet backlog behind a 512-packet window — turns every drain and
// refill of the backlog into fresh allocations.
func (m *Machine) putSendPkt(sp *sendPkt) {
	sp.payload = nil
	sp.attrs = nil
	m.spFree = append(m.spFree, sp)
}

// popPending removes and returns the head of the untransmitted queue. The
// head advances by index; once the popped prefix is at least half the slice,
// the live tail is copied down to the front, so the slice stays under twice
// the largest backlog held. A back-pressured sender seldom drains its
// queue, and without the compaction the array would keep a slot for every
// packet it ever sent. The copy averages one pointer per pop.
func (m *Machine) popPending() *sendPkt {
	sp := m.pending[m.pendHead]
	m.pending[m.pendHead] = nil
	m.pendHead++
	if m.pendHead*2 >= len(m.pending) {
		rem := copy(m.pending, m.pending[m.pendHead:])
		clear(m.pending[rem:])
		m.pending = m.pending[:rem]
		m.pendHead = 0
	}
	m.memSub(guard.ClassSend, len(sp.payload))
	return sp
}

// pendingLen is the number of segmented packets awaiting first transmission.
func (m *Machine) pendingLen() int { return len(m.pending) - m.pendHead }

// withinTolerance reports whether dropping extra more messages keeps the
// undelivered fraction within the peer's loss tolerance.
func (m *Machine) withinTolerance(extra uint64) bool {
	if m.peerTol <= 0 {
		return false
	}
	total := m.relMsgsTotal
	if total == 0 {
		return false
	}
	return float64(m.relMsgsDropped+extra)/float64(total) <= m.peerTol
}

// CanSend reports whether at least one packet of window space is free.
func (m *Machine) CanSend() bool {
	return m.state == stEstablished && float64(m.inFlightCount()) < m.effectiveWindow()
}

// QueuedPackets returns the number of segmented packets awaiting first
// transmission.
func (m *Machine) QueuedPackets() int { return m.pendingLen() }

// inFlightCount is the number of transmitted packets still occupying the
// window. It is maintained incrementally (transmit, sack, skip, cumulative
// pop) because trySend consults it once per loop iteration — a scan here
// would make draining a full window quadratic in the flight size.
func (m *Machine) inFlightCount() int { return m.inFlight }

// windowLimited reports whether demand (in-flight plus queued) meets or
// exceeds the congestion window — the condition for window growth.
func (m *Machine) windowLimited() bool {
	return float64(m.inFlightCount()+m.pendingLen()) >= m.cc.Window()
}

// effectiveWindow is the sending limit in packets.
func (m *Machine) effectiveWindow() float64 {
	w := m.cc.Window()
	if pw := float64(m.peerWnd); pw < w {
		w = pw
	}
	if w < 1 {
		w = 1
	}
	return w
}

// trySend transmits pending packets while window space allows. With pacing
// enabled, transmissions are spread one packet per srtt/cwnd instead of
// bursting the whole window.
func (m *Machine) trySend() {
	if m.state != stEstablished {
		return
	}
	if m.cfg.Paced {
		m.pacedSend()
		return
	}
	sentAny := false
	for m.pendingLen() > 0 && float64(m.inFlightCount()) < m.effectiveWindow() {
		sp := m.popPending()
		// Expired unmarked data is abandoned before its first transmission
		// (deadline-based partial reliability), tolerance permitting.
		if sp.deadline > 0 && !sp.marked() && m.now > sp.deadline && m.canSkipFragment(sp) {
			if !m.skippedMsgs[sp.msgID] {
				m.skippedMsgs[sp.msgID] = true
				m.relMsgsDropped++
			}
			sp.skipped = true
			m.metrics.DeadlineDrops++
			if m.tr != nil {
				m.tracePacket(trace.PacketAbandoned, sp, trace.ReasonDeadline)
			}
			m.flight = append(m.flight, sp)
			m.advanceFwd()
			continue
		}
		m.transmit(sp, false)
		m.flight = append(m.flight, sp)
		m.inFlight++
		sentAny = true
	}
	if m.fwdPending && m.pendingLen() == 0 && m.inFlightCount() == 0 {
		m.emitFwdProbe()
	}
	if sentAny {
		m.armRtx()
	}
	m.maybeFinish()
}

// pacedSend transmits at most one packet and arms the pacing timer for the
// next. The pacing interval is the smoothed RTT divided by the window, i.e.
// the window is spread evenly over one round trip.
func (m *Machine) pacedSend() {
	if m.paceTimer != nil {
		return // a gap is already pending; its expiry continues the train
	}
	for m.pendingLen() > 0 && float64(m.inFlightCount()) < m.effectiveWindow() {
		sp := m.popPending()
		if sp.deadline > 0 && !sp.marked() && m.now > sp.deadline && m.canSkipFragment(sp) {
			if !m.skippedMsgs[sp.msgID] {
				m.skippedMsgs[sp.msgID] = true
				m.relMsgsDropped++
			}
			sp.skipped = true
			m.metrics.DeadlineDrops++
			if m.tr != nil {
				m.tracePacket(trace.PacketAbandoned, sp, trace.ReasonDeadline)
			}
			m.flight = append(m.flight, sp)
			m.advanceFwd()
			continue
		}
		m.transmit(sp, false)
		m.flight = append(m.flight, sp)
		m.inFlight++
		m.armRtx()
		interval := time.Millisecond
		if srtt := m.rtt.SRTT(); srtt > 0 {
			interval = time.Duration(float64(srtt) / m.effectiveWindow())
			if interval < 100*time.Microsecond {
				interval = 100 * time.Microsecond
			}
		}
		m.paceTimer = m.env.After(interval, m.paceFn)
		return
	}
	if m.fwdPending && m.pendingLen() == 0 && m.inFlightCount() == 0 {
		m.emitFwdProbe()
	}
	m.maybeFinish()
}

// onPaceGap is the cached pacing-gap callback: the gap has elapsed, resume
// the paced train.
func (m *Machine) onPaceGap() {
	defer m.exit(m.enter())
	m.paceTimer = nil
	m.trySend()
}

// transmit emits one DATA packet (first transmission or retransmission). The
// wire packet is staged in the machine's scratch packet: Env.Emit borrows it
// only for the duration of the call, so one staging area serves every
// emission (see the Env contract).
func (m *Machine) transmit(sp *sendPkt, isRtx bool) {
	sp.sentAt = m.now
	sp.txCount++
	m.metrics.SentPackets++
	if isRtx {
		m.metrics.Retransmits++
	}
	if m.tr != nil {
		typ := trace.PacketSent
		if isRtx {
			typ = trace.PacketRetransmitted
		}
		m.tracePacket(typ, sp, "")
	}
	m.meas.onSend(1)
	m.out = packet.Packet{
		Type:    packet.DATA,
		Flags:   sp.flags,
		ConnID:  m.connID,
		Seq:     sp.seq,
		MsgID:   sp.msgID,
		Frag:    sp.frag,
		FragCnt: sp.fragCnt,
		TS:      m.now,
		Attrs:   sp.attrs, // already a private clone, made at SendMsg
		Payload: sp.payload,
	}
	m.attachAck(&m.out)
	if m.fwdPending {
		m.out.Flags |= packet.FlagFwd
		m.out.Fwd = m.fwdSeq
		m.fwdPending = false
	}
	m.lastSent = m.now
	m.env.Emit(&m.out)
	// First transmissions feed the repair encoder (retransmissions are
	// already protected by being retransmissions); a filled group emits its
	// REPAIR packet from inside the hook.
	if m.fecEnc != nil && !isRtx {
		m.fecOnTransmit(sp)
	}
}

// attachAck adds the ack block to an outgoing DATA or REPAIR packet while
// the initiator's data may still be what completes the passive side's
// handshake: until the peer's cumulative ack covers any of our data, the
// third-leg ACK may have been lost, and the passive side establishes only
// on a packet whose ack covers its ISN (see handleData). Afterwards the
// peer ignores ack fields on data, so they stay off the wire.
func (m *Machine) attachAck(p *packet.Packet) {
	if m.initiator && m.sndUna == m.sndISN+1 {
		p.Flags |= packet.FlagAck
		p.Ack = m.rcvNxt
		p.Wnd = m.advertiseWnd()
	}
}

// handleAck processes cumulative acknowledgements and EACK extents.
//
//iqlint:borrow
func (m *Machine) handleAck(p *packet.Packet) {
	if !p.HasAck() {
		return // malformed: an acknowledgement without its ack block
	}
	if m.state == stSynRcvd {
		// Final leg of the handshake — but only an acknowledgement that
		// covers our SYNACK's ISN proves the peer actually saw it (return
		// routability). With a random ISN (serve sets Config.InitialSeq), a
		// blind attacker cannot forge this leg, so a spoofed-source SYN can
		// never be promoted to an established connection.
		if p.Ack != m.sndUna {
			return
		}
		m.establish()
	}
	if m.state != stEstablished && m.state != stFinWait {
		return
	}
	if p.HasFwd() {
		m.applyFwd(p.Fwd)
	}
	m.peerWnd = p.Wnd
	if tol, err := p.Attrs.Float(attr.LossTolerance); err == nil {
		m.peerTol = tol
	}
	if p.HasEcho() {
		m.sampleRTT(packet.TSSince(m.now, p.TSEcho))
	}

	wasLimited := m.windowLimited() // demand before this ack frees space
	ack := p.Ack
	progressed := false
	if packet.SeqGT(ack, m.sndUna) {
		newly := 0
		var ackedBytes uint64
		popped := 0
		for popped < len(m.flight) && packet.SeqLT(m.flight[popped].seq, ack) {
			sp := m.flight[popped]
			popped++
			if !sp.done() {
				newly++
				m.inFlight--
				ackedBytes += uint64(len(sp.payload))
				m.metrics.AckedPackets++
				if m.hs != nil {
					m.hs.AckDelay.RecordDur(m.now - sp.sentAt)
				}
				if m.tr != nil {
					m.tracePacket(trace.PacketAcked, sp, "")
				}
			}
			if sp.sacked {
				m.sackedCnt--
			}
			// Sacked packets were counted (window growth, bytes, metrics)
			// when their EACK arrived; skipped packets never count.
			// This is the one place packets leave the flight window, so the
			// bookkeeping struct goes back to the freelist here.
			m.putSendPkt(sp)
		}
		if popped > 0 {
			rem := copy(m.flight, m.flight[popped:])
			for i := rem; i < len(m.flight); i++ {
				m.flight[i] = nil
			}
			m.flight = m.flight[:rem]
		}
		m.sndUna = ack
		m.metrics.AckedBytes += ackedBytes
		m.meas.onAckedBytes(ackedBytes)
		m.ccOnAck(newly, wasLimited)
		m.dupAcks = 0
		progressed = true
	}

	// EACK extents: out-of-order receipt.
	sackedNew := 0
	for _, seq := range p.Eacks {
		for _, sp := range m.flight {
			if sp.seq == seq && !sp.done() {
				sp.sacked = true
				m.inFlight--
				m.sackedCnt++
				sackedNew++
				m.metrics.AckedPackets++
				if m.hs != nil {
					m.hs.AckDelay.RecordDur(m.now - sp.sentAt)
				}
				m.meas.onAckedBytes(uint64(len(sp.payload)))
				m.metrics.AckedBytes += uint64(len(sp.payload))
				if m.tr != nil {
					m.tracePacket(trace.PacketAcked, sp, trace.ReasonEack)
				}
			}
		}
	}
	if sackedNew > 0 {
		m.ccOnAck(sackedNew, wasLimited)
	}

	// Loss detection mirrors the SACK pipe algorithm: a packet is lost on
	// the exact third duplicate ack, or once three packets above it have
	// been selectively acknowledged. Repairs are grouped into episodes —
	// one window decrease and at most one retransmission per packet per
	// episode, at most two repair transmissions per ack.
	dupTrigger := false
	if !progressed && ack == m.lastAck && m.firstOutstanding() != nil {
		m.dupAcks++
		if m.dupAcks == 3 {
			dupTrigger = true
		}
	}
	if m.inRecovery && packet.SeqGEQ(m.sndUna, m.recoverTo) {
		m.inRecovery = false
	}
	lost := m.provenLost(dupTrigger)
	if len(lost) > 0 {
		if !m.inRecovery {
			m.inRecovery = true
			m.recoverTo = m.sndNxt
			m.epoch++
		}
		budget := 2
		for _, sp := range lost {
			if budget == 0 {
				break
			}
			if sp.rtxEpoch == m.epoch && sp.txCount > 1 {
				continue
			}
			sp.rtxEpoch = m.epoch
			m.onPacketLost(sp)
			budget--
		}
	}
	m.lastAck = ack

	m.advanceFwd()
	m.trySend()
	m.armRtx()
	if m.onWritable != nil && m.CanSend() && m.pendingLen() == 0 {
		m.onWritable()
	}
	m.maybeFinish()
}

// firstOutstanding returns the earliest in-flight packet that is neither
// sacked nor skipped, or nil.
func (m *Machine) firstOutstanding() *sendPkt {
	for _, sp := range m.flight {
		if !sp.done() {
			return sp
		}
	}
	return nil
}

// provenLost returns in-flight packets demonstrably lost (three or more
// sacked packets above them), oldest first; dupTrigger additionally nominates
// the earliest outstanding packet (classic three-dupack signal).
func (m *Machine) provenLost(dupTrigger bool) []*sendPkt {
	var lost []*sendPkt
	// Fewer than three sacked packets in the whole flight means no packet can
	// have three above it; skip the scan entirely. In loss-free operation this
	// keeps ack processing O(1) in the flight size.
	if m.sackedCnt >= 3 {
		sackedAbove := 0
		for i := len(m.flight) - 1; i >= 0; i-- {
			sp := m.flight[i]
			if sp.sacked {
				sackedAbove++
				continue
			}
			if sp.skipped {
				continue
			}
			if sackedAbove >= 3 {
				lost = append(lost, sp)
			}
		}
		for i, j := 0, len(lost)-1; i < j; i, j = i+1, j-1 {
			lost[i], lost[j] = lost[j], lost[i]
		}
	}
	if dupTrigger && len(lost) == 0 {
		if first := m.firstOutstanding(); first != nil {
			lost = append(lost, first)
		}
	}
	return lost
}

// onPacketLost reacts to a detected loss of sp: count it, shrink the window,
// then either retransmit (marked, or tolerance exhausted) or abandon the
// packet and forward the receiver past it (adaptive reliability).
func (m *Machine) onPacketLost(sp *sendPkt) {
	if sp.done() {
		return
	}
	if m.tr != nil {
		m.tracePacket(trace.PacketLost, sp, trace.ReasonFast)
	}
	m.meas.onLoss(1)
	m.ccOnLoss(m.now)

	if !sp.marked() && m.canSkipFragment(sp) {
		m.skipPacket(sp)
		return
	}
	m.transmit(sp, true)
	m.armRtx()
}

// canSkipFragment checks the tolerance budget for abandoning one fragment.
// Skipping any fragment loses the whole message, so the budget is charged at
// message granularity the first time a fragment of that message is skipped.
func (m *Machine) canSkipFragment(sp *sendPkt) bool {
	if m.peerTol <= 0 {
		return false
	}
	if m.skippedMsgs[sp.msgID] {
		return true // message already charged
	}
	return m.withinTolerance(1)
}

// skipPacket abandons an unmarked packet: the receiver is told to advance
// past it via the forward-seq mechanism.
func (m *Machine) skipPacket(sp *sendPkt) {
	if !m.skippedMsgs[sp.msgID] {
		m.skippedMsgs[sp.msgID] = true
		m.relMsgsDropped++
	}
	if !sp.done() {
		m.inFlight--
	}
	sp.skipped = true
	m.metrics.SkippedPackets++
	if m.tr != nil {
		m.tracePacket(trace.PacketAbandoned, sp, trace.ReasonSkip)
	}
	m.advanceFwd()
	// Communicate the forward point immediately if it moved; otherwise it
	// rides on the next DATA packet.
	if m.fwdPending && m.pendingLen() == 0 {
		m.emitFwdProbe()
	}
	m.trySend()
	m.armRtx()
}

// advanceFwd recomputes the forward point: the sequence number up to which
// every packet is cumulatively acked, sacked or skipped.
func (m *Machine) advanceFwd() {
	fwd := m.sndUna
	for _, sp := range m.flight {
		if sp.seq != fwd {
			break
		}
		if !sp.done() {
			break
		}
		fwd = sp.seq + 1
	}
	if packet.SeqGT(fwd, m.fwdSeq) {
		m.fwdSeq = fwd
		// A forward point at the cumulative ack tells the peer nothing it
		// has not acknowledged itself, so only one past it goes on the
		// wire. Announcing every ack's advance put the Fwd field on one
		// DATA packet per ACK, and that packet's extra four bytes cut the
		// equal-size runs GSO coalesces.
		m.fwdPending = packet.SeqGT(fwd, m.sndUna)
	}
}

// emitFwdProbe sends a NUL packet carrying the forward point.
func (m *Machine) emitFwdProbe() {
	m.out = packet.Packet{
		Type:   packet.NUL,
		Flags:  packet.FlagFwd,
		ConnID: m.connID,
		Seq:    m.sndNxt,
		Fwd:    m.fwdSeq,
		TS:     m.now,
	}
	m.env.Emit(&m.out)
	m.fwdPending = false
}

// armRtx (re)arms the retransmission timer for the earliest outstanding
// packet. The timer is left in place when it already fires no later than the
// new deadline: expiry re-checks lazily (onRtxTimeout) and re-arms for the
// remainder, which turns the per-ack stop/recreate churn of the naive scheme
// into one timer allocation per RTO interval.
func (m *Machine) armRtx() {
	earliest := m.firstOutstanding()
	if earliest == nil {
		// No retransmittable packet, but the peer may still be blocked on a
		// hole we decided to skip: keep probing the forward point until the
		// cumulative ack passes it (the probe itself can be lost).
		if len(m.flight) > 0 && packet.SeqLT(m.sndUna, m.fwdSeq) {
			m.stopRtx()
			m.rtxIsProbe = true
			m.rtxAt = m.now + m.rtt.RTO()
			m.rtxTimer = m.env.After(m.rtt.RTO(), m.rtxExpireFn)
			return
		}
		// An armed RTO timer is left in place rather than cancelled: its
		// expiry with an empty flight is a no-op, and the next burst usually
		// re-arms before it fires — so a flight that empties every round
		// trip costs no timer churn.
		if m.rtxIsProbe {
			m.stopRtx()
		}
		return
	}
	deadline := earliest.sentAt + m.rtt.RTO()
	if m.rtxTimer != nil && !m.rtxIsProbe && m.rtxAt <= deadline {
		return // armed timer fires at or before the deadline; expiry re-checks
	}
	m.stopRtx()
	delay := deadline - m.now
	if delay < 0 {
		delay = 0
	}
	m.rtxAt = deadline
	m.rtxTimer = m.env.After(delay, m.rtxExpireFn)
}

// stopRtx cancels the retransmission timer and clears its deadline state.
func (m *Machine) stopRtx() {
	if m.rtxTimer != nil {
		m.rtxTimer.Stop()
		m.rtxTimer = nil
	}
	m.rtxAt = 0
	m.rtxIsProbe = false
}

// onRtxExpire is the single retransmission-timer callback (cached in
// rtxExpireFn so arming the timer never allocates a closure). The timer has
// fired, so its pending state is cleared before dispatching.
func (m *Machine) onRtxExpire() {
	defer m.exit(m.enter())
	probe := m.rtxIsProbe
	m.rtxTimer = nil
	m.rtxAt = 0
	m.rtxIsProbe = false
	if probe {
		m.onProbeTimeout()
	} else {
		m.onRtxTimeout()
	}
}

// onProbeTimeout re-sends the forward-point probe while the peer's
// cumulative ack lags behind a skipped hole.
func (m *Machine) onProbeTimeout() {
	if m.state != stEstablished && m.state != stFinWait {
		return
	}
	if len(m.flight) > 0 && packet.SeqLT(m.sndUna, m.fwdSeq) {
		m.emitFwdProbe()
		m.rttBackoff(trace.ReasonProbe)
	}
	m.armRtx()
}

// onRtxTimeout handles expiry of the retransmission timer.
func (m *Machine) onRtxTimeout() {
	if m.state != stEstablished && m.state != stFinWait {
		return
	}
	var earliest *sendPkt
	for _, sp := range m.flight {
		if !sp.done() {
			earliest = sp
			break
		}
	}
	if earliest == nil {
		return
	}
	if m.now-earliest.sentAt < m.rtt.RTO() {
		// Re-armed lazily; not actually due yet.
		m.armRtx()
		return
	}
	if m.tr != nil {
		m.tr.Trace(trace.Event{
			Time: m.now, Type: trace.RTOFired, ConnID: m.connID,
			Seq: earliest.seq, MsgID: earliest.msgID,
			RTO: m.rtt.RTO(), SRTT: m.rtt.SRTT(),
		})
	}
	m.meas.onLoss(1)
	m.rttBackoff(trace.ReasonRTO)
	m.ccOnTimeout(m.now)
	if !earliest.marked() && m.canSkipFragment(earliest) {
		m.skipPacket(earliest)
	} else {
		// A forward point the receiver has not acknowledged past rides on
		// the retransmission. The one packet that carried it may have been
		// lost, and while packets are outstanding no probe repeats it: a
		// receiver parking more out-of-order packets than one EACK reports
		// behind the skipped hole would never acknowledge the rest.
		if packet.SeqLT(m.sndUna, m.fwdSeq) {
			m.fwdPending = true
		}
		m.transmit(earliest, true)
	}
	m.armRtx()
}

// advertiseWnd computes the receive window to advertise.
func (m *Machine) advertiseWnd() uint16 {
	wnd := m.cfg.RecvWindow
	// Brownout level ≥ 2: the driver's global memory governor asks every
	// connection to stop inviting deep in-flight pipelines — clamp the
	// advertised window so peers back off without any loss signal.
	if wnd > brownoutRecvWindow && m.pressureLevel() >= 2 {
		wnd = brownoutRecvWindow
	}
	used := len(m.ooo)
	if used >= int(wnd) {
		return 0
	}
	return wnd - uint16(used)
}

// sendAck emits a pure acknowledgement echoing no timestamp; extents
// selects EACK form when out-of-order data is buffered.
func (m *Machine) sendAck() {
	m.sendAckEcho(0, false)
}

// sendAckEcho emits an acknowledgement, echoing tsEcho for RTT measurement
// when echo is set. An acknowledgement owed by a receive run is settled by
// this one, which then echoes the owed run's earliest timestamp instead
// (see BeginRun). The ack is staged in the machine's scratch packet and its
// EACK list in the machine's scratch slice; both are free for reuse once
// Emit returns.
func (m *Machine) sendAckEcho(tsEcho time.Duration, echo bool) {
	if m.ackOwed > 0 {
		tsEcho, echo = m.ackOwedTS, true
		m.ackOwed = 0
	}
	flags := packet.FlagAck
	if echo {
		flags |= packet.FlagEcho
	}
	typ := packet.ACK
	m.outEacks = m.appendSortedEacks(m.outEacks[:0], 64)
	if len(m.outEacks) > 0 {
		typ = packet.EACK
	}
	m.out = packet.Packet{
		Type:   typ,
		Flags:  flags,
		ConnID: m.connID,
		Seq:    m.sndNxt,
		Ack:    m.rcvNxt,
		Wnd:    m.advertiseWnd(),
		TS:     m.now,
		TSEcho: tsEcho,
		Eacks:  m.outEacks,
	}
	if len(m.outEacks) == 0 {
		m.out.Eacks = nil
	}
	if m.tolDirty {
		m.out.Attrs = attr.NewList(attr.Attr{Name: attr.LossTolerance, Value: attr.Float(m.localTol)})
		m.tolDirty = false
	}
	m.lastSent = m.now
	m.env.Emit(&m.out)
}
