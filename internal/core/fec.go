package core

import (
	"time"

	"github.com/cercs/iqrudp/internal/fec"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/trace"
)

// This file glues the internal/fec repair layer into the protocol machine.
//
// Sender side: every first transmission is folded into the encoder's open
// group (fecOnTransmit, called from transmit); when the group reaches K a
// REPAIR packet is emitted, and a partial group is flushed by a short timer
// so tail packets are not left unprotected. The group size K starts at the
// peer's advertised ceiling and adapts to the measured loss ratio at each
// measurement-period close (fecAdapt).
//
// Receiver side: handleRepair and the handleData hook feed the decoder;
// reconstructed packets are re-framed as DATA and pushed through
// HandlePacket, so reassembly, acknowledgements, tracing and metrics treat
// them exactly like wire arrivals. The acknowledgement a recovery triggers
// is also what cancels the sender's pending retransmission of a marked
// loss — repair and retransmit race, and whichever lands first wins.
//
// REPAIR packets consume no sequence numbers, are never acknowledged and
// never retransmitted: losing one only loses its protection.

// armFec builds the sender-side encoder once the handshake negotiated FEC:
// we enable it locally (cfg.FECGroup > 0) and the peer advertised a
// positive decode group size.
func (m *Machine) armFec() {
	if m.fecEnc != nil || m.cfg.FECGroup <= 0 || m.peerFecGroup <= 0 {
		return
	}
	k := m.peerFecGroup
	if k > fec.GroupMax {
		k = fec.GroupMax
	}
	if k < 2 {
		k = 2
	}
	m.fecBaseK = k
	m.fecEnc = fec.NewEncoder(fec.XOR{}, k)
	m.fecFlushFn = m.onFecFlush
}

// fecOnTransmit folds one first-transmission DATA packet into the open
// repair group. A full group emits its repair immediately; a partial group
// arms the flush timer so a traffic lull (or the end of the flow) does not
// leave the group's packets unprotected.
func (m *Machine) fecOnTransmit(sp *sendPkt) {
	if m.fecEnc.Add(sp.seq, sp.flags, sp.msgID, sp.frag, sp.fragCnt, sp.attrs, sp.payload) {
		m.emitRepair("")
		return
	}
	if m.fecFlushTimer == nil {
		m.fecFlushTimer = m.env.After(m.fecFlushDelay(), m.fecFlushFn)
	}
}

// fecFlushDelay is the partial-group flush horizon: half a round trip, so
// the repair still beats any SACK- or RTO-driven recovery of the packets it
// protects, with a floor for the pre-first-sample case.
func (m *Machine) fecFlushDelay() time.Duration {
	d := m.rtt.SRTT() / 2
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	return d
}

// onFecFlush is the cached flush-timer callback: emit the open partial
// group's repair, if one is still open.
func (m *Machine) onFecFlush() {
	m.fecFlushTimer = nil
	if m.state != stEstablished && m.state != stFinWait {
		return
	}
	if m.fecEnc != nil && m.fecEnc.Pending() > 0 {
		m.emitRepair(trace.ReasonFecFlush)
	}
}

// emitRepair closes the encoder's open group and emits its REPAIR packet:
// Seq carries the group base, FragCnt the span, Payload the parity block.
// reason is "" for a full group, ReasonFecFlush for a partial flush.
func (m *Machine) emitRepair(reason string) {
	base, span, parity, ok := m.fecEnc.Flush()
	if !ok {
		return
	}
	now := m.env.Now()
	m.metrics.FecRepairsSent++
	if m.tr != nil {
		m.tr.Trace(trace.Event{
			Time: now, Type: trace.FecRepairSent, ConnID: m.connID,
			Seq: base, Size: len(parity), Reason: reason,
		})
	}
	m.out = packet.Packet{
		Type:    packet.REPAIR,
		ConnID:  m.connID,
		Seq:     base,
		FragCnt: uint16(span),
		TS:      now,
		Payload: parity,
	}
	m.attachAck(&m.out)
	m.lastSent = now
	m.env.Emit(&m.out)
}

// handleRepair feeds an arriving REPAIR packet to the decoder. The repair
// carries no acknowledgement duties of its own beyond what any packet
// carries (lastHeard was already touched by HandlePacket); it exists purely
// to close reception holes.
//
//iqlint:borrow
func (m *Machine) handleRepair(p *packet.Packet) {
	switch m.state {
	case stSynRcvd:
		// Traffic from the initiator completes the handshake, under the
		// return-routability rule DATA obeys (see handleData).
		if !p.HasAck() || p.Ack != m.sndUna {
			return
		}
		m.establish()
	case stEstablished, stFinWait:
	default:
		return
	}
	if m.cfg.FECGroup <= 0 {
		return // we never advertised decode support; ignore
	}
	m.metrics.FecRepairsRecv++
	if m.fecDec == nil {
		m.fecDec = fec.NewDecoder(fec.XOR{}, 0)
	}
	m.fecQueue = m.fecDec.OnRepair(p.Seq, int(p.FragCnt), p.Payload, m.rcvNxt, m.env.Now(), m.fecQueue)
	m.drainFecQueue(p.TS)
}

// fecOnData records one arriving DATA packet with the decoder (every
// arrival, including duplicates — a retransmission can refill a parked
// group) and re-injects any reconstructions it unlocked.
//
//iqlint:borrow
func (m *Machine) fecOnData(p *packet.Packet) {
	m.fecQueue = m.fecDec.OnData(p.Seq, p.Flags, p.MsgID, p.Frag, p.FragCnt, p.Attrs, p.Payload, m.env.Now(), m.fecQueue)
	if len(m.fecQueue) > 0 {
		m.drainFecQueue(p.TS)
	}
}

// drainFecQueue re-injects queued reconstructions through HandlePacket.
// Re-injection runs handleData, whose decoder hook may reconstruct further
// packets; those append to the queue and this outermost frame drains them
// (fecDraining guards the recursion). ts is the timestamp of the wire
// packet whose arrival unlocked the reconstructions: the lost originals
// left the sender no later than it, so it stands in for their own.
func (m *Machine) drainFecQueue(ts time.Duration) {
	if m.fecDraining {
		return
	}
	m.fecDraining = true
	for len(m.fecQueue) > 0 && m.state != stDead {
		r := m.fecQueue[0]
		n := copy(m.fecQueue, m.fecQueue[1:])
		m.fecQueue[n] = fec.Recovered{} // drop buffer references
		m.fecQueue = m.fecQueue[:n]
		m.acceptRecovered(r, ts)
	}
	m.fecDraining = false
}

// acceptRecovered re-frames one reconstructed packet as DATA and feeds it
// through the normal receive path, so everything downstream — reassembly,
// EACK generation, delivery metrics, tracing — treats it exactly like a
// wire arrival. ts stands in for the lost packet's timestamp.
func (m *Machine) acceptRecovered(r fec.Recovered, ts time.Duration) {
	now := m.env.Now()
	marked := r.Flags&packet.FlagMarked != 0
	m.metrics.FecRecovered++
	if marked {
		m.metrics.FecRecoveredMarked++
	}
	if m.tr != nil {
		m.tr.Trace(trace.Event{
			Time: now, Type: trace.FecRecovered, ConnID: m.connID,
			Seq: r.Seq, MsgID: r.MsgID, Size: len(r.Payload), Marked: marked,
		})
	}
	if m.hs != nil {
		m.hs.FecRepair.RecordDur(now - r.HoleOpenAt)
	}
	p := packet.Get()
	payload := p.Payload
	*p = packet.Packet{
		Type:    packet.DATA,
		Flags:   r.Flags,
		ConnID:  m.connID,
		Seq:     r.Seq,
		MsgID:   r.MsgID,
		Frag:    r.Frag,
		FragCnt: r.FragCnt,
		TS:      ts,
		Attrs:   r.Attrs,
		Payload: append(payload[:0], r.Payload...),
	}
	m.HandlePacket(p)
	packet.Put(p)
}

// fecAdapt retunes the repair-group size to the smoothed loss ratio at each
// measurement-period close: roughly one repair per expected loss with 2x
// headroom (K = 1/(2·loss)), clamped to [2, negotiated ceiling]. Clean
// networks pay the ceiling's minimum overhead (1/K); lossy networks buy
// denser protection.
func (m *Machine) fecAdapt() {
	if m.fecEnc == nil {
		return
	}
	loss := m.meas.smoothed()
	k := m.fecBaseK
	if loss > 0 {
		if kk := int(1 / (2 * loss)); kk < k {
			k = kk
		}
	}
	if k < 2 {
		k = 2
	}
	prev := m.fecEnc.Group()
	if k == prev {
		return
	}
	m.fecEnc.SetGroup(k)
	if m.tr != nil {
		m.tr.Trace(trace.Event{
			Time: m.env.Now(), Type: trace.FecRateChange, ConnID: m.connID,
			PrevCwnd: float64(prev), Cwnd: float64(k),
			ErrorRatio: loss, Reason: trace.ReasonFecAdapt,
		})
	}
}
