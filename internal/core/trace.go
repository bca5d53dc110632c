package core

import (
	"time"

	"github.com/cercs/iqrudp/internal/trace"
)

// This file concentrates the machine's observability instrumentation: thin
// wrappers that emit trace events around state transitions, congestion-
// window changes and retransmission-timer activity. Every emission sits
// behind a nil check on m.tr, so a machine without a Tracer constructs no
// events and pays one untaken branch per decision point.

// tracePacket emits a packet-lifecycle event.
func (m *Machine) tracePacket(t trace.Type, sp *sendPkt, reason string) {
	m.tr.Trace(trace.Event{
		Time:   m.now,
		Type:   t,
		ConnID: m.connID,
		Seq:    sp.seq,
		MsgID:  sp.msgID,
		Size:   len(sp.payload),
		Marked: sp.marked(),
		Reason: reason,
	})
}

// traceCwnd emits a window-update event with the LDA inputs that produced
// it (smoothed error ratio and SRTT at the decision).
func (m *Machine) traceCwnd(prev, now float64, reason string) {
	m.tr.Trace(trace.Event{
		Time:       m.now,
		Type:       trace.CwndUpdate,
		ConnID:     m.connID,
		PrevCwnd:   prev,
		Cwnd:       now,
		ErrorRatio: m.meas.smoothed(),
		SRTT:       m.rtt.SRTT(),
		Reason:     reason,
	})
}

// setState transitions the connection state machine, tracing the edge.
func (m *Machine) setState(s connState) { m.setStateReason(s, "") }

// setStateReason is setState carrying the edge's cause — the transition to
// the dead state records the connection's single close reason here.
func (m *Machine) setStateReason(s connState, reason string) {
	if m.state == s {
		return
	}
	if m.tr != nil {
		m.tr.Trace(trace.Event{
			Time:   m.now,
			Type:   trace.ConnState,
			ConnID: m.connID,
			From:   m.state.String(),
			To:     s.String(),
			Reason: reason,
		})
	}
	m.state = s
}

// ccOnAck grows the window for newly acked packets, tracing any change.
func (m *Machine) ccOnAck(n int, limited bool) {
	if m.tr == nil {
		m.cc.OnAck(n, limited)
		return
	}
	prev := m.cc.Window()
	m.cc.OnAck(n, limited)
	if now := m.cc.Window(); now != prev {
		m.traceCwnd(prev, now, trace.ReasonAck)
	}
}

// ccOnLoss applies the loss-proportional decrease, tracing any change.
func (m *Machine) ccOnLoss(now time.Duration) {
	if m.tr == nil {
		m.cc.OnLoss(now, m.rtt.SRTT(), m.meas.smoothed())
		return
	}
	prev := m.cc.Window()
	m.cc.OnLoss(now, m.rtt.SRTT(), m.meas.smoothed())
	if w := m.cc.Window(); w != prev {
		m.traceCwnd(prev, w, trace.ReasonLoss)
	}
}

// ccOnTimeout collapses the window after an RTO, tracing any change.
func (m *Machine) ccOnTimeout(now time.Duration) {
	if m.tr == nil {
		m.cc.OnTimeout(now)
		return
	}
	prev := m.cc.Window()
	m.cc.OnTimeout(now)
	if w := m.cc.Window(); w != prev {
		m.traceCwnd(prev, w, trace.ReasonTimeout)
	}
}

// ccRescale applies a coordination window rescale, tracing any change.
func (m *Machine) ccRescale(factor float64) {
	if m.tr == nil {
		m.cc.Rescale(factor)
		return
	}
	prev := m.cc.Window()
	m.cc.Rescale(factor)
	if w := m.cc.Window(); w != prev {
		m.traceCwnd(prev, w, trace.ReasonCoordination)
	}
}

// rttBackoff doubles the RTO (Karn's backoff), tracing the new value.
func (m *Machine) rttBackoff(reason string) {
	m.rtt.Backoff()
	if m.tr != nil {
		m.tr.Trace(trace.Event{
			Time:   m.now,
			Type:   trace.RTOBackoff,
			ConnID: m.connID,
			RTO:    m.rtt.RTO(),
			SRTT:   m.rtt.SRTT(),
			Reason: reason,
		})
	}
}
