package core

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/hist"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/trace"
)

// obsConfig enables the full observability surface on a test machine.
func obsConfig() Config {
	cfg := DefaultConfig()
	cfg.FlightEvents = 16
	cfg.Hists = NewHists()
	return cfg
}

// TestFlightRecordOnAbnormalClose drives a machine to an abnormal death
// and checks the black box: reason, final state, ring contents ending with
// the dead edge, and histogram summaries.
func TestFlightRecordOnAbnormalClose(t *testing.T) {
	m, _ := establishedMachine(obsConfig())
	if m.FlightRecord() != nil {
		t.Fatal("flight record before close")
	}
	if err := m.SendMsg([]byte("payload"), true, nil); err != nil {
		t.Fatal(err)
	}
	m.AbortWith(trace.ReasonPeerDead)

	rec := m.FlightRecord()
	if rec == nil {
		t.Fatal("no flight record after abnormal close")
	}
	if rec.CloseReason != trace.ReasonPeerDead || rec.State != "dead" {
		t.Fatalf("record header: reason=%q state=%q", rec.CloseReason, rec.State)
	}
	if len(rec.Events) == 0 {
		t.Fatal("record has no events")
	}
	last := rec.Events[len(rec.Events)-1]
	if last.Type != trace.ConnState || last.To != "dead" || last.Reason != trace.ReasonPeerDead {
		t.Fatalf("last event is not the dead edge: %+v", last)
	}
	if rec.Metrics.SentPackets == 0 {
		t.Fatalf("record metrics empty: %+v", rec.Metrics)
	}
	var backlog *hist.Summary
	for i := range rec.Hists {
		if rec.Hists[i].Name == hist.MetricBacklog {
			backlog = &rec.Hists[i]
		}
	}
	if backlog == nil || backlog.Count == 0 {
		t.Fatalf("record lacks backlog summary: %+v", rec.Hists)
	}

	// The record must round-trip through JSON (the introspection wire form).
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back FlightRecord
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.CloseReason != rec.CloseReason || len(back.Events) != len(rec.Events) {
		t.Fatalf("JSON round-trip mangled the record: %+v", back)
	}
}

// TestNoFlightRecordOnCleanClose: orderly closes leave no black box.
func TestNoFlightRecordOnCleanClose(t *testing.T) {
	for _, reason := range []string{trace.ReasonLocalClose, trace.ReasonRemoteFin} {
		m, _ := establishedMachine(obsConfig())
		m.AbortWith(reason)
		if m.FlightRecord() != nil {
			t.Errorf("flight record after clean close %q", reason)
		}
	}
}

// TestNoFlightRecordWhenDisabled: FlightEvents = 0 keeps the machine
// recorder-free even on abnormal close.
func TestNoFlightRecordWhenDisabled(t *testing.T) {
	m, _ := establishedMachine(DefaultConfig())
	m.AbortWith(trace.ReasonPeerDead)
	if m.FlightRecord() != nil {
		t.Fatal("flight record despite FlightEvents=0")
	}
}

// TestMachineHistRecording checks every core hook: RTT (ack echo),
// ack-delay (cumulative ack), backlog (SendMsg) on the sender; delivery
// latency for a marked message on the receiver.
func TestMachineHistRecording(t *testing.T) {
	cfg := obsConfig()
	m, env := establishedMachine(cfg)
	// A nonzero clock so the DATA timestamp (and its echo) is > 0.
	env.advance(time.Millisecond)
	if err := m.SendMsg([]byte("hello"), true, nil); err != nil {
		t.Fatal(err)
	}
	env.advance(5 * time.Millisecond)
	// Acknowledge everything, echoing the DATA timestamp so RTT samples.
	var ts time.Duration
	for _, p := range env.emitted {
		if p.Type == packet.DATA {
			ts = p.TS
		}
	}
	m.HandlePacket(&packet.Packet{Type: packet.ACK, Flags: packet.FlagAck | packet.FlagEcho, Ack: m.sndNxt, Wnd: 64, TSEcho: ts})

	hs := m.Hists()
	if hs == nil {
		t.Fatal("Hists() nil with cfg.Hists set")
	}
	for _, c := range []struct {
		name string
		h    *hist.Hist
	}{
		{hist.MetricRTT, hs.RTT},
		{hist.MetricAckDelay, hs.AckDelay},
		{hist.MetricBacklog, hs.Backlog},
	} {
		if s := c.h.Snapshot(); s.Count == 0 {
			t.Errorf("%s recorded no samples", c.name)
		}
	}
	if got := hs.RTT.Snapshot().Quantile(0.5); got < float64(time.Millisecond) {
		t.Errorf("rtt p50 = %gns, want ≥ 5ms-ish sample", got)
	}

	// Receiver side: deliver a marked single-fragment message with a sender
	// timestamp and check the delivery histogram.
	rcfg := obsConfig()
	renv := &nullEnv{now: 20 * time.Millisecond}
	r := NewMachine(rcfg, renv)
	r.state = stEstablished
	r.rcvNxt = 10
	r.HandlePacket(&packet.Packet{
		Type: packet.DATA, Seq: 10, MsgID: 1, FragCnt: 1,
		Flags: packet.FlagMarked | packet.FlagMsgEnd,
		TS:    5 * time.Millisecond, Payload: []byte("x"),
	})
	s := r.Hists().Delivery.Snapshot()
	if s.Count != 1 {
		t.Fatalf("delivery samples = %d, want 1", s.Count)
	}
	if q := s.Quantile(0.5); q < float64(10*time.Millisecond) || q > float64(30*time.Millisecond) {
		t.Errorf("delivery p50 = %gns, want ≈15ms", q)
	}
}
