package core

import (
	"time"

	"github.com/cercs/iqrudp/internal/hist"
	"github.com/cercs/iqrudp/internal/trace"
)

// This file holds the machine's distribution instrumentation (latency and
// depth histograms) and the per-connection flight recorder. Both follow the
// tracing discipline of trace.go: every hook is nil-gated, so a machine
// configured without them pays one untaken branch per decision point and
// constructs nothing.

// Hists bundles the machine's four distribution metrics. Build it with
// NewHists; the individual histograms are lock-free, so one Hists may be
// shared by any number of connections (fleet-wide aggregation) or kept
// per-connection (flight-record summaries) — recording is two atomic adds
// either way.
type Hists struct {
	// RTT records every accepted round-trip sample (sender side).
	RTT *hist.Hist
	// Delivery records send→deliver latency of marked messages (receiver
	// side, sender timestamps: exact under the simulator, skew-bounded over
	// real sockets).
	Delivery *hist.Hist
	// AckDelay records send→acknowledgement delay per packet, including
	// retransmission waits (sender side, single clock).
	AckDelay *hist.Hist
	// Backlog records the untransmitted send-queue depth at each SendMsg.
	Backlog *hist.Hist
	// FecRepair records hole-open→reconstruction latency of packets the FEC
	// repair layer recovered (receiver side, single clock).
	FecRepair *hist.Hist
}

// NewHists builds the standard machine histogram set.
func NewHists() *Hists {
	return &Hists{
		RTT:       hist.NewLatency(hist.MetricRTT),
		Delivery:  hist.NewLatency(hist.MetricDelivery),
		AckDelay:  hist.NewLatency(hist.MetricAckDelay),
		Backlog:   hist.NewDepth(hist.MetricBacklog),
		FecRepair: hist.NewLatency(hist.MetricFecRepair),
	}
}

// all returns the histograms in declaration order.
func (h *Hists) all() [5]*hist.Hist {
	return [5]*hist.Hist{h.RTT, h.Delivery, h.AckDelay, h.Backlog, h.FecRepair}
}

// Snapshots copies the current state of every histogram.
func (h *Hists) Snapshots() []hist.Snapshot {
	out := make([]hist.Snapshot, 0, 5)
	for _, hh := range h.all() {
		out = append(out, hh.Snapshot())
	}
	return out
}

// Summaries condenses the non-empty histograms into quantile summaries —
// the compact form carried by flight records.
func (h *Hists) Summaries() []hist.Summary {
	out := make([]hist.Summary, 0, 5)
	for _, hh := range h.all() {
		if s := hh.Snapshot(); s.Count > 0 {
			out = append(out, s.Summary())
		}
	}
	return out
}

// sampleRTT feeds one round-trip sample to the estimator and, when
// configured, the RTT histogram — the single choke point for RTT samples.
func (m *Machine) sampleRTT(d time.Duration) {
	m.rtt.Sample(d)
	if m.hs != nil {
		m.hs.RTT.RecordDur(d)
	}
}

// FlightRecord is a connection's black box: the snapshot taken at abnormal
// close of its recent trace events, final metrics and histogram summaries.
// It is plain data, JSON-serialisable for the introspection endpoint and
// readable by cmd/iqstat -flight.
type FlightRecord struct {
	ConnID      uint32         `json:"conn_id"`
	Peer        string         `json:"peer,omitempty"` // filled by the driver
	State       string         `json:"state"`
	CloseReason string         `json:"close_reason"`
	ClosedAt    time.Duration  `json:"closed_at_ns"`
	Metrics     Metrics        `json:"metrics"`
	Hists       []hist.Summary `json:"hists,omitempty"`
	Events      []trace.Event  `json:"events,omitempty"`
	Dropped     uint64         `json:"events_dropped,omitempty"` // ring overwrites before the snapshot
}

// snapFlight captures the flight record on the dead transition. Clean
// closes (orderly FIN in either direction) leave no record: the black box
// exists to answer "why did this die", and those died on purpose.
func (m *Machine) snapFlight(reason string) {
	if m.flightRing == nil {
		return
	}
	switch reason {
	case trace.ReasonLocalClose, trace.ReasonRemoteFin:
		return
	}
	rec := &FlightRecord{
		ConnID:      m.connID,
		State:       m.state.String(),
		CloseReason: reason,
		ClosedAt:    m.now,
		Metrics:     m.Metrics(),
		Events:      m.flightRing.Events(),
		Dropped:     m.flightRing.Dropped(),
	}
	if m.hs != nil {
		rec.Hists = m.hs.Summaries()
	}
	m.flightRec = rec
}

// FlightRecord returns the black-box snapshot taken when the connection
// closed abnormally, or nil (connection still alive, closed cleanly, or
// Config.FlightEvents was zero). Like every Machine method it must be
// called from the driver's serialisation context.
func (m *Machine) FlightRecord() *FlightRecord { return m.flightRec }

// Hists returns the histogram set this machine records into (nil when
// unconfigured).
func (m *Machine) Hists() *Hists { return m.hs }
