// Package trace is the IQ-RUDP observability subsystem: a qlog-inspired
// structured event stream emitted by the protocol machine at every decision
// point — connection state changes, per-packet lifecycle (sent, received,
// acked, lost, retransmitted, abandoned), retransmission-timer activity,
// congestion-window updates with the LDA inputs that produced them,
// measurement-period closes, threshold-callback firings, and the
// coordination decisions of the paper's Cases 1–3 together with the
// triggering AdaptationReport fields.
//
// A machine holds at most one Tracer (set via core.Config.Tracer). When the
// field is nil the instrumentation reduces to an untaken nil check per
// decision point: no Event is constructed, nothing escapes, nothing
// allocates. When set, Events are built on the stack and handed to the
// Tracer by value; whether tracing allocates is then the sink's business.
//
// Three sinks ship with the package:
//
//   - Ring: a fixed-size ring buffer of events stored by value, for
//     always-on flight recording and post-mortem dumps;
//   - JSONL: a qlog-inspired one-object-per-line JSON writer for offline
//     analysis (cmd/iqstat reads this format);
//   - Counters: atomic per-event-type counters plus last-value gauges,
//     the feed for the metricsexp Prometheus/expvar exporter.
//
// Multi fans one event stream out to several sinks.
//
// Drivers may invoke the Tracer from multiple goroutines (udpwire calls it
// from the reader and from timer goroutines, serialised by the connection
// lock, but distinct connections may share one sink); every sink in this
// package is safe for concurrent use.
package trace

import "time"

// Type enumerates the event taxonomy.
type Type uint8

// Event types, one per instrumented decision point.
const (
	// ConnState records a connection state-machine transition (From → To).
	ConnState Type = iota
	// PacketSent records a first transmission of a DATA packet.
	PacketSent
	// PacketReceived records an accepted incoming DATA packet.
	PacketReceived
	// PacketAcked records a DATA packet leaving the flight window via a
	// cumulative ack, or via an EACK extent (Reason "eack").
	PacketAcked
	// PacketLost records a loss detection (Reason "dupack" or "sack").
	PacketLost
	// PacketRetransmitted records a repair transmission.
	PacketRetransmitted
	// PacketAbandoned records partial-reliability giving up on a packet or
	// message: Reason "skip" (loss of an unmarked packet within tolerance),
	// "deadline" (stale before first transmission), or "case1-discard"
	// (Case-1 sender discard before segmentation; Seq is then zero).
	PacketAbandoned
	// RTOFired records a retransmission-timeout expiry (RTO holds the
	// timeout that fired; Seq the packet it fired for).
	RTOFired
	// RTOBackoff records a Karn backoff of the retransmission timeout.
	RTOBackoff
	// CwndUpdate records a congestion-window change together with the LDA
	// inputs: PrevCwnd → Cwnd, the smoothed ErrorRatio and SRTT at the
	// decision, and Reason "ack", "loss", "timeout" or "coordination".
	CwndUpdate
	// MeasurementPeriod records a measurement-period close: RawRatio for
	// the period, the smoothed ErrorRatio, RateBps, SRTT and Cwnd.
	MeasurementPeriod
	// ThresholdCallbackFired records an application threshold callback
	// invocation (Reason "upper" or "lower"); Kind carries the returned
	// adaptation kind, or "nil" when the callback returned no report.
	ThresholdCallbackFired
	// CoordinationDecision records a transport re-adaptation decision for
	// the paper's Cases 1–3. Case is 1, 2 or 3; Kind, Degree and WhenFrames
	// mirror the triggering AdaptationReport; Factor is the applied window
	// rescale (zero when the decision was not to rescale, with Reason
	// explaining why).
	CoordinationDecision
	// TxError records a socket-level transmit failure observed by the
	// driver (Env.Emit cannot return an error); Size carries the number of
	// datagrams affected and Reason the OS error text.
	TxError
	// FaultInjected records a fault deliberately applied to a datagram by
	// the chaoswire middlebox (Reason "drop", "reorder", "corrupt",
	// "truncate", "delay", "blackhole", "rebind", or "dup" for
	// duplication); Size carries the datagram length and ConnID the
	// connection the datagram belonged to, when parseable.
	FaultInjected
	// ConnResumed records a session resumption: a dialer renegotiated a
	// fresh connection ID after its predecessor died (dead interval, NAT
	// rebind). ConnID is the successor's ID, Seq carries the predecessor's
	// ID, and Size the number of carried-over marked messages (client side).
	ConnResumed
	// ShedUnmarked records graceful degradation under local overload: an
	// unmarked message or queued packet abandoned because the send backlog
	// exceeded Config.MaxSendBacklog (Reason "shed-ingress" before
	// segmentation, "shed-queue" for queued packets making room for marked
	// data); Size carries the shed payload bytes.
	ShedUnmarked
	// FecRepairSent records a REPAIR packet emitted by the sender's FEC
	// encoder: Seq is the group base sequence number, Size the parity
	// payload length, and Reason "" for a full group or "fec-flush" for a
	// partial group flushed at idle.
	FecRepairSent
	// FecRecovered records a data packet reconstructed from a repair group
	// on the receive path: Seq/MsgID/Size/Marked describe the recovered
	// packet, which then re-enters HandlePacket like a wire arrival.
	FecRecovered
	// FecRateChange records the sender's adaptive repair-rate update at a
	// measurement-period close: PrevCwnd → Cwnd carry the old and new group
	// size K (data packets per repair), ErrorRatio the smoothed loss signal
	// that drove it, Reason "fec-adapt".
	FecRateChange
	// EackClipped records the receiver truncating its EACK extent list at
	// the per-ack cap; Size is the number of out-of-order extents dropped
	// from the acknowledgement.
	EackClipped
	// RetrySent records the serve engine answering a SYN statelessly with a
	// RETRY challenge instead of allocating connection state: ConnID is the
	// initiator's proposed ID, Size the cookie length, and Reason "" for a
	// load-triggered challenge, "bad-cookie" when a presented cookie failed
	// verification, or "evict-denied" when the SYN asked to evict existing
	// state without proof of path ownership.
	RetrySent
	// AmpCapped records the anti-amplification gate suppressing an outgoing
	// packet to a not-yet-validated peer because sending it would exceed
	// three times the bytes received from that address; ConnID is the
	// affected connection and Size the suppressed packet's length.
	AmpCapped

	// NumTypes is the number of event types (array-sizing sentinel).
	NumTypes
)

var typeNames = [NumTypes]string{
	ConnState:              "state_change",
	PacketSent:             "packet_sent",
	PacketReceived:         "packet_received",
	PacketAcked:            "packet_acked",
	PacketLost:             "packet_lost",
	PacketRetransmitted:    "packet_retransmitted",
	PacketAbandoned:        "packet_abandoned",
	RTOFired:               "rto_fired",
	RTOBackoff:             "rto_backoff",
	CwndUpdate:             "cwnd_update",
	MeasurementPeriod:      "measurement_period",
	ThresholdCallbackFired: "threshold_callback",
	CoordinationDecision:   "coordination_decision",
	TxError:                "tx_error",
	FaultInjected:          "fault.injected",
	ConnResumed:            "conn.resumed",
	ShedUnmarked:           "shed.unmarked",
	FecRepairSent:          "fec.repair_sent",
	FecRecovered:           "fec.recovered",
	FecRateChange:          "fec.rate",
	EackClipped:            "eack.clipped",
	RetrySent:              "retry.sent",
	AmpCapped:              "amp.capped",
}

// String returns the stable wire name of the type (the qlog-style event
// name used by the JSONL schema).
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return "unknown"
}

// TypeByName resolves a wire name back to its Type.
func TypeByName(name string) (Type, bool) {
	for i, n := range typeNames {
		if n == name {
			return Type(i), true
		}
	}
	return NumTypes, false
}

// Event is one machine event. It is a flat value type so call sites can
// build it on the stack; fields irrelevant to a given Type are zero.
type Event struct {
	Time   time.Duration // virtual time of the event
	Type   Type
	ConnID uint32

	// Packet lifecycle fields.
	Seq    uint32
	MsgID  uint32
	Size   int  // payload bytes
	Marked bool // must-deliver flag

	// Congestion / measurement fields.
	Cwnd       float64       // window after the event, packets
	PrevCwnd   float64       // window before the event, packets
	ErrorRatio float64       // smoothed error ratio at the event
	RawRatio   float64       // per-period raw ratio (measurement events)
	RateBps    float64       // delivery-rate estimate, bytes/s
	SRTT       time.Duration // smoothed RTT at the event
	RTO        time.Duration // retransmission timeout (RTO events)

	// Coordination fields (mirroring core.AdaptationReport).
	Case       int     // 1, 2 or 3
	Kind       string  // adaptation kind name
	Degree     float64 // adaptation degree
	Factor     float64 // applied window-rescale factor (0 = none)
	WhenFrames int     // delayed-adaptation horizon

	// State-change fields.
	From, To string

	// Reason qualifies the event ("ack", "loss", "timeout", "eack",
	// "deadline", "upper", "lower", ...).
	Reason string
}

// Tracer consumes machine events. Implementations must be safe for
// concurrent use and should return quickly: the machine invokes Trace
// synchronously from its driving context (the simulator event loop or the
// socket driver's lock).
type Tracer interface {
	Trace(ev Event)
}

// multi fans events out to several tracers.
type multi []Tracer

func (m multi) Trace(ev Event) {
	for _, t := range m {
		t.Trace(ev)
	}
}

// Multi returns a Tracer duplicating every event to all non-nil tracers.
// With zero or one non-nil argument it avoids the fan-out indirection.
func Multi(tracers ...Tracer) Tracer {
	out := make(multi, 0, len(tracers))
	for _, t := range tracers {
		if t != nil {
			out = append(out, t)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return out
	}
}
