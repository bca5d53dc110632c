// Package iqrudp is a Go implementation of IQ-RUDP (He & Schwan, HPDC 2002):
// a connection-oriented reliable UDP transport that coordinates its own
// congestion-control adaptations with application-level adaptations.
//
// The transport provides:
//
//   - in-order reliable datagram delivery with TCP-like, LDA-style
//     congestion control (window-based, loss-proportional decrease);
//   - adaptive reliability: senders mark messages as must-deliver or
//     droppable, receivers declare a loss tolerance, and the transport
//     abandons droppable data within that tolerance instead of
//     retransmitting it;
//   - exported network performance metrics (loss ratio, RTT, rate, window)
//     as quality attributes, and application callbacks on error-ratio
//     thresholds;
//   - coordination: applications describe their adaptations — frequency,
//     resolution (down-sampling) and reliability (unmarking) — via
//     AdaptationReports or ADAPT_* attributes on send calls, and the
//     transport re-adapts its window and send pipeline accordingly.
//
// Two drivers run the same protocol machine: this package's Dial/Listen run
// it over real UDP sockets (Listen starts the sharded server engine, the
// one acceptor); the simnet subpackage runs it on a
// deterministic network simulator (the evaluation substrate that regenerates
// the paper's tables — see cmd/iqbench).
//
// # Observability
//
// Setting Config.Tracer streams a structured, qlog-inspired event at every
// machine decision point: state changes, per-packet lifecycle, RTO
// activity, window updates with their LDA inputs, measurement periods,
// threshold callbacks and the coordination decisions of the paper's Cases
// 1–3. Three sinks ship with the package — NewTraceRing (flight
// recorder), NewTraceJSONL (offline analysis; cmd/iqstat reads it) and
// NewTraceCounters (live aggregates) — composable via MultiTracer. The
// metricsexp subpackage serves the counters as Prometheus text and expvar
// JSON over HTTP. See README.md's Observability section and cmd/iqstat.
//
// Quickstart (real sockets):
//
//	ln, _ := iqrudp.Listen("127.0.0.1:9999", iqrudp.ServerConfig(0.2))
//	go func() {
//		conn, _ := ln.Accept(0)
//		for {
//			msg, err := conn.Recv(0)
//			if err != nil { return }
//			fmt.Printf("got %d bytes (marked=%v)\n", len(msg.Data), msg.Marked)
//		}
//	}()
//	conn, _ := iqrudp.Dial("127.0.0.1:9999", iqrudp.DefaultConfig())
//	conn.Send([]byte("critical"), true)   // reliable
//	conn.Send([]byte("best-effort"), false) // droppable within tolerance
//
// Conn.Send and Conn.SendMsg keep the caller's slice, without copying it,
// until the peer acknowledges it: do not modify or reuse a buffer after
// passing it to Send.
package iqrudp

import (
	"time"

	"github.com/cercs/iqrudp/internal/attr"
	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/serve"
	"github.com/cercs/iqrudp/internal/trace"
	"github.com/cercs/iqrudp/internal/udpwire"
)

// Core protocol types, re-exported.
type (
	// Config parameterises a connection's transport machine.
	Config = core.Config
	// Message is one delivered application datagram.
	Message = core.Message
	// Metrics is a snapshot of the transport's measurements.
	Metrics = core.Metrics
	// AdaptationReport describes an application-level adaptation.
	AdaptationReport = core.AdaptationReport
	// AdaptKind classifies an adaptation (frequency/resolution/reliability).
	AdaptKind = core.AdaptKind
	// CallbackInfo is the network snapshot passed to threshold callbacks.
	CallbackInfo = core.CallbackInfo
	// ThresholdCallback reacts to error-ratio threshold crossings.
	ThresholdCallback = core.ThresholdCallback
)

// Adaptation kinds.
const (
	AdaptNone        = core.AdaptNone
	AdaptFrequency   = core.AdaptFrequency
	AdaptResolution  = core.AdaptResolution
	AdaptReliability = core.AdaptReliability
)

// Quality-attribute types, re-exported.
type (
	// Attr is a single <name, value> quality attribute.
	Attr = attr.Attr
	// AttrList is an ordered attribute collection.
	AttrList = attr.List
	// AttrValue is a typed attribute value.
	AttrValue = attr.Value
	// AttrRegistry is the shared per-connection attribute store.
	AttrRegistry = attr.Registry
)

// Attribute value constructors.
var (
	Int    = attr.Int
	Float  = attr.Float
	String = attr.String_
	Bool   = attr.Bool
)

// NewAttrList builds an attribute list.
func NewAttrList(attrs ...Attr) *AttrList { return attr.NewList(attrs...) }

// Standard attribute names (see the paper, §2.3.2).
const (
	AdaptFreqAttr     = attr.AdaptFreq
	AdaptMarkAttr     = attr.AdaptMark
	AdaptPktSizeAttr  = attr.AdaptPktSize
	AdaptWhenAttr     = attr.AdaptWhen
	AdaptCondAttr     = attr.AdaptCond
	NetLossAttr       = attr.NetLoss
	NetRTTAttr        = attr.NetRTT
	NetRateAttr       = attr.NetRate
	NetCwndAttr       = attr.NetCwnd
	LossToleranceAttr = attr.LossTolerance
)

// Observability types, re-exported from the trace subsystem. Assign a
// Tracer to Config.Tracer to stream machine events; see the package doc's
// Observability section for the taxonomy.
type (
	// Tracer consumes machine events; implementations must be concurrency-
	// safe and fast (the machine calls Trace synchronously).
	Tracer = trace.Tracer
	// TraceEvent is one structured machine event.
	TraceEvent = trace.Event
	// TraceEventType enumerates the event taxonomy.
	TraceEventType = trace.Type
	// TraceRing is the fixed-size flight recorder sink.
	TraceRing = trace.Ring
	// TraceJSONL is the one-JSON-object-per-line offline-analysis sink.
	TraceJSONL = trace.JSONL
	// TraceCounters is the atomic aggregation sink feeding metricsexp.
	TraceCounters = trace.Counters
)

// Trace event types.
const (
	TraceConnState              = trace.ConnState
	TracePacketSent             = trace.PacketSent
	TracePacketReceived         = trace.PacketReceived
	TracePacketAcked            = trace.PacketAcked
	TracePacketLost             = trace.PacketLost
	TracePacketRetransmitted    = trace.PacketRetransmitted
	TracePacketAbandoned        = trace.PacketAbandoned
	TraceRTOFired               = trace.RTOFired
	TraceRTOBackoff             = trace.RTOBackoff
	TraceCwndUpdate             = trace.CwndUpdate
	TraceMeasurementPeriod      = trace.MeasurementPeriod
	TraceThresholdCallbackFired = trace.ThresholdCallbackFired
	TraceCoordinationDecision   = trace.CoordinationDecision
	TraceTxError                = trace.TxError
	// TraceFaultInjected marks a fault the chaoswire middlebox applied to a
	// datagram (test/benchmark runs only; never emitted by the transport).
	TraceFaultInjected = trace.FaultInjected
	// TraceConnResumed marks a session resumption (Conn.Resume / the serve
	// engine admitting a resume token).
	TraceConnResumed = trace.ConnResumed
	// TraceShedUnmarked marks graceful degradation under local overload
	// (Config.MaxSendBacklog shedding unmarked traffic).
	TraceShedUnmarked = trace.ShedUnmarked
	// TraceFecRepairSent marks a REPAIR packet emitted for a repair group
	// (Config.FECGroup; Seq is the group base, Size the parity bytes).
	TraceFecRepairSent = trace.FecRepairSent
	// TraceFecRecovered marks a lost DATA packet reconstructed from parity
	// and re-injected through the normal receive path.
	TraceFecRecovered = trace.FecRecovered
	// TraceFecRateChange marks the loss-adaptive repair-group resize at a
	// measurement-period close (PrevCwnd/Cwnd carry the old/new group size).
	TraceFecRateChange = trace.FecRateChange
	// TraceEackClipped marks an EACK whose out-of-order list exceeded the
	// per-packet bound and was truncated (Size is the clipped tail length).
	TraceEackClipped = trace.EackClipped
	// TraceRetrySent marks a SYN answered statelessly with a RETRY
	// address-validation challenge (serve engine under load or with
	// AlwaysValidate; Reason distinguishes a failed cookie or a denied
	// eviction from a plain challenge).
	TraceRetrySent = trace.RetrySent
	// TraceAmpCapped marks a transmission suppressed by the 3x
	// anti-amplification budget toward a not-yet-validated peer.
	TraceAmpCapped = trace.AmpCapped
)

// Histogram and postmortem types, re-exported. Setting Config.Hists (see
// NewHists) records latency/depth distributions on the machine's hot paths;
// Config.FlightEvents > 0 arms the per-connection flight recorder, whose
// black-box snapshot Conn.FlightRecord returns after an abnormal close.
// The serve engine enables both by default for accepted connections and
// aggregates them (Server.HistSnapshots, Server.FlightRecords,
// Server.Introspect); cmd/iqstat -flight renders a dumped record.
type (
	// Hists is the per-connection histogram set sampled by the machine.
	Hists = core.Hists
	// FlightRecord is the black-box snapshot of an abnormally-closed
	// connection: final state and reason, metrics, histogram summaries and
	// the last ring of trace events.
	FlightRecord = core.FlightRecord
)

// NewHists allocates a histogram set for Config.Hists.
var NewHists = core.NewHists

// Trace sink constructors and helpers.
var (
	// NewTraceRing returns a ring buffer keeping the n most recent events.
	NewTraceRing = trace.NewRing
	// NewTraceJSONL returns a JSONL sink writing to an io.Writer; call its
	// Close (or Flush) before reading the destination.
	NewTraceJSONL = trace.NewJSONL
	// NewTraceCounters returns the aggregating counters sink.
	NewTraceCounters = trace.NewCounters
	// MultiTracer fans events out to several sinks.
	MultiTracer = trace.Multi
	// ReadTraceJSONL parses a JSONL trace back into events.
	ReadTraceJSONL = trace.ReadJSONL
)

// Socket driver types, re-exported.
type (
	// Conn is an IQ-RUDP connection over a UDP socket. Its Send and SendMsg
	// keep the caller's slice until the peer acknowledges it.
	Conn = udpwire.Conn
	// Server accepts IQ-RUDP connections: the sharded server engine, with
	// ConnID-keyed demux and peer-address migration, per-shard SO_REUSEPORT
	// sockets and batched I/O on Linux, RST backpressure and graceful drain.
	Server = serve.Server
	// ServerOptions tunes the engine (shards, backlog, drain, validation).
	ServerOptions = serve.Options
	// ServerStats is a point-in-time snapshot of the engine's counters.
	ServerStats = serve.Stats
	// ServerShardStats is one shard's I/O counters within ServerStats.
	ServerShardStats = serve.ShardStats
)

// Driver errors. All implement net.Error; ErrTimeout, ErrPeerDead and
// ErrHandshakeTimeout report Timeout() true. Dial and Resume wrap them in
// *OpError (errors.Is still matches the sentinels through the wrapping).
var (
	ErrClosed  = udpwire.ErrClosed
	ErrTimeout = udpwire.ErrTimeout
	// ErrRefused reports that the server answered the handshake with RST
	// (accept queue full, ConnID collision, or draining).
	ErrRefused = udpwire.ErrRefused
	// ErrPeerDead reports a connection aborted after hearing nothing from
	// the peer for Config.DeadInterval; Conn.Resume can replace it.
	ErrPeerDead = udpwire.ErrPeerDead
	// ErrHandshakeTimeout reports a Dial whose handshake never completed.
	ErrHandshakeTimeout = udpwire.ErrHandshakeTimeout
)

// OpError wraps a driver error with operation context ("dial", "resume")
// and the remote address.
type OpError = udpwire.OpError

// Dialer bundles a dial target and configuration so a dead connection can
// be re-established (Redial) with session resumption: the successor names
// its predecessor in the handshake, the server evicts the zombie, and
// marked messages the predecessor never saw acknowledged are re-sent.
// Conn.Resume is the per-connection shorthand.
type Dialer = udpwire.Dialer

// DefaultConfig returns the standard transport parameters (1400 B segments,
// coordination enabled, zero receiver loss tolerance).
func DefaultConfig() Config { return core.DefaultConfig() }

// ServerConfig returns DefaultConfig with the given receiver loss tolerance:
// the fraction of unmarked application messages this endpoint is willing to
// lose in exchange for timeliness.
func ServerConfig(lossTolerance float64) Config {
	cfg := core.DefaultConfig()
	cfg.LossTolerance = lossTolerance
	return cfg
}

// Dial opens a connection to raddr ("host:port"), blocking until the
// handshake completes (default timeout 10 s).
func Dial(raddr string, cfg Config) (*Conn, error) {
	return udpwire.Dial(raddr, cfg, 0)
}

// DialTimeout is Dial with an explicit handshake timeout.
func DialTimeout(raddr string, cfg Config, timeout time.Duration) (*Conn, error) {
	return udpwire.Dial(raddr, cfg, timeout)
}

// Listen binds laddr ("host:port") and starts the server engine with its
// default options; accepted connections are configured with cfg. A client
// whose source address changes mid-connection (a NAT rebind) keeps its
// connection: the engine identifies connections by ConnID, not address.
func Listen(laddr string, cfg Config) (*Server, error) {
	return serve.Listen(laddr, cfg, serve.Options{})
}

// ListenServer is Listen with explicit engine options. Accepted connections
// are ordinary *Conn values. A zero ServerOptions selects the defaults
// (GOMAXPROCS shards, backlog 128, 5 s drain).
func ListenServer(laddr string, cfg Config, opts ServerOptions) (*Server, error) {
	return serve.Listen(laddr, cfg, opts)
}

// NoAdaptation is the callback return value meaning "the application will
// not adapt".
func NoAdaptation() *AdaptationReport { return core.NoAdaptation() }
