// Package core implements the IQ-RUDP protocol machine: a connection-
// oriented, datagram-based reliable UDP transport with window-based
// congestion control resembling Loss-Delay Adjustment (LDA), adaptive
// reliability (sender packet marking and receiver loss tolerance), exported
// network performance metrics, application-registered threshold callbacks,
// and — the paper's contribution — coordination of transport-level
// adaptation with application-level adaptation via quality attributes.
//
// The machine is sans-I/O: it consumes decoded packets and timer
// expirations, and produces outputs through an injected Env. The same
// machine runs under the deterministic simulator (internal/netem) and over
// real UDP sockets (internal/udpwire).
//
// Acknowledgement frequency is the driver's to choose. Fed packet by packet
// through HandlePacket, the machine answers every DATA packet with an ACK;
// that is what the simulator does. A driver that receives datagrams in
// kernel batches brackets each batch with BeginRun and EndRun, and the
// machine then acknowledges in-order data once per run while still
// answering every reorder, duplicate, hole and control packet at once.
package core

import (
	"fmt"
	"math"
	"time"

	"github.com/cercs/iqrudp/internal/fec"
	"github.com/cercs/iqrudp/internal/guard"
	"github.com/cercs/iqrudp/internal/trace"
)

// Config parameterises a Machine. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// MSS is the maximum DATA payload per packet in bytes (paper: 1400).
	MSS int

	// InitialCwnd is the initial congestion window in packets.
	InitialCwnd float64

	// MaxCwnd caps the congestion window in packets.
	MaxCwnd float64

	// RecvWindow is the advertised receive window in packets.
	RecvWindow uint16

	// MeasurementPeriod is the interval over which the error ratio is
	// computed and callbacks/metrics are refreshed.
	MeasurementPeriod time.Duration

	// LossTolerance is this endpoint's tolerance, as a receiver, for lost
	// unmarked traffic: the fraction of all application messages it can
	// tolerate not receiving. Advertised to the peer during the handshake.
	LossTolerance float64

	// Coordinate enables the IQ-RUDP coordination schemes. With it false the
	// machine behaves as plain RUDP: application adaptation reports are
	// accepted but ignored by the transport.
	Coordinate bool

	// DisableCC freezes the congestion window at FixedWindow packets
	// (used by the paper's "application adaptation only" configuration,
	// which disables the adaptive congestion window algorithm but keeps
	// providing performance metrics).
	DisableCC bool

	// FixedWindow is the frozen window size in packets when DisableCC is
	// set; 0 selects a bandwidth-delay-product-ish 54 packets.
	FixedWindow float64

	// HalvingDecrease switches the congestion controller's multiplicative
	// decrease from the LDA-like loss-proportional factor to TCP-style
	// halving (ablation).
	HalvingDecrease bool

	// RTOMin and RTOMax bound the retransmission timeout.
	RTOMin, RTOMax time.Duration

	// ConnID identifies the connection on the wire; 0 lets the machine pick.
	ConnID uint32

	// InitialSeq overrides the initial sequence number (0 = default 1).
	// Primarily for tests exercising sequence-space wraparound.
	InitialSeq uint32

	// Paced spreads transmissions over the round-trip time (one packet every
	// srtt/cwnd) instead of sending window bursts back to back. Pacing
	// trades a little latency for markedly smoother queue occupancy — the
	// traffic-smoothness theme of the paper, available as an ablation.
	Paced bool

	// Keepalive, when positive, sends a NUL probe after that much send-side
	// idle time (the RUDP draft's keepalive). Probes elicit acknowledgements,
	// so they also feed DeadInterval.
	Keepalive time.Duration

	// DeadInterval, when positive, aborts the connection after hearing
	// nothing from the peer for that long. Combine with Keepalive shorter
	// than DeadInterval so an idle-but-healthy peer stays provably alive.
	DeadInterval time.Duration

	// MaxSendBacklog, when positive, bounds the segmented-but-untransmitted
	// send queue in packets. At the bound the machine degrades gracefully
	// instead of growing without limit: unmarked messages are discarded at
	// ingress, and queued unmarked packets are abandoned (forward-seq) to
	// make room for marked ones — the Case-1 discard rule applied to local
	// overload, gated by the receiver's loss tolerance like every skip.
	// Zero means unbounded (the historical behavior).
	MaxSendBacklog int

	// FECGroup, when positive, enables forward-erasure repair (internal/fec)
	// and is this endpoint's declared decode preference: the largest repair
	// group size K (data packets per repair packet) it is willing to track as
	// a receiver, advertised to the peer during the handshake via the
	// FEC_GROUP attribute. As a sender the machine emits repair packets only
	// when the peer advertised a positive value, starting at the peer's K and
	// adapting downward as measured loss grows. Zero disables FEC entirely
	// (no advertisement, arriving REPAIR packets ignored). Values are clamped
	// to [2, fec.GroupMax] on the wire.
	FECGroup int

	// ResumeToken, when non-empty, is carried as the SYN payload: a resuming
	// dialer names its dead predecessor connection so the server can evict
	// it (built with packet.AppendResumeToken; see Conn.Resume in udpwire).
	ResumeToken []byte

	// Tracer, when non-nil, receives a structured event at every machine
	// decision point (see the internal/trace package for the taxonomy and
	// sinks). Nil disables tracing at zero cost: no event is constructed.
	// The machine invokes the tracer synchronously from its driving
	// context; implementations must be fast and safe for concurrent use
	// when one sink is shared across connections.
	Tracer trace.Tracer

	// Hists, when non-nil, receives distribution samples (RTT, delivery
	// latency, ack delay, send-backlog depth) at the machine's measurement
	// points. Build it with NewHists. Recording is lock-free and
	// allocation-free, so one Hists may be shared across connections for
	// fleet-wide aggregation or kept per-connection for flight-record
	// summaries. Nil disables at the cost of one untaken branch per point.
	Hists *Hists

	// FlightEvents, when positive, keeps an always-on ring of that many
	// most-recent trace events per connection (in addition to Tracer, which
	// may be nil). On abnormal close the ring, the final Metrics and the
	// histogram summaries are snapshotted into a FlightRecord — the
	// connection's black box, retrievable via Machine.FlightRecord. Zero
	// disables the recorder.
	FlightEvents int

	// Pressure, when non-nil, samples the driver's global brownout level
	// (0 = none; see guard.Governor). The machine consults it on elastic-
	// memory decision points: at level ≥ 1 unmarked ingress is shed (within
	// the receiver's loss tolerance, exactly like MaxSendBacklog overload),
	// and at level ≥ 2 the advertised receive window is clamped. The
	// function must be safe to call from the machine's driving context and
	// cheap (an atomic load and a few compares). Nil disables both hooks.
	Pressure func() int

	// Mem, when non-nil, is a shared byte ledger the machine charges for its
	// elastic buffers — send backlog, out-of-order buffer, reassembly — so a
	// serving engine can bound aggregate memory across thousands of
	// connections (see guard.Ledger and the serve engine's governor). Nil
	// disables accounting at zero cost.
	Mem *guard.Ledger
}

// DefaultConfig returns the paper's standard transport parameters.
func DefaultConfig() Config {
	return Config{
		MSS:               1400,
		InitialCwnd:       2,
		MaxCwnd:           1024,
		RecvWindow:        512,
		MeasurementPeriod: 500 * time.Millisecond,
		LossTolerance:     0,
		Coordinate:        true,
		RTOMin:            200 * time.Millisecond,
		RTOMax:            10 * time.Second,
	}
}

// sanitize fills defaults for unset fields.
func (c *Config) sanitize() {
	if c.MSS <= 0 {
		c.MSS = 1400
	}
	if c.InitialCwnd <= 0 {
		c.InitialCwnd = 2
	}
	if c.MaxCwnd <= 0 {
		c.MaxCwnd = 1024
	}
	if c.RecvWindow == 0 {
		c.RecvWindow = 512
	}
	if c.MeasurementPeriod <= 0 {
		c.MeasurementPeriod = 500 * time.Millisecond
	}
	if c.RTOMin <= 0 {
		c.RTOMin = 200 * time.Millisecond
	}
	if c.RTOMax <= 0 {
		c.RTOMax = 10 * time.Second
	}
	if c.DisableCC && c.FixedWindow <= 0 {
		c.FixedWindow = 54
	}
	if c.FECGroup < 0 {
		c.FECGroup = 0
	}
	if c.FECGroup > fec.GroupMax {
		c.FECGroup = fec.GroupMax
	}
}

// AdaptKind classifies an application adaptation for the transport.
type AdaptKind uint8

// Application adaptation kinds (paper §2.3.2).
const (
	// AdaptNone reports no adaptation.
	AdaptNone AdaptKind = iota
	// AdaptFrequency: same message size, lower frequency. No window change.
	AdaptFrequency
	// AdaptResolution: smaller messages at the same frequency. The
	// coordinated transport grows its packet window by 1/(1−Degree) while
	// frames are below the MSS.
	AdaptResolution
	// AdaptReliability: the application unmarks a fraction of its traffic.
	// The coordinated transport discards unmarked messages before they reach
	// the network, within the receiver's loss tolerance.
	AdaptReliability
)

// String names the kind.
func (k AdaptKind) String() string {
	switch k {
	case AdaptNone:
		return "none"
	case AdaptFrequency:
		return "frequency"
	case AdaptResolution:
		return "resolution"
	case AdaptReliability:
		return "reliability"
	default:
		return "invalid"
	}
}

// AdaptationReport describes an application-level adaptation to the
// transport. It is the structured form of the ADAPT_* attribute set: a
// callback may return one, or the application passes the equivalent
// attributes on a SendMsg call.
type AdaptationReport struct {
	Kind AdaptKind

	// Degree quantifies the adaptation: for resolution, the frame-size
	// reduction rate_chg in [0,1) (negative for increases); for reliability,
	// the unmark probability in [0,1]; for frequency, the frequency factor.
	Degree float64

	// WhenFrames is the number of application frames until the adaptation
	// takes effect: 0 means immediately, >0 means delayed (ADAPT_WHEN), and
	// −1 means the application will not adapt.
	WhenFrames int

	// CondErrorRatio is the error ratio the application based this
	// adaptation on (ADAPT_COND); NaN when not supplied.
	CondErrorRatio float64

	// FrameSize is the application's frame size in bytes after the
	// adaptation, used for the below-MSS window-growth condition. 0 means
	// unknown (treated as below MSS).
	FrameSize int
}

// NoAdaptation is the report meaning "the application will not adapt".
func NoAdaptation() *AdaptationReport {
	return &AdaptationReport{Kind: AdaptNone, WhenFrames: -1, CondErrorRatio: math.NaN()}
}

// CallbackInfo is the network state snapshot passed to threshold callbacks.
type CallbackInfo struct {
	Now        time.Duration // virtual time of the callback
	ErrorRatio float64       // per-period error ratio that crossed the threshold
	RawRatio   float64       // same as ErrorRatio (kept for clarity at call sites)
	Smoothed   float64       // EWMA-smoothed ratio (what the controller uses)
	RateBps    float64       // delivery rate estimate, bytes/s
	SRTT       time.Duration // smoothed round-trip time
	Cwnd       float64       // current congestion window, packets
}

// ThresholdCallback is invoked when the measured error ratio crosses a
// registered threshold. The return value describes the application's
// adaptation (nil means none). With coordination enabled the transport
// re-adapts accordingly (paper §2.3).
//
// At most one callback fires per measurement period. When a period
// satisfies both registered thresholds — possible with misconfigured
// thresholds, e.g. upper == lower — the upper callback deterministically
// takes precedence and the lower callback is not invoked for that period.
type ThresholdCallback func(info CallbackInfo) *AdaptationReport

// Metrics is a snapshot of the transport's internal measurements, the
// queryable network performance metrics of paper §2.1.
type Metrics struct {
	SRTT       time.Duration
	RTTVar     time.Duration
	ErrorRatio float64 // smoothed
	RawRatio   float64 // last period, unsmoothed
	RateBps    float64 // acked bytes/s over the last period
	Cwnd       float64 // packets
	InFlight   int

	SentPackets    uint64 // DATA transmissions, including retransmissions
	Retransmits    uint64
	SkippedPackets uint64 // abandoned unmarked packets (forward-seq)
	SenderDiscards uint64 // unmarked messages discarded before sending (Case 1)
	DeadlineDrops  uint64 // unmarked packets abandoned after their deadline
	AckedPackets   uint64
	DeliveredMsgs  uint64 // messages delivered to the local application
	PartialMsgs    uint64 // delivered with missing fragments
	LostMsgs       uint64 // messages skipped entirely
	AckedBytes     uint64
	WindowRescales uint64 // coordination window adjustments (Cases 2/3)
	TxErrors       uint64 // socket-level transmit failures reported by the driver
	ShedMsgs       uint64 // messages lost to backlog shedding (MaxSendBacklog)
	ShedPackets    uint64 // queued packets abandoned by backlog shedding
	ShedBytes      uint64 // payload bytes shed under local overload

	FecRepairsSent     uint64 // REPAIR packets emitted (sender side)
	FecRepairsRecv     uint64 // REPAIR packets handled (receiver side)
	FecRecovered       uint64 // data packets reconstructed from repair groups
	FecRecoveredMarked uint64 // recovered packets that were marked (a retransmit the ack race can now cancel)
	EackClips          uint64 // acks whose EACK extent list hit the per-ack cap
}

// String formats the snapshot as a one-line summary, the form used by
// cmd/iqload's final report.
func (m Metrics) String() string {
	return fmt.Sprintf(
		"srtt=%v rttvar=%v cwnd=%.1f inflight=%d loss=%.2f%% raw=%.2f%% rate=%.1fKB/s "+
			"sent=%d rtx=%d acked=%d skipped=%d discarded=%d deadline=%d "+
			"delivered=%d partial=%d lost=%d ackedKB=%.1f rescales=%d txerr=%d "+
			"shed=%d/%dpkt/%.1fKB fec=%d/%d/%d(%dm) eackclip=%d",
		m.SRTT.Round(time.Microsecond), m.RTTVar.Round(time.Microsecond),
		m.Cwnd, m.InFlight, m.ErrorRatio*100, m.RawRatio*100, m.RateBps/1000,
		m.SentPackets, m.Retransmits, m.AckedPackets, m.SkippedPackets,
		m.SenderDiscards, m.DeadlineDrops,
		m.DeliveredMsgs, m.PartialMsgs, m.LostMsgs,
		float64(m.AckedBytes)/1000, m.WindowRescales, m.TxErrors,
		m.ShedMsgs, m.ShedPackets, float64(m.ShedBytes)/1000,
		m.FecRepairsSent, m.FecRepairsRecv, m.FecRecovered, m.FecRecoveredMarked,
		m.EackClips)
}
