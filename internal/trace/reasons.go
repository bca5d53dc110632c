package trace

// Event.Reason and Event.Kind form a closed vocabulary: iqstat's
// Case-1/Case-2 analysis and the metrics exporter match events by exact
// string, so a value emitted under an unregistered spelling is silently
// invisible to every consumer. Each value is therefore declared once here
// as a Reason* / Kind* constant; the tracekeys analyzer (internal/
// analysis/tracekeys) harvests this constant set and rejects raw string
// literals — and unregistered values — at every emission site.

// Congestion-window update reasons (CwndUpdate.Reason): which control
// decision moved the window.
const (
	ReasonAck          = "ack"          // additive growth on new acks
	ReasonLoss         = "loss"         // loss-proportional decrease
	ReasonTimeout      = "timeout"      // RTO collapse
	ReasonCoordination = "coordination" // application-coordinated rescale
)

// Packet-lifecycle reasons (PacketAcked/PacketLost/PacketAbandoned/
// RTOBackoff.Reason): what the sender concluded about the packet.
const (
	ReasonEack         = "eack"          // acked out of order via EACK block
	ReasonFast         = "fast"          // fast retransmit (dup-threshold)
	ReasonSkip         = "skip"          // unmarked fragment skipped under Case 1
	ReasonProbe        = "probe"         // FWD probe while acks are stalled
	ReasonRTO          = "rto"           // retransmission-timer expiry
	ReasonDeadline     = "deadline"      // play-out deadline passed in queue
	ReasonCase1Discard = "case1-discard" // discarded before segmentation (Case 1)
)

// Receive-path reasons (PacketReceived.Reason): why the packet was not
// delivered in order. Empty means in-order accept.
const (
	ReasonDup = "dup" // duplicate of already-delivered data
	ReasonOOO = "ooo" // out of order, buffered in the reassembly window
)

// Threshold-callback reasons (ThresholdCallbackFired.Reason): which
// error-ratio threshold fired.
const (
	ReasonUpper = "upper"
	ReasonLower = "lower"
)

// Coordination-decision reasons (AdaptDecision.Reason): how the
// coordinator classified the application's adaptation report.
const (
	ReasonAnnounced     = "announced"       // Case 3-1: adaptation announced via ADAPT_WHEN
	ReasonDiscardOn     = "discard-on"      // Case 1: reliability discard engaged
	ReasonDiscardOff    = "discard-off"     // Case 1: reliability discard released
	ReasonBadDegree     = "bad-degree"      // report rejected: |degree| >= 1
	ReasonFrameAboveMSS = "frame-above-mss" // no rescale: frames still span full segments
	ReasonRescale       = "rescale"         // Case 2/3 window rescale applied
)

// Close reasons (ConnState.Reason on the transition to "dead", and
// Machine.CloseReason): why the connection terminated. Exactly one is
// recorded per connection; the udpwire driver maps them onto its typed
// error taxonomy (ErrPeerDead, ErrRefused, ...).
const (
	ReasonLocalClose       = "local-close"       // orderly local Close, FIN exchange completed
	ReasonRemoteFin        = "remote-fin"        // peer sent FIN
	ReasonPeerDead         = "peer-dead"         // nothing heard for DeadInterval
	ReasonFinTimeout       = "fin-timeout"       // FIN exchange unanswered past the retry interval
	ReasonReset            = "rst"               // peer reset an established connection
	ReasonRefused          = "refused"           // RST before establishment (server refused)
	ReasonHandshakeTimeout = "handshake-timeout" // dial deadline passed in SYN-SENT
	ReasonAborted          = "aborted"           // abortive local teardown (eviction, Abort)
	ReasonSockErr          = "sock-err"          // the socket under the connection failed
	ReasonResumed          = "resumed"           // superseded by a resumed successor connection
)

// Fault kinds (FaultInjected.Reason): which fault the chaoswire middlebox
// applied to the datagram. Duplication reuses ReasonDup.
const (
	ReasonDrop      = "drop"
	ReasonReorder   = "reorder"
	ReasonCorrupt   = "corrupt"
	ReasonTruncate  = "truncate"
	ReasonDelay     = "delay"
	ReasonBlackhole = "blackhole"
	ReasonRebind    = "rebind"
)

// Shedding reasons (ShedUnmarked.Reason): where in the send pipeline the
// overloaded machine abandoned unmarked data.
const (
	ReasonShedIngress = "shed-ingress" // discarded before segmentation
	ReasonShedQueue   = "shed-queue"   // queued packet abandoned to admit marked data
)

// Survivability reasons (RetrySent.Reason): why the serve engine answered a
// SYN with a stateless RETRY challenge instead of allocating state.
const (
	ReasonBadCookie   = "bad-cookie"   // a presented address-validation cookie failed verification
	ReasonEvictDenied = "evict-denied" // eviction of existing state demanded without path proof
)

// FEC reasons (FecRepairSent/FecRateChange.Reason): why the repair layer
// acted.
const (
	ReasonFecFlush = "fec-flush" // partial group's repair flushed at send-idle
	ReasonFecAdapt = "fec-adapt" // group size retuned to the measured loss rate
)

// KindNone is the Kind recorded when a threshold callback returned no
// adaptation report.
const KindNone = "nil"

// Reasons lists every registered Reason*/Kind* value; iqstat and tests use
// it to validate captured traces against the vocabulary.
func Reasons() []string {
	return []string{
		ReasonAck, ReasonLoss, ReasonTimeout, ReasonCoordination,
		ReasonEack, ReasonFast, ReasonSkip, ReasonProbe, ReasonRTO,
		ReasonDeadline, ReasonCase1Discard,
		ReasonDup, ReasonOOO,
		ReasonUpper, ReasonLower,
		ReasonAnnounced, ReasonDiscardOn, ReasonDiscardOff,
		ReasonBadDegree, ReasonFrameAboveMSS, ReasonRescale,
		ReasonLocalClose, ReasonRemoteFin, ReasonPeerDead, ReasonFinTimeout,
		ReasonReset, ReasonRefused, ReasonHandshakeTimeout, ReasonAborted,
		ReasonSockErr, ReasonResumed,
		ReasonDrop, ReasonReorder, ReasonCorrupt, ReasonTruncate, ReasonDelay,
		ReasonBlackhole, ReasonRebind,
		ReasonShedIngress, ReasonShedQueue,
		ReasonBadCookie, ReasonEvictDenied,
		ReasonFecFlush, ReasonFecAdapt,
		KindNone,
	}
}
