package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/cercs/iqrudp/internal/attr"
	"github.com/cercs/iqrudp/internal/fec"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/stats"
	"github.com/cercs/iqrudp/internal/trace"
)

// connState is the connection state machine phase.
type connState uint8

const (
	stClosed connState = iota
	stSynSent
	stSynRcvd
	stEstablished
	stFinWait // FIN sent, awaiting FINACK
	stDead    // closed or reset
)

func (s connState) String() string {
	switch s {
	case stClosed:
		return "closed"
	case stSynSent:
		return "syn-sent"
	case stSynRcvd:
		return "syn-rcvd"
	case stEstablished:
		return "established"
	case stFinWait:
		return "fin-wait"
	case stDead:
		return "dead"
	default:
		return "invalid"
	}
}

// Machine errors.
var (
	ErrClosed       = errors.New("core: connection closed")
	ErrPayloadEmpty = errors.New("core: empty message")
)

// sendPkt is one outgoing DATA packet's bookkeeping.
type sendPkt struct {
	seq     uint32
	msgID   uint32
	frag    uint16
	fragCnt uint16
	flags   uint8
	payload []byte
	attrs   *attr.List

	sentAt   time.Duration
	deadline time.Duration // absolute; 0 = none (DEADLINE attribute)
	txCount  int
	rtxEpoch uint64 // loss episode this packet was last retransmitted in
	sacked   bool   // acknowledged out of order (EACK)
	skipped  bool   // abandoned: receiver will be forwarded past it
}

func (p *sendPkt) marked() bool { return p.flags&packet.FlagMarked != 0 }

// done reports whether the packet no longer occupies the flight window.
func (p *sendPkt) done() bool { return p.sacked || p.skipped }

// Machine is one endpoint of an IQ-RUDP connection. It is not safe for
// concurrent use; the driver serialises all calls (see package doc).
type Machine struct {
	cfg Config
	env Env

	state     connState
	connID    uint32
	initiator bool

	// Stateless address validation (see packet.RETRY and internal/guard). A
	// dialer challenged with RETRY echoes the server's cookie at the head of
	// every subsequent SYN; one challenge per handshake is honoured so a
	// reflected RETRY cannot livelock the open.
	cookie      []byte
	retried     bool   // a RETRY was already honoured this handshake
	synPayload  []byte // scratch for cookie-block + resume-token SYN payloads
	synAckTries int    // SYNACK retransmissions this handshake (capped)

	// Send side.
	sndISN     uint32
	sndNxt     uint32     // next sequence number to assign
	sndUna     uint32     // oldest unacknowledged sequence number
	pending    []*sendPkt // segmented, not yet transmitted, live from pendHead
	pendHead   int        // index of the queue head within pending (see popPending)
	flight     []*sendPkt // transmitted, not yet cumulatively acked
	inFlight   int        // flight entries not yet done() — kept incrementally
	sackedCnt  int        // flight entries with sacked set — gates loss scans
	spFree     []*sendPkt // sendPkt freelist (see getSendPkt/putSendPkt)
	lastAck    uint32     // last cumulative ack seen
	dupAcks    int
	inRecovery bool   // a loss episode is being repaired
	recoverTo  uint32 // episode ends when sndUna passes this
	epoch      uint64 // loss-episode counter
	peerWnd    uint16 // last advertised window from peer
	fwdSeq     uint32 // forward point: everything below is acked or skipped
	fwdPending bool   // fwdSeq must be communicated

	// Receive side.
	rcvNxt   uint32
	ooo      map[uint32]*packet.Packet // out-of-order buffer
	reasm    *reassembler
	peerTol  float64 // peer's (receiver) declared loss tolerance — our budget when sending
	localTol float64

	// Receive runs (see BeginRun): inside one, in-order DATA that leaves no
	// hole only owes an acknowledgement. ackOwed counts the packets the owed
	// ACK covers and ackOwedTS is the earliest one's timestamp, which that
	// ACK echoes.
	inRun     bool
	ackOwed   int
	ackOwedTS time.Duration

	// Adaptive reliability accounting (sender side): fraction of application
	// messages not delivered must stay within peerTol.
	relMsgsTotal   uint64          // messages offered by the application
	relMsgsDropped uint64          // messages discarded or skipped (≥1 fragment lost)
	skippedMsgs    map[uint32]bool // msgIDs with at least one skipped fragment

	cc   *congestion
	rtt  *rttEstimator
	meas *measurement
	coo  *coordinator

	// Forward-erasure repair (see fec.go). The encoder exists only when both
	// sides negotiated FEC at the handshake; the decoder is built lazily on
	// the first REPAIR packet. Every field is nil/zero on a FEC-off
	// connection, so the hooks on the hot paths reduce to untaken nil checks.
	fecEnc        *fec.Encoder
	fecDec        *fec.Decoder
	peerFecGroup  int             // peer's advertised decode group size (0 = no FEC)
	fecBaseK      int             // negotiated group-size ceiling for adaptation
	fecQueue      []fec.Recovered // reconstructed packets awaiting re-injection
	fecDraining   bool            // drainFecQueue reentrancy guard
	fecFlushTimer Timer           // partial-group flush timer
	fecFlushFn    func()          // cached onFecFlush method value

	reg *attr.Registry

	// tr receives structured events at every decision point; nil disables
	// tracing (see trace.go for the instrumentation wrappers).
	tr trace.Tracer

	// Observability (see obs.go): optional histogram set, the always-on
	// flight-recorder ring feeding tr alongside cfg.Tracer, and the black-box
	// snapshot taken on abnormal close.
	hs         *Hists
	flightRing *trace.Ring
	flightRec  *FlightRecord

	// Callbacks.
	upperThresh, lowerThresh float64
	onUpper, onLower         ThresholdCallback
	onEstablished            func()
	onWritable               func()
	onClosed                 func()

	// Timers. Every timer callback clears its field on entry (see the
	// Env.After contract: a fired Timer handle is spent and must not be
	// retained), and each callback is cached as a method value at
	// construction so re-arming never allocates a closure.
	rtxTimer    Timer
	rtxAt       time.Duration // absolute fire time of the armed rtx timer
	rtxIsProbe  bool          // armed for a forward-point probe, not an RTO
	rtxExpireFn func()        // cached onRtxExpire method value (no per-arm closure)
	connTimer   Timer
	connRetryFn func() // cached onConnRetry method value (SYN, SYNACK and FIN retries)
	measTicker  Timer

	closing     bool   // Close requested; FIN once the pipeline drains
	closeReason string // why the connection died; set exactly once by abortWith
	tolDirty    bool   // localTol changed; piggyback on next ack

	lastHeard    time.Duration // when the peer was last heard from
	lastSent     time.Duration // when we last emitted anything
	liveTimer    Timer
	liveFn       func()        // cached onLiveTick method value
	liveInterval time.Duration // keepalive probe period, set by startLiveness
	paceTimer    Timer         // armed while a paced transmission gap is pending
	paceFn       func()        // cached onPaceGap method value

	// Clock (see enter). now is the instant of the entry in progress, read
	// once from Env.Now by the outermost entry; every timestamp the entry
	// produces uses it. clocked marks an entry in progress; runClock marks
	// the one BeginRun opened and EndRun closes.
	now      time.Duration
	clocked  bool
	runClock bool

	metrics Metrics

	// Receiver-side delivery stats (also exposed in Metrics).
	arrivals *stats.Arrivals

	// Emission scratch. Every outgoing packet is staged here: the Env.Emit
	// contract lets the environment borrow the packet only for the duration
	// of the call, so a single staging area serves all emissions without
	// allocating. outEacks is the staged EACK list's backing storage.
	out      packet.Packet
	outEacks []uint32
}

// NewMachine builds a machine over env. Call StartClient or StartServer to
// begin the handshake.
func NewMachine(cfg Config, env Env) *Machine {
	cfg.sanitize()
	isn := uint32(1)
	if cfg.InitialSeq != 0 {
		isn = cfg.InitialSeq
	}
	m := &Machine{
		cfg:    cfg,
		env:    env,
		connID: cfg.ConnID,
		sndISN: isn,
		// SYN/SYNACK consume the ISN; data starts at ISN+1, matching the
		// peer's rcvNxt after the handshake.
		sndNxt:      isn + 1,
		sndUna:      isn + 1,
		rcvNxt:      0,
		ooo:         make(map[uint32]*packet.Packet),
		skippedMsgs: make(map[uint32]bool),
		cc:          newCongestion(&cfg),
		rtt:         newRTTEstimator(cfg.RTOMin, cfg.RTOMax),
		reg:         attr.NewRegistry(),
		localTol:    cfg.LossTolerance,
		peerWnd:     cfg.RecvWindow,
		arrivals:    stats.NewArrivals(false),
		tr:          cfg.Tracer,
		hs:          cfg.Hists,
	}
	if cfg.FlightEvents > 0 {
		m.flightRing = trace.NewRing(cfg.FlightEvents)
		m.tr = trace.Multi(cfg.Tracer, m.flightRing)
	}
	m.reasm = newReassembler(m)
	m.meas = newMeasurement(m)
	m.coo = newCoordinator(m)
	m.rtxExpireFn = m.onRtxExpire
	m.connRetryFn = m.onConnRetry
	m.paceFn = m.onPaceGap
	m.liveFn = m.onLiveTick
	m.reg.Set(attr.LossTolerance, attr.Float(m.localTol))
	return m
}

// enter begins a machine entry (an exported method or a timer callback):
// the outermost entry reads the clock, and a nested one — an application
// callback re-entering the machine, a FEC reconstruction fed back through
// HandlePacket — keeps the outer reading. It reports whether this entry took
// the clock; hand that to exit, typically as defer m.exit(m.enter()).
func (m *Machine) enter() bool {
	if m.clocked {
		return false
	}
	m.now = m.env.Now()
	m.clocked = true
	return true
}

// exit ends an entry; took is what the matching enter returned.
func (m *Machine) exit(took bool) {
	if took {
		m.clocked = false
	}
}

// Registry returns the connection's shared quality-attribute registry. The
// transport publishes NET_* metrics there each measurement period; the
// application may publish its own attributes (e.g. LOSS_TOLERANCE).
func (m *Machine) Registry() *attr.Registry { return m.reg }

// State returns a debugging name for the connection phase.
func (m *Machine) State() string { return m.state.String() }

// ConnID returns the wire connection ID (zero on the passive side until the
// initiator's SYN is adopted).
func (m *Machine) ConnID() uint32 { return m.connID }

// Established reports whether the connection is open for data.
func (m *Machine) Established() bool { return m.state == stEstablished }

// OnEstablished registers fn to run once the handshake completes.
func (m *Machine) OnEstablished(fn func()) { m.onEstablished = fn }

// OnWritable registers fn to run whenever window space frees up after a
// period of blockage. Applications that send "as fast as allowed" drive
// their transmission from this hook.
func (m *Machine) OnWritable(fn func()) { m.onWritable = fn }

// OnClosed registers fn to run when the connection fully closes.
func (m *Machine) OnClosed(fn func()) { m.onClosed = fn }

// RegisterThresholds installs the application's error-ratio callbacks
// (paper §2.1 mechanism 2): onUpper fires when the smoothed error ratio
// reaches upper; onLower when it falls to lower or below. Either callback
// may be nil.
func (m *Machine) RegisterThresholds(upper, lower float64, onUpper, onLower ThresholdCallback) {
	m.upperThresh, m.lowerThresh = upper, lower
	m.onUpper, m.onLower = onUpper, onLower
}

// SetLossTolerance updates this endpoint's receiver loss tolerance at
// runtime; the new value is piggybacked to the peer on the next
// acknowledgement.
func (m *Machine) SetLossTolerance(tol float64) {
	if tol < 0 {
		tol = 0
	}
	if tol > 1 {
		tol = 1
	}
	m.localTol = tol
	m.reg.Set(attr.LossTolerance, attr.Float(tol))
	m.tolDirty = true
}

// StartClient begins an active open (SYN).
func (m *Machine) StartClient() {
	if m.state != stClosed {
		return
	}
	defer m.exit(m.enter())
	m.initiator = true
	if m.connID == 0 {
		m.connID = 0x1001
	}
	m.setState(stSynSent)
	m.sendSyn()
}

// StartServer begins a passive open: the machine waits for a SYN.
func (m *Machine) StartServer() {
	if m.state != stClosed {
		return
	}
	m.state = stClosed // remains closed until SYN arrives
}

func (m *Machine) sendSyn() {
	// A resuming dialer names its dead predecessor in the SYN payload so
	// ConnID-demultiplexing servers can evict it (see packet.ResumeToken);
	// a RETRY-challenged dialer prepends the server's cookie (see
	// packet.AppendCookieBlock). Both ride the same payload.
	payload := m.cfg.ResumeToken
	if len(m.cookie) > 0 {
		m.synPayload = packet.AppendCookieBlock(m.synPayload[:0], m.cookie)
		m.synPayload = append(m.synPayload, m.cfg.ResumeToken...)
		payload = m.synPayload
	}
	p := &packet.Packet{
		Type:    packet.SYN,
		Flags:   packet.FlagAck, // the ack block carries our receive window
		ConnID:  m.connID,
		Seq:     m.sndISN,
		Wnd:     m.cfg.RecvWindow,
		TS:      m.now,
		Attrs:   m.handshakeAttrs(),
		Payload: payload,
	}
	m.env.Emit(p)
	m.armConnRetry()
}

// handleRetry honours a stateless address-validation challenge: re-send the
// SYN immediately with the server's cookie echoed in the payload. At most
// one challenge is honoured per handshake, and only while actively opening,
// so a spoofed or reflected RETRY can at worst cost one extra datagram.
//
//iqlint:borrow
func (m *Machine) handleRetry(p *packet.Packet) {
	if m.state != stSynSent || m.retried || len(p.Payload) == 0 || len(p.Payload) > packet.MaxCookieLen {
		return
	}
	m.retried = true
	m.cookie = append(m.cookie[:0], p.Payload...)
	m.sendSyn()
}

// onConnRetry is the cached callback of the connection retry timer. Each
// state that arms it stops the previous arm and every transition out of
// those states stops it, so the state it fires in is the state it was
// armed for: an unanswered SYN is re-sent (which re-arms the retry), an
// unanswered SYNACK is re-sent up to maxSynAckRetries times, and an
// unanswered FIN gets one retry interval before the connection is torn
// down. One callback for the three, instead of one each, saves every
// machine two method-value allocations at construction.
func (m *Machine) onConnRetry() {
	defer m.exit(m.enter())
	m.connTimer = nil
	switch m.state {
	case stSynSent:
		m.sendSyn()
	case stSynRcvd:
		m.synAckTries++
		if m.synAckTries > maxSynAckRetries {
			m.abortWith(trace.ReasonHandshakeTimeout)
			return
		}
		m.sendSynAck(0, false)
		m.armConnRetry()
	case stFinWait:
		m.abortWith(trace.ReasonFinTimeout)
	}
}

func (m *Machine) armConnRetry() {
	if m.connTimer != nil {
		m.connTimer.Stop()
	}
	m.connTimer = m.env.After(m.rtt.RTO(), m.connRetryFn)
}

// establish transitions to the established state exactly once.
func (m *Machine) establish() {
	if m.state == stEstablished {
		return
	}
	m.setState(stEstablished)
	if m.connTimer != nil {
		m.connTimer.Stop()
		m.connTimer = nil
	}
	m.lastHeard = m.now
	m.lastSent = m.now
	m.armFec()
	m.startLiveness()
	m.meas.start()
	if m.onEstablished != nil {
		m.onEstablished()
	}
	m.trySend()
}

// Close initiates an orderly shutdown once all pending data is sent and
// acknowledged. Data still queued continues to flow first.
func (m *Machine) Close() {
	defer m.exit(m.enter())
	switch m.state {
	case stDead, stFinWait:
		return
	case stClosed, stSynSent, stSynRcvd:
		m.abortWith(trace.ReasonAborted)
		return
	}
	m.closing = true
	m.maybeFinish()
}

// maybeFinish sends FIN when the send pipeline is empty and the peer has
// cumulatively acknowledged everything sent, i.e. the flight is empty.
// inFlightCount would not do: it leaves out sacked and skipped packets, and
// the FIN carries no forward point, so a FIN sent while sndUna < fwdSeq
// would close a receiver that still parks sacked data behind the skipped
// hole. The forward-point probe (armRtx) repeats until the cumulative ACK
// passes the hole, which empties the flight and lets the FIN go.
func (m *Machine) maybeFinish() {
	if !m.closing || m.state != stEstablished {
		return
	}
	if m.pendingLen() > 0 || len(m.flight) > 0 {
		return
	}
	// Flush the open partial repair group before the FIN so the flow's tail
	// packets keep their erasure protection.
	if m.fecEnc != nil && m.fecEnc.Pending() > 0 {
		m.emitRepair(trace.ReasonFecFlush)
	}
	m.setState(stFinWait)
	m.out = packet.Packet{Type: packet.FIN, ConnID: m.connID, Seq: m.sndNxt, TS: m.now}
	m.env.Emit(&m.out)
	m.armConnRetry()
}

// Abort tears the machine down immediately — no FIN exchange, no drain.
// Drivers use it for abortive teardown (RST-like local eviction).
func (m *Machine) Abort() { m.AbortWith(trace.ReasonAborted) }

// AbortWith is Abort recording an explicit close reason (one of the
// trace.Reason* close-reason constants); drivers use it so teardown causes
// they observe outside the machine — a dead socket, a handshake deadline, a
// resumed successor — surface through CloseReason and the typed error
// taxonomy instead of a generic abort.
func (m *Machine) AbortWith(reason string) {
	defer m.exit(m.enter())
	m.abortWith(reason)
}

// CloseReason reports why the connection died ("" while it is alive).
// Exactly one reason is recorded per connection, on the transition to the
// dead state; the same value rides the ConnState trace event for that edge.
func (m *Machine) CloseReason() string { return m.closeReason }

func (m *Machine) abortWith(reason string) {
	if m.state == stDead {
		return
	}
	m.closeReason = reason
	m.ackOwed = 0 // a dead machine acknowledges nothing, not even at EndRun
	m.setStateReason(stDead, reason)
	// Snapshot the black box after the dead edge traced above, so the
	// record's event ring ends with the fatal transition.
	m.snapFlight(reason)
	m.stopTimers()
	// Settle the shared memory ledger before the buffers are torn down, so
	// the serving engine's governor sees this connection's bytes released
	// however it died. The reassembler settles separately via reset.
	m.settleMem()
	m.reasm.reset()
	// Return the out-of-order buffer's pooled clones: abort is the one exit
	// path that bypasses drainOOO/applyFwd, and without this the buffered
	// packets leak from the process-wide freelist accounting.
	for seq, p := range m.ooo {
		delete(m.ooo, seq)
		packet.Put(p)
	}
	if m.onClosed != nil {
		m.onClosed()
	}
}

func (m *Machine) stopTimers() {
	for _, t := range []Timer{m.rtxTimer, m.connTimer, m.measTicker, m.liveTimer, m.paceTimer, m.fecFlushTimer} {
		if t != nil {
			t.Stop()
		}
	}
	m.rtxTimer, m.connTimer, m.measTicker, m.liveTimer, m.paceTimer, m.fecFlushTimer = nil, nil, nil, nil, nil, nil
	m.meas.stop()
}

// startLiveness arms the keepalive/dead-peer loop when configured.
func (m *Machine) startLiveness() {
	interval := m.cfg.Keepalive
	if interval <= 0 && m.cfg.DeadInterval > 0 {
		interval = m.cfg.DeadInterval / 3
	}
	if interval <= 0 {
		return
	}
	m.liveInterval = interval
	m.liveTimer = m.env.After(interval, m.liveFn)
}

// onLiveTick is the cached keepalive/dead-peer callback: probe or abort,
// then re-arm.
func (m *Machine) onLiveTick() {
	defer m.exit(m.enter())
	m.liveTimer = nil
	if m.state != stEstablished && m.state != stFinWait {
		return
	}
	if m.cfg.DeadInterval > 0 && m.now-m.lastHeard >= m.cfg.DeadInterval {
		m.abortWith(trace.ReasonPeerDead)
		return
	}
	if m.cfg.Keepalive > 0 && m.now-m.lastSent >= m.cfg.Keepalive {
		m.out = packet.Packet{Type: packet.NUL, ConnID: m.connID, Seq: m.sndNxt, TS: m.now}
		m.env.Emit(&m.out)
		m.lastSent = m.now
	}
	m.liveTimer = m.env.After(m.liveInterval, m.liveFn)
}

// NoteTxError records n socket-level transmit failures observed by the
// driver for this connection. Env.Emit cannot return an error — the actual
// write may happen after the machine interaction (batched TX) — so drivers
// report failures here, from the machine's serialisation context, making a
// dead socket visible in Metrics and the trace stream instead of silent.
func (m *Machine) NoteTxError(n uint64, err error) {
	if n == 0 {
		return
	}
	defer m.exit(m.enter())
	m.metrics.TxErrors += n
	if m.tr != nil {
		reason := ""
		if err != nil {
			reason = err.Error()
		}
		m.tr.Trace(trace.Event{
			Time: m.now, Type: trace.TxError, ConnID: m.connID,
			Size: int(n), Reason: reason,
		})
	}
}

// HandlePacket feeds one decoded packet into the machine. The machine
// borrows p — including its Payload, Eacks and Attrs backing storage — only
// for the duration of the call: anything it must keep (out-of-order
// buffering, fragment payloads) is copied, so the caller may reuse the
// packet and its buffers as soon as HandlePacket returns.
//
// Outside a receive run every DATA packet is acknowledged as it is handled.
// Inside one (BeginRun … EndRun) in-order data is acknowledged once for the
// whole run; see BeginRun.
func (m *Machine) HandlePacket(p *packet.Packet) {
	if m.state == stDead {
		return
	}
	defer m.exit(m.enter())
	m.lastHeard = m.now
	switch p.Type {
	case packet.SYN:
		m.handleSyn(p)
	case packet.SYNACK:
		m.handleSynAck(p)
	case packet.DATA:
		m.handleData(p)
	case packet.REPAIR:
		m.handleRepair(p)
	case packet.ACK, packet.EACK:
		m.handleAck(p)
	case packet.NUL:
		m.handleNul(p)
	case packet.FIN:
		m.out = packet.Packet{Type: packet.FINACK, ConnID: m.connID, TS: m.now}
		m.env.Emit(&m.out)
		m.abortWith(trace.ReasonRemoteFin)
	case packet.FINACK:
		if m.state == stFinWait {
			m.abortWith(trace.ReasonLocalClose)
		}
	case packet.RETRY:
		m.handleRetry(p)
	case packet.RST:
		if m.state == stEstablished || m.state == stFinWait {
			m.abortWith(trace.ReasonReset)
		} else {
			// RST answering our SYN: the server refused the connection
			// (backlog full, ConnID collision, draining).
			m.abortWith(trace.ReasonRefused)
		}
	}
}

// BeginRun opens a receive run: the driver is about to feed a batch of
// datagrams it received together through HandlePacket, within the same
// serialisation context, and will call EndRun right after the last one.
// Inside the run an in-order DATA arrival that leaves the out-of-order
// buffer empty does not emit an ACK; it only marks one as owed. Every other
// arrival — out of order, duplicate, one that leaves a hole, NUL, FIN, the
// handshake legs — is answered immediately, exactly as outside a run, and
// that answer also settles whatever was owed. The owed ACK goes out at
// EndRun, or earlier once it covers a quarter of the advertised window, and
// echoes the timestamp of the earliest packet it covers (RFC 7323 §4.3), so
// the peer's RTT samples include the coalescing delay. The run is one entry
// for the clock (see Env.Now): BeginRun reads it, and every packet handled
// and emitted up to and including EndRun's ACK carries that instant.
func (m *Machine) BeginRun() {
	m.inRun = true
	m.runClock = m.enter()
}

// EndRun closes the receive run opened by BeginRun and emits the ACK it
// owes, if any. Nothing is owed once it returns; a machine that died during
// the run emits nothing.
func (m *Machine) EndRun() {
	m.inRun = false
	if m.ackOwed > 0 {
		m.sendAck()
	}
	m.exit(m.runClock)
	m.runClock = false
}

// oweAck records an in-order arrival whose acknowledgement a receive run
// defers (see BeginRun); ts is the arrival's sender timestamp.
func (m *Machine) oweAck(ts time.Duration) {
	if m.ackOwed == 0 {
		m.ackOwedTS = ts
	}
	m.ackOwed++
	if m.ackOwed >= max(1, int(m.advertiseWnd())/4) {
		m.sendAck()
	}
}

//iqlint:borrow
func (m *Machine) handleSyn(p *packet.Packet) {
	// Passive side: adopt the initiator's connection ID, record its window
	// and tolerance, reply SYNACK. Retransmitted SYNs re-trigger the reply.
	if m.state == stClosed || m.state == stSynRcvd {
		m.connID = p.ConnID
		m.setState(stSynRcvd)
		if p.HasAck() {
			m.peerWnd = p.Wnd
		}
		m.rcvNxt = p.Seq + 1
		if tol, err := p.Attrs.Float(attr.LossTolerance); err == nil {
			m.peerTol = tol
		}
		if v, err := p.Attrs.Int(attr.FECGroup); err == nil && v > 0 {
			m.peerFecGroup = int(v)
		}
		m.sendSynAck(p.TS, true)
		// Retry until the initiator's first ACK or DATA establishes us: the
		// SYNACK (or the final handshake leg) can be lost. A fresh SYN
		// restarts the retry budget — only a peer that goes silent mid-
		// handshake exhausts it (see onConnRetry).
		m.synAckTries = 0
		m.armConnRetry()
	}
}

// sendSynAck emits the SYNACK, echoing the SYN's timestamp when echo is set
// (a retransmission echoes nothing: the sample would include the retry
// interval).
func (m *Machine) sendSynAck(tsEcho time.Duration, echo bool) {
	flags := packet.FlagAck
	if echo {
		flags |= packet.FlagEcho
	}
	m.env.Emit(&packet.Packet{
		Type:   packet.SYNACK,
		Flags:  flags,
		ConnID: m.connID,
		Seq:    m.sndISN,
		Ack:    m.rcvNxt,
		Wnd:    m.cfg.RecvWindow,
		TS:     m.now,
		TSEcho: tsEcho,
		Attrs:  m.handshakeAttrs(),
	})
}

// handshakeAttrs builds the attribute list both handshake legs carry: the
// local receiver's loss tolerance, plus its FEC decode preference when
// repair is enabled.
func (m *Machine) handshakeAttrs() *attr.List {
	l := attr.NewList(attr.Attr{Name: attr.LossTolerance, Value: attr.Float(m.localTol)})
	if m.cfg.FECGroup > 0 {
		l.Set(attr.FECGroup, attr.Int(int64(m.cfg.FECGroup)))
	}
	return l
}

// maxSynAckRetries bounds SYNACK retransmissions toward a silent initiator.
// Unbounded retries let a single spoofed SYN pin a half-open connection (and
// its timers) forever; the cap turns it into a short-lived, self-cleaning
// allocation. A slow-but-live initiator is unaffected: its retransmitted
// SYNs reset the budget in handleSyn.
const maxSynAckRetries = 8

//iqlint:borrow
func (m *Machine) handleSynAck(p *packet.Packet) {
	if m.state == stEstablished && m.initiator {
		// Our final handshake ACK was lost; the peer is retrying.
		m.sendAck()
		return
	}
	if m.state != stSynSent {
		return
	}
	if p.HasAck() {
		m.peerWnd = p.Wnd
	}
	m.rcvNxt = p.Seq + 1
	if tol, err := p.Attrs.Float(attr.LossTolerance); err == nil {
		m.peerTol = tol
	}
	if v, err := p.Attrs.Int(attr.FECGroup); err == nil && v > 0 {
		m.peerFecGroup = int(v)
	}
	if p.HasEcho() {
		m.sampleRTT(packet.TSSince(m.now, p.TSEcho))
	}
	m.establish()
	// Complete the three-way exchange so the passive side establishes too.
	m.sendAck()
}

//iqlint:borrow
func (m *Machine) handleNul(p *packet.Packet) {
	if p.HasFwd() {
		m.applyFwd(p.Fwd)
	}
	// NUL probes elicit an acknowledgement so the sender sees liveness.
	m.sendAck()
}

// PeerTolerance returns the loss tolerance declared by the remote receiver.
func (m *Machine) PeerTolerance() float64 { return m.peerTol }

// Metrics returns a snapshot of the transport's measurements. The whole
// snapshot — cumulative counters and the derived gauges — is assembled in
// one place so every field reflects the same machine state. Like every
// other Machine method it must be invoked under the machine lock (the
// driver's serialisation context: udpwire calls it with the connection
// mutex held, the simulator from its single-threaded event loop), which
// makes the returned value fully consistent.
func (m *Machine) Metrics() Metrics {
	mt := m.metrics
	mt.SRTT = m.rtt.SRTT()
	mt.RTTVar = m.rtt.RTTVar()
	mt.ErrorRatio = m.meas.smoothed()
	mt.RawRatio = m.meas.lastRaw()
	mt.RateBps = m.meas.rate()
	mt.Cwnd = m.cc.Window()
	mt.InFlight = m.inFlightCount()
	return mt
}

// String summarises the connection for debugging.
func (m *Machine) String() string {
	return fmt.Sprintf("iqrudp(%s id=%d una=%d nxt=%d cwnd=%.1f loss=%.3f)",
		m.state, m.connID, m.sndUna, m.sndNxt, m.cc.Window(), m.meas.smoothed())
}
