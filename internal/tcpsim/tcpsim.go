// Package tcpsim implements a TCP Reno+SACK endpoint for the emulated network:
// slow start, congestion avoidance, fast retransmit, fast recovery with
// NewReno partial-ack retransmission, selective acknowledgements (RFC 2018,
// carried in the shared EACK packet form), limited transmit (RFC 3042), and
// a Jacobson retransmission timer — the feature set of a 2002-era kernel
// TCP. It is
// the baseline the paper compares IQ-RUDP against (Tables 1 and 2) and the
// cross-traffic competitor in the fairness test.
//
// The endpoint is packet-based (the congestion window counts MSS-sized
// segments) and reuses the internal/packet wire format and the core Env so
// the experiment harness treats TCP and IQ-RUDP endpoints uniformly. All
// data is fully reliable; marking is ignored.
package tcpsim

import (
	"errors"
	"sort"
	"time"

	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/packet"
)

// Config parameterises a TCP endpoint.
type Config struct {
	MSS         int
	InitialCwnd float64
	MaxCwnd     float64
	RecvWindow  uint16
	RTOMin      time.Duration
	RTOMax      time.Duration
	ConnID      uint32
}

// DefaultConfig matches the IQ-RUDP defaults for a fair comparison.
func DefaultConfig() Config {
	return Config{
		MSS:         1400,
		InitialCwnd: 2,
		MaxCwnd:     1024,
		RecvWindow:  512,
		RTOMin:      200 * time.Millisecond,
		RTOMax:      10 * time.Second,
	}
}

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
	if c.RTOMin <= 0 {
		c.RTOMin = 200 * time.Millisecond
	}
	if c.RTOMax <= 0 {
		c.RTOMax = 10 * time.Second
	}
}

// Metrics is a snapshot of the endpoint's counters.
type Metrics struct {
	SRTT        time.Duration
	Cwnd        float64
	InFlight    int
	SentPackets uint64
	Retransmits uint64
	AckedBytes  uint64
	Delivered   uint64
	Timeouts    uint64
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("tcpsim: connection closed")

type tcpState uint8

const (
	stClosed tcpState = iota
	stSynSent
	stSynRcvd
	stEstablished
	stDead
)

type seg struct {
	seq      uint32
	msgID    uint32
	frag     uint16
	fragCnt  uint16
	end      bool
	payload  []byte
	sentAt   time.Duration
	txCount  int
	sacked   bool   // selectively acknowledged (RFC 2018 via EACK)
	rtxEpoch uint64 // recovery episode this segment was last retransmitted in
}

// Machine is one TCP Reno endpoint. Like core.Machine it is sans-I/O and
// driven externally; it reuses core.Env for emission, delivery and timers.
type Machine struct {
	cfg Config
	env core.Env

	state     tcpState
	connID    uint32
	initiator bool

	sndNxt, sndUna uint32
	pending        []*seg
	flight         []*seg
	peerWnd        uint16

	dupAcks   int
	recovery  bool
	recoverTo uint32 // exit fast recovery when cumulative ack passes this
	epoch     uint64 // recovery episode counter

	cwnd, ssthresh float64

	srtt, rttvar time.Duration
	rto          time.Duration
	rttSampled   bool
	backoff      uint

	rcvNxt uint32
	ooo    map[uint32]*packet.Packet

	reasm reassembly

	rtxTimer  core.Timer
	connTimer core.Timer

	onEstablished func()
	onWritable    func()

	metrics Metrics
}

// NewMachine builds a TCP endpoint over env.
func NewMachine(cfg Config, env core.Env) *Machine {
	cfg.sanitize()
	m := &Machine{
		cfg:      cfg,
		env:      env,
		connID:   cfg.ConnID,
		sndNxt:   2,
		sndUna:   2,
		cwnd:     cfg.InitialCwnd,
		ssthresh: cfg.MaxCwnd / 2,
		rto:      time.Second,
		peerWnd:  cfg.RecvWindow,
		ooo:      make(map[uint32]*packet.Packet),
	}
	m.reasm.m = m
	return m
}

// OnEstablished registers a handshake-completion hook.
func (m *Machine) OnEstablished(fn func()) { m.onEstablished = fn }

// OnWritable registers a window-opened hook.
func (m *Machine) OnWritable(fn func()) { m.onWritable = fn }

// Established reports whether the connection is open.
func (m *Machine) Established() bool { return m.state == stEstablished }

// StartClient sends the SYN.
func (m *Machine) StartClient() {
	if m.state != stClosed {
		return
	}
	m.initiator = true
	if m.connID == 0 {
		m.connID = 0x7C9
	}
	m.state = stSynSent
	m.sendSyn()
}

// StartServer waits for a SYN.
func (m *Machine) StartServer() {}

// Close tears the connection down immediately (the experiments measure
// receiver-side completion; no orderly FIN exchange is modelled for TCP).
func (m *Machine) Close() {
	m.state = stDead
	if m.rtxTimer != nil {
		m.rtxTimer.Stop()
	}
	if m.connTimer != nil {
		m.connTimer.Stop()
	}
}

// sendSynAck answers a SYN, echoing its timestamp when echo is set.
func (m *Machine) sendSynAck(tsEcho time.Duration, echo bool) {
	m.env.Emit(&packet.Packet{
		Type: packet.SYNACK, Flags: ackFlags(echo), ConnID: m.connID, Seq: 1,
		Ack: m.rcvNxt, Wnd: m.cfg.RecvWindow, TS: m.env.Now(), TSEcho: tsEcho,
	})
}

// ackFlags announces the ack block (ack and window), plus the timestamp
// echo when echo is set: the fields the model reads on SYNACK and ACK.
func ackFlags(echo bool) uint8 {
	if echo {
		return packet.FlagAck | packet.FlagEcho
	}
	return packet.FlagAck
}

// armSynAckRetry re-sends the SYNACK until the initiator's ACK or first DATA
// establishes the connection (either leg of the handshake can be lost).
func (m *Machine) armSynAckRetry() {
	if m.connTimer != nil {
		m.connTimer.Stop()
	}
	m.connTimer = m.env.After(m.rto, func() {
		if m.state == stSynRcvd {
			m.sendSynAck(0, false)
			m.armSynAckRetry()
		}
	})
}

func (m *Machine) sendSyn() {
	m.env.Emit(&packet.Packet{Type: packet.SYN, Flags: packet.FlagAck, ConnID: m.connID, Seq: 1, Wnd: m.cfg.RecvWindow, TS: m.env.Now()})
	m.connTimer = m.env.After(m.rto, func() {
		if m.state == stSynSent {
			m.sendSyn()
		}
	})
}

// Send queues one application message; marked is ignored (TCP delivers
// everything). It implements the same signature as core.Machine.Send so the
// harness can swap transports.
func (m *Machine) Send(data []byte, marked bool) error {
	if m.state == stDead {
		return ErrClosed
	}
	if len(data) == 0 {
		return errors.New("tcpsim: empty message")
	}
	msgID := m.sndNxt // the first fragment's seq, as the decoder derives it
	mss := m.cfg.MSS
	frags := (len(data) + mss - 1) / mss
	for i := 0; i < frags; i++ {
		lo, hi := i*mss, (i+1)*mss
		if hi > len(data) {
			hi = len(data)
		}
		m.pending = append(m.pending, &seg{
			seq:     m.sndNxt,
			msgID:   msgID,
			frag:    uint16(i),
			fragCnt: uint16(frags),
			end:     i == frags-1,
			payload: data[lo:hi],
		})
		m.sndNxt++
	}
	m.trySend()
	return nil
}

// CanSend reports whether window space is available.
func (m *Machine) CanSend() bool {
	return m.state == stEstablished && float64(m.outstanding()) < m.window()
}

// outstanding counts in-flight segments not yet selectively acknowledged.
func (m *Machine) outstanding() int {
	n := 0
	for _, sg := range m.flight {
		if !sg.sacked {
			n++
		}
	}
	return n
}

// maybeRetransmit re-sends sg at most once per recovery episode: a second
// copy within the same episode could not have been acked yet and would be
// spurious. The retransmission timer backstops a lost retransmission.
func (m *Machine) maybeRetransmit(sg *seg) {
	if sg.rtxEpoch == m.epoch && sg.txCount > 1 {
		return
	}
	sg.rtxEpoch = m.epoch
	m.transmit(sg)
}

// provenLost returns in-flight segments demonstrably lost: each unsacked
// segment with at least three selectively acknowledged segments above it,
// plus the earliest hole when the classic three-dupack signal fired.
func (m *Machine) provenLost(dupTrigger bool) []*seg {
	var lost []*seg
	sackedAbove := 0
	for i := len(m.flight) - 1; i >= 0; i-- {
		sg := m.flight[i]
		if sg.sacked {
			sackedAbove++
			continue
		}
		if sackedAbove >= 3 {
			lost = append(lost, sg)
		}
	}
	// lost is in descending seq order; reverse to repair oldest first.
	for i, j := 0, len(lost)-1; i < j; i, j = i+1, j-1 {
		lost[i], lost[j] = lost[j], lost[i]
	}
	if dupTrigger && len(lost) == 0 {
		if hole := m.firstHole(); hole != nil {
			lost = append(lost, hole)
		}
	}
	return lost
}

// firstHole returns the earliest unsacked in-flight segment, or nil.
func (m *Machine) firstHole() *seg {
	for _, sg := range m.flight {
		if !sg.sacked {
			return sg
		}
	}
	return nil
}

// QueuedPackets returns segments awaiting first transmission.
func (m *Machine) QueuedPackets() int { return len(m.pending) }

func (m *Machine) window() float64 {
	w := m.cwnd
	// Limited transmit (RFC 3042): the first two duplicate acks each admit
	// one new segment, keeping the ack clock alive at small windows.
	if !m.recovery && m.dupAcks > 0 && m.dupAcks < 3 {
		w += float64(m.dupAcks)
	}
	if pw := float64(m.peerWnd); pw < w {
		w = pw
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (m *Machine) trySend() {
	if m.state != stEstablished {
		return
	}
	sent := false
	for len(m.pending) > 0 && float64(m.outstanding()) < m.window() {
		sg := m.pending[0]
		m.pending = m.pending[1:]
		m.transmit(sg)
		m.flight = append(m.flight, sg)
		sent = true
	}
	if sent {
		m.armRtx()
	}
}

func (m *Machine) transmit(sg *seg) {
	sg.sentAt = m.env.Now()
	sg.txCount++
	m.metrics.SentPackets++
	if sg.txCount > 1 {
		m.metrics.Retransmits++
	}
	var flags uint8
	if sg.end {
		flags |= packet.FlagMsgEnd
	}
	// The model reads no ack fields on DATA, so none are sent.
	m.env.Emit(&packet.Packet{
		Type: packet.DATA, Flags: flags, ConnID: m.connID, Seq: sg.seq,
		MsgID: sg.msgID, Frag: sg.frag, FragCnt: sg.fragCnt,
		TS: sg.sentAt, Payload: sg.payload,
	})
}

func (m *Machine) advertiseWnd() uint16 {
	used := len(m.ooo)
	if used >= int(m.cfg.RecvWindow) {
		return 0
	}
	return m.cfg.RecvWindow - uint16(used)
}

// HandlePacket feeds a decoded packet into the endpoint.
func (m *Machine) HandlePacket(p *packet.Packet) {
	if m.state == stDead {
		return
	}
	switch p.Type {
	case packet.SYN:
		if m.state == stClosed || m.state == stSynRcvd {
			m.state = stSynRcvd
			m.connID = p.ConnID
			m.peerWnd = p.Wnd
			m.rcvNxt = p.Seq + 1
			m.sendSynAck(p.TS, true)
			m.armSynAckRetry()
		}
	case packet.SYNACK:
		if m.state == stSynSent {
			m.peerWnd = p.Wnd
			m.rcvNxt = p.Seq + 1
			if p.HasEcho() {
				m.sampleRTT(packet.TSSince(m.env.Now(), p.TSEcho))
			}
			m.establish()
			m.sendAck(0, false)
		} else if m.state == stEstablished {
			m.sendAck(0, false)
		}
	case packet.DATA:
		if m.state == stSynRcvd {
			m.establish()
		}
		m.handleData(p)
	case packet.ACK, packet.EACK:
		if m.state == stSynRcvd {
			m.establish()
		}
		m.handleAck(p)
	case packet.RST:
		m.state = stDead
	}
}

func (m *Machine) establish() {
	if m.state == stEstablished {
		return
	}
	m.state = stEstablished
	if m.connTimer != nil {
		m.connTimer.Stop()
		m.connTimer = nil
	}
	if m.onEstablished != nil {
		m.onEstablished()
	}
	m.trySend()
}

func (m *Machine) handleData(p *packet.Packet) {
	switch {
	case packet.SeqLT(p.Seq, m.rcvNxt):
		// Duplicate; re-ack.
	case p.Seq == m.rcvNxt:
		m.accept(p)
		for {
			q, ok := m.ooo[m.rcvNxt]
			if !ok {
				break
			}
			delete(m.ooo, m.rcvNxt)
			m.accept(q)
		}
	default:
		if len(m.ooo) < int(m.cfg.RecvWindow) {
			if _, dup := m.ooo[p.Seq]; !dup {
				m.ooo[p.Seq] = p
			}
		}
	}
	m.sendAck(p.TS, true)
}

func (m *Machine) accept(p *packet.Packet) {
	m.rcvNxt = p.Seq + 1
	m.reasm.add(p)
}

func (m *Machine) sendAck(tsEcho time.Duration, echo bool) {
	typ := packet.ACK
	var eacks []uint32
	if len(m.ooo) > 0 {
		typ = packet.EACK
		for seq := range m.ooo {
			eacks = append(eacks, seq)
		}
		sort.Slice(eacks, func(i, j int) bool { return packet.SeqLT(eacks[i], eacks[j]) })
		if len(eacks) > 64 {
			eacks = eacks[:64]
		}
	}
	m.env.Emit(&packet.Packet{
		Type: typ, Flags: ackFlags(echo), ConnID: m.connID, Seq: m.sndNxt, Ack: m.rcvNxt,
		Wnd: m.advertiseWnd(), TS: m.env.Now(), TSEcho: tsEcho, Eacks: eacks,
	})
}

func (m *Machine) handleAck(p *packet.Packet) {
	if m.state != stEstablished {
		return
	}
	m.peerWnd = p.Wnd
	if p.HasEcho() {
		m.sampleRTT(packet.TSSince(m.env.Now(), p.TSEcho))
	}
	// SACK extents (RFC 2018): mark segments received out of order.
	newSacked := 0
	for _, seq := range p.Eacks {
		for _, sg := range m.flight {
			if sg.seq == seq && !sg.sacked {
				sg.sacked = true
				newSacked++
			}
		}
	}
	// Demand measured before this ack frees window space: the basis for
	// congestion-window validation below.
	wasLimited := float64(m.outstanding()+len(m.pending)) >= m.cwnd
	ack := p.Ack
	dupTrigger := false
	if packet.SeqGT(ack, m.sndUna) {
		newly := 0
		for len(m.flight) > 0 && packet.SeqLT(m.flight[0].seq, ack) {
			sg := m.flight[0]
			m.flight = m.flight[1:]
			newly++
			m.metrics.AckedBytes += uint64(len(sg.payload))
		}
		m.sndUna = ack
		m.dupAcks = 0
		if m.recovery {
			if packet.SeqGEQ(ack, m.recoverTo) {
				// Full recovery: deflate to ssthresh.
				m.recovery = false
				m.cwnd = m.ssthresh
			}
		} else if wasLimited {
			// Congestion window validation (RFC 2861): grow only while the
			// window is actually the limit; an application-limited flow must
			// not bank unused window and burst it later.
			for i := 0; i < newly; i++ {
				if m.cwnd < m.ssthresh {
					m.cwnd++
				} else {
					m.cwnd += 1 / m.cwnd
				}
			}
			if m.cwnd > m.cfg.MaxCwnd {
				m.cwnd = m.cfg.MaxCwnd
			}
		}
		m.backoff = 0
		m.recomputeRTO()
	} else if ack == m.sndUna && len(m.flight) > 0 {
		m.dupAcks++
		if m.dupAcks == 3 {
			dupTrigger = true
		}
		// No window inflation: with SACK, outstanding() already excludes
		// sacked segments, so the pipe-based send gate (RFC 3517) replaces
		// Reno's inflation/deflation dance.
	}

	// Loss detection (RFC 3517-style): a segment is considered lost on the
	// third duplicate ack (classic fast retransmit) or once three segments
	// above it have been selectively acknowledged. One window reduction per
	// recovery episode; within an episode each segment is retransmitted at
	// most once (the RTO backstops lost retransmissions), and at most two
	// retransmissions leave per ack to avoid bursting.
	lost := m.provenLost(dupTrigger)
	if len(lost) > 0 {
		if !m.recovery {
			m.ssthresh = float64(m.outstanding()) / 2
			if m.ssthresh < 2 {
				m.ssthresh = 2
			}
			m.cwnd = m.ssthresh
			m.recovery = true
			m.recoverTo = m.sndNxt
			m.epoch++
		}
		budget := 2
		for _, sg := range lost {
			if budget == 0 {
				break
			}
			if sg.rtxEpoch != m.epoch || sg.txCount == 1 {
				m.maybeRetransmit(sg)
				budget--
			}
		}
		m.armRtx()
	}
	m.trySend()
	m.armRtx()
	if m.onWritable != nil && m.CanSend() && len(m.pending) == 0 {
		m.onWritable()
	}
}

func (m *Machine) sampleRTT(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if !m.rttSampled {
		m.srtt = rtt
		m.rttvar = rtt / 2
		m.rttSampled = true
	} else {
		diff := m.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		m.rttvar = (3*m.rttvar + diff) / 4
		m.srtt = (7*m.srtt + rtt) / 8
	}
	m.recomputeRTO()
}

func (m *Machine) recomputeRTO() {
	rto := m.srtt + 4*m.rttvar
	if rto < m.cfg.RTOMin {
		rto = m.cfg.RTOMin
	}
	rto <<= m.backoff
	if rto > m.cfg.RTOMax {
		rto = m.cfg.RTOMax
	}
	m.rto = rto
}

func (m *Machine) armRtx() {
	if m.rtxTimer != nil {
		m.rtxTimer.Stop()
		m.rtxTimer = nil
	}
	hole := m.firstHole()
	if hole == nil {
		return
	}
	deadline := hole.sentAt + m.rto
	delay := deadline - m.env.Now()
	if delay < 0 {
		delay = 0
	}
	m.rtxTimer = m.env.After(delay, m.onTimeout)
}

func (m *Machine) onTimeout() {
	if m.state != stEstablished {
		return
	}
	hole := m.firstHole()
	if hole == nil {
		return
	}
	if m.env.Now()-hole.sentAt < m.rto {
		m.armRtx()
		return
	}
	m.metrics.Timeouts++
	m.ssthresh = float64(len(m.flight)) / 2
	if m.ssthresh < 2 {
		m.ssthresh = 2
	}
	m.cwnd = 1
	m.recovery = false
	m.dupAcks = 0
	if m.backoff < 6 {
		m.backoff++
	}
	m.recomputeRTO()
	if hole := m.firstHole(); hole != nil {
		m.transmit(hole)
	}
	m.armRtx()
}

// Metrics returns a snapshot of the endpoint's counters.
func (m *Machine) Metrics() Metrics {
	mt := m.metrics
	mt.SRTT = m.srtt
	mt.Cwnd = m.cwnd
	mt.InFlight = len(m.flight)
	mt.Delivered = m.reasm.delivered
	return mt
}

// reassembly rebuilds messages from in-order segments (full reliability, so
// no partial messages).
type reassembly struct {
	m         *Machine
	cur       uint32
	active    bool
	frags     [][]byte
	got       int
	fragCnt   int
	sentAt    time.Duration
	delivered uint64
}

func (r *reassembly) add(p *packet.Packet) {
	ts := packet.TSUnwrap(p.TS, r.m.env.Now())
	if !r.active || r.cur != p.MsgID {
		r.cur = p.MsgID
		r.active = true
		r.fragCnt = int(p.FragCnt)
		if r.fragCnt <= 0 {
			r.fragCnt = 1
		}
		r.frags = make([][]byte, r.fragCnt)
		r.got = 0
		r.sentAt = ts
	}
	idx := int(p.Frag)
	if idx < r.fragCnt && r.frags[idx] == nil {
		r.frags[idx] = p.Payload
		r.got++
	}
	if ts < r.sentAt {
		r.sentAt = ts
	}
	if r.got == r.fragCnt {
		var data []byte
		for _, f := range r.frags {
			data = append(data, f...)
		}
		r.delivered++
		r.active = false
		r.m.env.Deliver(core.Message{
			ID: r.cur, Data: data, Marked: true,
			SentAt: r.sentAt, DeliveredAt: r.m.env.Now(),
		})
	}
}
