package core

import (
	"slices"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/attr"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/trace"
)

// tickEnv is a nullEnv whose clock moves a microsecond forward on every
// read and counts the reads: a second read inside one machine entry shows
// up both in the count and as a timestamp that differs from the first.
type tickEnv struct {
	nullEnv
	reads  int
	events []trace.Event
}

func (e *tickEnv) Now() time.Duration {
	e.reads++
	e.now += time.Microsecond
	return e.now
}

func (e *tickEnv) Trace(ev trace.Event) { e.events = append(e.events, ev) }

// entry runs fn as one machine entry and checks that it read the clock
// exactly once and stamped every packet, delivery and trace event it
// produced with that reading. It returns the packets fn emitted.
func (e *tickEnv) entry(t *testing.T, name string, fn func()) []*packet.Packet {
	t.Helper()
	reads, emitted, delivered, events := e.reads, len(e.emitted), len(e.delivered), len(e.events)
	fn()
	if got := e.reads - reads; got != 1 {
		t.Fatalf("%s: read the clock %d times, want once", name, got)
	}
	now := e.now
	for _, p := range e.emitted[emitted:] {
		if p.TS != now {
			t.Errorf("%s: emitted %v with TS %v, want the entry's %v", name, p.Type, p.TS, now)
		}
	}
	for _, msg := range e.delivered[delivered:] {
		if msg.DeliveredAt != now {
			t.Errorf("%s: delivered message %d at %v, want the entry's %v", name, msg.ID, msg.DeliveredAt, now)
		}
	}
	for _, ev := range e.events[events:] {
		if ev.Time != now {
			t.Errorf("%s: traced %v at %v, want the entry's %v", name, ev.Type, ev.Time, now)
		}
	}
	return e.emitted[emitted:]
}

// fireNext fires the earliest pending timer as one entry and returns what
// it emitted; ok is false when no timer is pending.
func (e *tickEnv) fireNext(t *testing.T) (out []*packet.Packet, ok bool) {
	t.Helper()
	var next *nullTimer
	for _, tm := range e.timers {
		if !tm.stopped && (next == nil || tm.at < next.at) {
			next = tm
		}
	}
	if next == nil {
		return nil, false
	}
	if next.at > e.now {
		e.now = next.at
	}
	next.stopped = true
	return e.entry(t, "timer fire", next.fn), true
}

func countType(ps []*packet.Packet, typ packet.Type) int {
	n := 0
	for _, p := range ps {
		if p.Type == typ {
			n++
		}
	}
	return n
}

// TestOneClockReadPerEntry pins the clock contract on Env.Now: every entry
// into the machine — a receive run with its ACK, a fragmented SendMsg, each
// timer callback, a packet outside a run and the other exported entries —
// reads the clock once and stamps everything it produces with that reading.
// A nested entry (Report from a threshold callback) reads nothing more.
func TestOneClockReadPerEntry(t *testing.T) {
	env := &tickEnv{}
	cfg := DefaultConfig()
	cfg.Tracer = env
	cfg.FECGroup = 4
	cfg.Keepalive = 50 * time.Millisecond
	m := NewMachine(cfg, env)
	var callbacks int
	m.RegisterThresholds(0, 0, func(CallbackInfo) *AdaptationReport {
		callbacks++
		m.Report(&AdaptationReport{Kind: AdaptFrequency})
		return nil
	}, nil)

	env.entry(t, "StartClient", m.StartClient)
	synAck := &packet.Packet{
		Type: packet.SYNACK, Flags: packet.FlagAck, Seq: 100, Ack: 2, Wnd: 64,
		Attrs: attr.NewList(
			attr.Attr{Name: attr.LossTolerance, Value: attr.Float(0.4)},
			attr.Attr{Name: attr.FECGroup, Value: attr.Int(4)},
		),
	}
	if out := env.entry(t, "HandlePacket(SYNACK)", func() { m.HandlePacket(synAck) }); countType(out, packet.ACK) != 1 {
		t.Fatalf("handshake emitted %d ACKs, want 1", countType(out, packet.ACK))
	}
	if !m.Established() {
		t.Fatalf("state %s after SYNACK, want established", m.State())
	}

	const runLen = 16
	out := env.entry(t, "receive run", func() {
		m.BeginRun()
		for i := uint32(0); i < runLen; i++ {
			m.HandlePacket(runData(101+i, time.Duration(i)*time.Millisecond))
		}
		m.EndRun()
	})
	if countType(out, packet.ACK) != 1 || len(env.delivered) != runLen {
		t.Fatalf("run of %d DATA: %d ACKs and %d deliveries, want 1 and %d",
			runLen, countType(out, packet.ACK), len(env.delivered), runLen)
	}

	out = env.entry(t, "HandlePacket(DATA) outside a run", func() { m.HandlePacket(runData(101+runLen, 0)) })
	if countType(out, packet.ACK) != 1 {
		t.Fatalf("DATA outside a run emitted %d ACKs, want 1", countType(out, packet.ACK))
	}

	data := make([]byte, 12*cfg.MSS)
	out = env.entry(t, "SendMsg(12 fragments)", func() {
		if err := m.SendMsg(data, true, nil); err != nil {
			t.Fatal(err)
		}
	})
	if countType(out, packet.DATA) == 0 || m.QueuedPackets() == 0 {
		t.Fatalf("SendMsg sent %d DATA and queued %d, want some of each", countType(out, packet.DATA), m.QueuedPackets())
	}

	// Fire every timer due in the next 1.2 s: FEC flush, RTO, keepalive and
	// measurement ticks, each one entry of its own.
	horizon := env.now + 1200*time.Millisecond
	var fired []*packet.Packet
	fires := 0
	for ; env.now < horizon; fires++ {
		o, ok := env.fireNext(t)
		if !ok {
			break
		}
		fired = append(fired, o...)
	}
	if countType(fired, packet.REPAIR) == 0 || countType(fired, packet.DATA) == 0 || countType(fired, packet.NUL) == 0 || callbacks == 0 {
		t.Fatalf("%d timer fires gave %d REPAIR, %d DATA, %d NUL and %d threshold callbacks, want FEC flush, RTO, keepalive and a measurement tick",
			fires, countType(fired, packet.REPAIR), countType(fired, packet.DATA), countType(fired, packet.NUL), callbacks)
	}

	env.entry(t, "Report", func() { m.Report(&AdaptationReport{Kind: AdaptResolution, Degree: 0.5}) })
	env.entry(t, "NoteTxError", func() { m.NoteTxError(1, nil) })
	env.entry(t, "Close", m.Close)
	env.entry(t, "Abort", m.Abort)
	if m.State() != "dead" {
		t.Fatalf("state %s after Abort, want dead", m.State())
	}

	// The handshake's retry timers, on both sides.
	cenv := &tickEnv{}
	c := NewMachine(DefaultConfig(), cenv)
	cenv.entry(t, "StartClient", c.StartClient)
	if out, _ := cenv.fireNext(t); countType(out, packet.SYN) != 1 {
		t.Fatalf("SYN retry emitted %d SYNs, want 1", countType(out, packet.SYN))
	}
	senv := &tickEnv{}
	s := NewMachine(DefaultConfig(), senv)
	s.StartServer()
	syn := &packet.Packet{Type: packet.SYN, Flags: packet.FlagAck, ConnID: 7, Seq: 1, Wnd: 64, TS: time.Millisecond}
	senv.entry(t, "HandlePacket(SYN)", func() { s.HandlePacket(syn) })
	if out, _ := senv.fireNext(t); countType(out, packet.SYNACK) != 1 {
		t.Fatalf("SYNACK retry emitted %d SYNACKs, want 1", countType(out, packet.SYNACK))
	}

	// A paced sender's gap timer, and the FIN retry of an orderly close.
	penv := &tickEnv{}
	pcfg := DefaultConfig()
	pcfg.Paced = true
	p := NewMachine(pcfg, penv)
	penv.entry(t, "StartClient", p.StartClient)
	penv.entry(t, "HandlePacket(SYNACK)", func() { p.HandlePacket(synAck) })
	penv.entry(t, "SendMsg(paced)", func() {
		if err := p.Send(data[:2*pcfg.MSS], true); err != nil {
			t.Fatal(err)
		}
	})
	if p.paceTimer == nil {
		t.Fatal("paced send armed no gap timer")
	}
	for p.paceTimer != nil {
		if _, ok := penv.fireNext(t); !ok {
			break
		}
	}
	penv.entry(t, "HandlePacket(ACK)", func() {
		p.HandlePacket(&packet.Packet{Type: packet.ACK, Flags: packet.FlagAck, Seq: 101, Ack: p.sndNxt, Wnd: 64})
	})
	if out := penv.entry(t, "Close", p.Close); countType(out, packet.FIN) != 1 {
		t.Fatalf("Close with everything acknowledged emitted %d FINs, want 1", countType(out, packet.FIN))
	}
	for p.State() != "dead" {
		if _, ok := penv.fireNext(t); !ok {
			t.Fatalf("no timer left in state %s, want the FIN retry to close", p.State())
		}
	}
}

// TestSendPktFreelistCoversBacklog pins the sendPkt freelist and the
// untransmitted queue against the steady state of a sender that keeps a
// 512-packet backlog behind a 512-packet window, under two ACK patterns:
//
//   - window: each cumulative ACK covers the whole flight, so the backlog
//     moves into the window and the queue empties every round. A freelist
//     capped below backlog plus flight drops structs at every ACK and
//     allocates them again at every refill.
//   - quarter: each ACK covers a quarter of the window and the refill tops
//     the backlog up again, so the queue never empties, as on a
//     back-pressured bulk sender. A queue that only rewinds when it drains
//     keeps a slot for every packet ever sent.
//
// Both patterns must allocate nothing once warm. testing.AllocsPerRun
// divides by the run count in integer arithmetic, so the ~20 geometric
// growslice calls of a queue that grows by a slot per packet round down to
// 0 over 1000 rounds: only the storage bound catches that one.
func TestSendPktFreelistCoversBacklog(t *testing.T) {
	const wnd = 512
	for _, tc := range []struct {
		name   string
		ack    uint32 // packets each ACK covers
		rounds int    // AllocsPerRun runs; quarter sends >100 k packets
	}{
		{"window", wnd, 20},
		{"quarter", wnd / 4, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.DisableCC = true
			cfg.FixedWindow = wnd
			m := NewMachine(cfg, discardEnv{})
			m.initiator = true
			m.state = stSynSent
			m.HandlePacket(&packet.Packet{Type: packet.SYNACK, Flags: packet.FlagAck, Seq: 100, Ack: 2, Wnd: wnd})
			if !m.Established() {
				t.Fatalf("state %s, want established", m.State())
			}
			payload := []byte("sixty-four bytes of application payload, one fragment per send.")
			fill := func() {
				for m.QueuedPackets() < wnd {
					if err := m.Send(payload, true); err != nil {
						t.Fatal(err)
					}
				}
			}
			ack := &packet.Packet{Type: packet.ACK, Flags: packet.FlagAck, Seq: 101, Wnd: wnd}
			round := func() {
				ack.Ack = m.sndUna + tc.ack
				m.HandlePacket(ack)
				fill()
			}
			fill()
			for i := 0; i < 4; i++ {
				round()
			}
			if m.inFlightCount() != wnd || m.QueuedPackets() != wnd {
				t.Fatalf("steady state has %d in flight and %d queued, want %d of each", m.inFlightCount(), m.QueuedPackets(), wnd)
			}
			sent := m.sndNxt
			if n := testing.AllocsPerRun(tc.rounds, round); n != 0 {
				t.Fatalf("an ACK of %d and refill allocated %.1f times, want 0 (sendPkt freelist holds %d)", tc.ack, n, len(m.spFree))
			}
			if len(m.spFree) > 2*wnd {
				t.Fatalf("sendPkt freelist holds %d, want at most backlog plus flight (%d)", len(m.spFree), 2*wnd)
			}
			if l, c := len(m.pending), cap(m.pending); l > 4*wnd || c > 4*wnd {
				t.Fatalf("after %d packets the untransmitted queue has len %d, cap %d for a %d-packet backlog, want both at most %d",
					m.sndNxt-sent, l, c, m.QueuedPackets(), 4*wnd)
			}
		})
	}
}

// TestSynAckRetryRearmAllocatesNothing pins the SYNACK retry to zero
// allocations: the re-arm reuses the cached connection-retry callback (a
// method value built at the call site escapes to the heap), and the SYNACK
// is staged in the machine's scratch packet with the machine's own
// handshake attribute list, as every other emission is.
func TestSynAckRetryRearmAllocatesNothing(t *testing.T) {
	env := &armEnv{}
	m := NewMachine(DefaultConfig(), env)
	m.StartServer()
	m.HandlePacket(&packet.Packet{Type: packet.SYN, Flags: packet.FlagAck, ConnID: 7, Seq: 1, Wnd: 64})
	if m.state != stSynRcvd || env.timer.fn == nil {
		t.Fatalf("state %s with retry armed %v, want syn-rcvd with the SYNACK retry armed", m.State(), env.timer.fn != nil)
	}
	fire := func() {
		m.synAckTries = 0 // stay under the retry cap
		env.timer.fn()
	}
	emit := func() { m.sendSynAck(0, false) }
	fired, emitted := testing.AllocsPerRun(100, fire), testing.AllocsPerRun(100, emit)
	if m.state != stSynRcvd {
		t.Fatalf("state %s after retries, want syn-rcvd", m.State())
	}
	if emitted != 0 {
		t.Fatalf("a SYNACK emission allocated %.1f times, want 0", emitted)
	}
	if fired != 0 {
		t.Fatalf("a SYNACK retry fire allocated %.1f times, want 0", fired)
	}
}

// TestEackWithParkedExtentsAllocatesNothing pins the EACK of a lossy
// receiver: listing and sorting the out-of-order buffer's extents into
// the machine's scratch EACK list allocates nothing once that list is
// sized (sort.Slice would allocate a swapper and a closure per ACK).
func TestEackWithParkedExtentsAllocatesNothing(t *testing.T) {
	env := &typeEnv{}
	m := NewMachine(DefaultConfig(), env)
	m.StartServer()
	m.HandlePacket(&packet.Packet{Type: packet.SYN, Flags: packet.FlagAck, ConnID: 7, Seq: 1, Wnd: 64})
	m.HandlePacket(&packet.Packet{Type: packet.ACK, Flags: packet.FlagAck, ConnID: 7, Seq: 2, Ack: m.sndISN + 1, Wnd: 64})
	if !m.Established() {
		t.Fatalf("state %s, want established", m.State())
	}
	// Park five extents behind a hole at seq 2, in scrambled order.
	for _, seq := range []uint32{9, 4, 7, 3, 12} {
		m.HandlePacket(&packet.Packet{
			Type: packet.DATA, Flags: packet.FlagAck | packet.FlagMarked | packet.FlagMsgEnd, ConnID: 7,
			Seq: seq, Ack: m.sndISN + 1, Wnd: 64, MsgID: seq, FragCnt: 1, Payload: []byte("parked"),
		})
	}
	if len(m.ooo) != 5 || env.last != packet.EACK {
		t.Fatalf("%d extents parked, last emission %v; want 5 and an EACK", len(m.ooo), env.last)
	}
	if n := testing.AllocsPerRun(100, m.sendAck); n != 0 {
		t.Fatalf("an EACK listing %d parked extents allocated %.1f times, want 0", len(m.ooo), n)
	}
	if want := []uint32{3, 4, 7, 9, 12}; !slices.Equal(m.outEacks, want) {
		t.Fatalf("EACK lists %v, want %v", m.outEacks, want)
	}
}

// typeEnv is a discardEnv that remembers the type of the last emission.
type typeEnv struct {
	discardEnv
	last packet.Type
}

func (e *typeEnv) Emit(p *packet.Packet) { e.last = p.Type }

// armEnv is a discardEnv whose After reuses one timer holding the last
// callback armed, so arming a timer allocates nothing itself.
type armEnv struct {
	discardEnv
	timer nullTimer
}

func (e *armEnv) After(_ time.Duration, fn func()) Timer {
	e.timer = nullTimer{fn: fn}
	return &e.timer
}

// discardEnv drops every emission and delivery and arms inert timers, so
// an allocation count sees only the machine's own.
type discardEnv struct{}

func (discardEnv) Now() time.Duration                { return 0 }
func (discardEnv) Emit(*packet.Packet)               {}
func (discardEnv) Deliver(Message)                   {}
func (discardEnv) After(time.Duration, func()) Timer { return &nullTimer{} }
