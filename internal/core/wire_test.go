package core

import (
	"slices"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/hist"
	"github.com/cercs/iqrudp/internal/packet"
)

// wirePair connects two machines through the packet codec on one shared
// clock: every emission is encoded, carried for the one-way delay and
// decoded at the peer, so wire timestamps wrap exactly as they do over a
// real socket. drop, when set, discards a DATA packet on its first
// transmission.
type wirePair struct {
	now    time.Duration
	delay  time.Duration
	events []*wireEvent
	a, b   *wireEnd
	drop   func(p *packet.Packet) bool
}

type wireEvent struct {
	at      time.Duration
	fn      func()
	stopped bool
}

func (e *wireEvent) Stop() bool {
	was := !e.stopped
	e.stopped = true
	return was
}

// wireEnd is one side's Env.
type wireEnd struct {
	w         *wirePair
	m         *Machine
	peer      *wireEnd
	sent      []packet.Packet // staged emissions, as the machine built them
	delivered []Message
}

func (e *wireEnd) Now() time.Duration { return e.w.now }

func (e *wireEnd) Emit(p *packet.Packet) {
	q := *p
	q.Payload, q.Eacks = nil, nil
	e.sent = append(e.sent, q)
	if e.w.drop != nil && p.Type == packet.DATA && e.w.drop(p) {
		return
	}
	b, err := packet.Encode(p)
	if err != nil {
		panic(err)
	}
	peer := e.peer
	e.w.schedule(e.w.delay, func() {
		d, err := packet.Decode(b)
		if err != nil {
			panic(err)
		}
		peer.m.HandlePacket(d)
	})
}

func (e *wireEnd) Deliver(msg Message) { e.delivered = append(e.delivered, msg) }

func (e *wireEnd) After(d time.Duration, fn func()) Timer { return e.w.schedule(d, fn) }

func (w *wirePair) schedule(d time.Duration, fn func()) *wireEvent {
	ev := &wireEvent{at: w.now + d, fn: fn}
	w.events = append(w.events, ev)
	return ev
}

// run fires events in time order (FIFO among equal times) until the clock
// reaches until.
func (w *wirePair) run(until time.Duration) {
	for {
		i := -1
		for j, ev := range w.events {
			if !ev.stopped && ev.at <= until && (i < 0 || ev.at < w.events[i].at) {
				i = j
			}
		}
		if i < 0 {
			w.now = until
			return
		}
		ev := w.events[i]
		w.events = append(w.events[:i], w.events[i+1:]...)
		w.now = ev.at
		ev.fn()
	}
}

// newWirePair builds an initiator (a) and a passive side (b), starts the
// handshake at time start, and runs it for one second.
func newWirePair(t *testing.T, start, delay time.Duration, acfg, bcfg Config) *wirePair {
	t.Helper()
	w := &wirePair{now: start, delay: delay}
	w.a, w.b = &wireEnd{w: w}, &wireEnd{w: w}
	w.a.peer, w.b.peer = w.b, w.a
	w.a.m, w.b.m = NewMachine(acfg, w.a), NewMachine(bcfg, w.b)
	w.b.m.StartServer()
	w.a.m.StartClient()
	w.run(start + time.Second)
	if !w.a.m.Established() || !w.b.m.Established() {
		t.Fatalf("handshake: a=%s b=%s", w.a.m.State(), w.b.m.State())
	}
	return w
}

// TestTimestampsAcrossWrap runs a connection whose clock starts just below
// the 2^32 µs wrap of the wire timestamps and crosses it mid-flow: the
// handshake and data RTT samples, every message's SentAt and the delivery
// histogram must all come out as if the timestamps never wrapped.
func TestTimestampsAcrossWrap(t *testing.T) {
	const wrap = time.Duration(1<<32) * time.Microsecond
	const delay = 10 * time.Millisecond
	start := wrap - 500*time.Millisecond
	acfg, bcfg := DefaultConfig(), DefaultConfig()
	acfg.Hists, bcfg.Hists = NewHists(), NewHists()
	w := newWirePair(t, start, delay, acfg, bcfg)

	// The handshake sample: the SYN left at start, the SYNACK echoed it.
	if got := w.a.m.rtt.SRTT(); got != 2*delay {
		t.Fatalf("SRTT after the handshake = %v, want %v", got, 2*delay)
	}
	sentAt := map[uint32]time.Duration{}
	for i := 0; i < 20; i++ {
		if err := w.a.m.Send([]byte{byte(i)}, true); err != nil {
			t.Fatal(err)
		}
		sentAt[w.a.sent[len(w.a.sent)-1].MsgID] = w.now
		w.run(w.now + 50*time.Millisecond) // ten messages each side of the wrap
	}
	w.run(w.now + time.Second)
	if w.now < wrap {
		t.Fatalf("clock %v never crossed the wrap", w.now)
	}

	if len(w.b.delivered) != 20 {
		t.Fatalf("delivered %d of 20", len(w.b.delivered))
	}
	for _, msg := range w.b.delivered {
		if want := sentAt[msg.ID]; msg.SentAt != want {
			t.Errorf("message %d: SentAt %v, want %v", msg.ID, msg.SentAt, want)
		}
		if d := msg.DeliveredAt - msg.SentAt; d != delay {
			t.Errorf("message %d: one-way delay %v, want %v", msg.ID, d, delay)
		}
	}
	for _, c := range []struct {
		name string
		s    hist.Snapshot
		want time.Duration
	}{
		{"rtt", w.a.m.Hists().RTT.Snapshot(), 2 * delay},
		{"delivery", w.b.m.Hists().Delivery.Snapshot(), delay},
	} {
		// One sample off by a wrap would drag the exact mean by minutes.
		if mean := time.Duration(c.s.Mean()); c.s.Count == 0 || mean < c.want*9/10 || mean > c.want*11/10 {
			t.Errorf("%s histogram: %d samples, mean %v, want all ≈ %v", c.name, c.s.Count, mean, c.want)
		}
	}
}

// TestSynMeetsServerFloor: a dialer's SYN carries the ack block and the
// handshake attributes, so a serving engine's packet.MinSynSize floor never
// drops it.
func TestSynMeetsServerFloor(t *testing.T) {
	env := &nullEnv{}
	m := NewMachine(DefaultConfig(), env)
	m.StartClient()
	if len(env.emitted) != 1 || env.emitted[0].Type != packet.SYN {
		t.Fatalf("StartClient emitted %v, want one SYN", env.emitted)
	}
	if got := env.emitted[0].WireSize(); got < packet.MinSynSize {
		t.Fatalf("SYN is %d bytes, below the %d-byte floor", got, packet.MinSynSize)
	}
}

// TestHandshakeSampleAtTimeZero: a SYN sent at t = 0 carries timestamp 0,
// and its echo still yields the handshake RTT sample.
func TestHandshakeSampleAtTimeZero(t *testing.T) {
	w := newWirePair(t, 0, 15*time.Millisecond, DefaultConfig(), DefaultConfig())
	if got := w.a.m.rtt.SRTT(); got != 30*time.Millisecond {
		t.Fatalf("SRTT after a handshake at t=0 = %v, want 30ms", got)
	}
}

// TestMessageIDs sends a mixed stream of one- and multi-fragment unmarked
// messages and loses the leading fragment of one multi-fragment message
// (the sender abandons it within the receiver's tolerance). Delivered IDs
// must be unique, increasing and equal to the sender's, and the message
// that lost its head must still arrive, partial, under its own ID.
func TestMessageIDs(t *testing.T) {
	acfg, bcfg := DefaultConfig(), DefaultConfig()
	acfg.MSS, bcfg.MSS = 100, 100
	bcfg.LossTolerance = 0.5
	w := newWirePair(t, time.Second, 5*time.Millisecond, acfg, bcfg)

	sizes := []int{40, 250, 60, 330, 20, 150, 90, 280, 10, 70, 70, 70, 70, 70}
	const victim = 3 // the 330-byte message: four fragments, the first lost
	var victimID uint32
	dropped := false
	w.drop = func(p *packet.Packet) bool {
		if !dropped && p.MsgID == victimID && p.Frag == 0 && p.FragCnt > 1 {
			dropped = true
			return true
		}
		return false
	}
	for i, n := range sizes {
		if i == victim {
			victimID = w.a.m.sndNxt
		}
		if err := w.a.m.Send(make([]byte, n), false); err != nil {
			t.Fatal(err)
		}
	}
	w.run(w.now + 5*time.Second)
	if !dropped {
		t.Fatal("the victim's leading fragment was never sent")
	}
	// The sender's message IDs, in send order, as its DATA packets named
	// them (retransmissions repeat an ID).
	var sent []uint32
	for _, p := range w.a.sent {
		if p.Type == packet.DATA && !slices.Contains(sent, p.MsgID) {
			sent = append(sent, p.MsgID)
		}
	}
	if len(sent) != len(sizes) || sent[victim] != victimID {
		t.Fatalf("sender's IDs %v, want %d messages with the victim %d", sent, len(sizes), victimID)
	}

	var got []uint32
	partial := map[uint32]bool{}
	for _, msg := range w.b.delivered {
		got = append(got, msg.ID)
		partial[msg.ID] = msg.Partial
	}
	if !slices.Equal(got, sent) {
		t.Fatalf("delivered IDs %v, sender's %v", got, sent)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("IDs not increasing: %v", got)
		}
	}
	if !partial[victimID] {
		t.Fatalf("message %d lost its leading fragment but was not delivered partial", victimID)
	}
	if lost := w.b.m.Metrics().LostMsgs; lost != 0 {
		t.Fatalf("LostMsgs = %d, want 0: the headless message was delivered", lost)
	}
}

// TestDataCarriesAckUntilAcknowledged pins the handshake rule behind the
// compact DATA header: the initiator's data carries the ack block until
// the peer acknowledges some of it, so a passive side whose third-leg ACK
// was lost still establishes on data; after that, DATA goes without it.
func TestDataCarriesAckUntilAcknowledged(t *testing.T) {
	cfg := DefaultConfig()
	w := &wirePair{now: time.Second, delay: 5 * time.Millisecond}
	w.a, w.b = &wireEnd{w: w}, &wireEnd{w: w}
	w.a.peer, w.b.peer = w.b, w.a
	w.a.m, w.b.m = NewMachine(cfg, w.a), NewMachine(cfg, w.b)
	w.b.m.StartServer()
	w.a.m.StartClient()
	// Deliver SYN and SYNACK; drop the third-leg ACK by discarding every
	// event the initiator's ACK scheduled.
	w.run(w.now + 2*w.delay)
	if !w.a.m.Established() || w.b.m.Established() {
		t.Fatalf("after SYNACK: a=%s b=%s", w.a.m.State(), w.b.m.State())
	}
	for _, ev := range w.events {
		ev.stopped = true // the third-leg ACK (and any timers: re-armed below)
	}
	w.events = nil

	// Data without the ack block proves nothing to the passive side.
	bare := &packet.Packet{Type: packet.DATA, Flags: packet.FlagMarked | packet.FlagMsgEnd,
		Seq: w.a.m.sndNxt, FragCnt: 1, Payload: []byte("x")}
	w.b.m.HandlePacket(bare)
	if w.b.m.Established() {
		t.Fatal("DATA without an ack block completed the handshake")
	}

	if err := w.a.m.Send([]byte("first"), true); err != nil {
		t.Fatal(err)
	}
	first := w.a.sent[len(w.a.sent)-1]
	if first.Type != packet.DATA || !first.HasAck() {
		t.Fatalf("first DATA %v flags %#x: want the ack block", first.Type, first.Flags)
	}
	w.run(w.now + 100*time.Millisecond)
	if !w.b.m.Established() {
		t.Fatal("the initiator's DATA did not complete the handshake")
	}
	if len(w.b.delivered) != 1 {
		t.Fatalf("delivered %d, want the first message", len(w.b.delivered))
	}
	if err := w.a.m.Send([]byte("second"), true); err != nil {
		t.Fatal(err)
	}
	if second := w.a.sent[len(w.a.sent)-1]; second.HasAck() {
		t.Fatal("DATA after the peer acknowledged data still carries the ack block")
	}
}

// TestWireOverheads pins the header budgets (header plus checksum) of the
// packets a steady connection sends: single-fragment DATA, multi-fragment
// DATA and the ACK.
func TestWireOverheads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSS = 100
	w := newWirePair(t, time.Second, 5*time.Millisecond, cfg, cfg)
	if err := w.a.m.Send([]byte("warm-up"), true); err != nil {
		t.Fatal(err)
	}
	w.run(w.now + time.Second) // acknowledged: the ack block leaves DATA

	// wireEnd keeps emissions without their payload, so WireSize is the
	// header-plus-checksum overhead.
	from := len(w.a.sent)
	if err := w.a.m.Send(make([]byte, 64), true); err != nil {
		t.Fatal(err)
	}
	if got := w.a.sent[from].WireSize(); got > 20 {
		t.Errorf("single-fragment DATA overhead %d bytes, want ≤ 20", got)
	}
	from = len(w.a.sent)
	if err := w.a.m.Send(make([]byte, 350), true); err != nil {
		t.Fatal(err)
	}
	for _, p := range w.a.sent[from:] {
		if got := p.WireSize(); p.Type == packet.DATA && got > 24 {
			t.Errorf("fragment %d overhead %d bytes, want ≤ 24", p.Frag, got)
		}
	}
	from = len(w.b.sent)
	w.run(w.now + time.Second)
	acks := 0
	for _, p := range w.b.sent[from:] {
		if p.Type == packet.ACK {
			acks++
			if got := p.WireSize(); got > 28 {
				t.Errorf("ACK overhead %d bytes, want ≤ 28", got)
			}
		}
	}
	if acks == 0 {
		t.Fatal("no ACK seen")
	}
}
