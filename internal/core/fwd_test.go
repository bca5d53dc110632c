package core

import (
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/packet"
)

// TestRtoRetransmissionCarriesForwardPoint: when the one packet announcing
// a forward point is lost while later packets are still outstanding, the
// retransmission timeout repeats the forward point on the retransmitted
// DATA. Without it the receiver keeps the skipped hole open forever once
// it parks more out-of-order packets than one EACK reports.
func TestRtoRetransmissionCarriesForwardPoint(t *testing.T) {
	m, env := establishedMachine(DefaultConfig()) // peer tolerance 0.4
	m.cc.cwnd = 10
	if err := m.Send([]byte("droppable"), false); err != nil { // seq 2
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // seqs 3..6
		if err := m.Send([]byte("kept"), true); err != nil {
			t.Fatal(err)
		}
	}
	// Three packets above seq 2 arrive: 2 is lost, and being unmarked it is
	// skipped. The forward point (6) goes out once, in a probe the test
	// drops.
	from := len(env.emitted)
	m.HandlePacket(&packet.Packet{Type: packet.EACK, Ack: 2, Wnd: 64, Eacks: []uint32{3, 4, 5}})
	if m.fwdSeq != 6 || m.fwdPending {
		t.Fatalf("after the skip: fwdSeq=%d pending=%v, want 6 already announced", m.fwdSeq, m.fwdPending)
	}
	var announced bool
	for _, p := range env.emitted[from:] {
		announced = announced || p.HasFwd() && p.Fwd == 6
	}
	if !announced {
		t.Fatal("the skip did not announce forward point 6")
	}

	from = len(env.emitted)
	env.advance(2 * time.Second) // seq 6 times out
	var rtx *packet.Packet
	for _, p := range env.emitted[from:] {
		if p.Type == packet.DATA && p.Seq == 6 {
			rtx = p
		}
	}
	if rtx == nil {
		t.Fatal("seq 6 was not retransmitted")
	}
	if !rtx.HasFwd() || rtx.Fwd != 6 {
		t.Fatalf("retransmission of seq 6 carries fwd=%v/%d, want the unacknowledged forward point 6", rtx.HasFwd(), rtx.Fwd)
	}
}

// TestFinWaitsForForwardPoint: Close sends no FIN while the peer has not
// cumulatively acknowledged past a skipped hole. The FIN carries no forward
// point, so a receiver that got it while sacked marked packets sit behind
// the hole would close without delivering them.
func TestFinWaitsForForwardPoint(t *testing.T) {
	m, env := establishedMachine(DefaultConfig()) // peer tolerance 0.4
	m.cc.cwnd = 10
	if err := m.Send([]byte("droppable"), false); err != nil { // seq 2
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // seqs 3..6
		if err := m.Send([]byte("kept"), true); err != nil {
			t.Fatal(err)
		}
	}
	// Everything above seq 2 arrives: 2 is skipped, and the forward point
	// (7) goes out once, in a probe the test drops.
	m.HandlePacket(&packet.Packet{Type: packet.EACK, Ack: 2, Wnd: 64, Eacks: []uint32{3, 4, 5, 6}})
	if m.fwdSeq != 7 {
		t.Fatalf("after the skip: fwdSeq=%d, want 7", m.fwdSeq)
	}
	finAfter := func(from int) *packet.Packet {
		for _, p := range env.emitted[from:] {
			if p.Type == packet.FIN {
				return p
			}
		}
		return nil
	}

	from := len(env.emitted)
	m.Close()
	if finAfter(from) != nil {
		t.Fatalf("FIN sent with sndUna=%d fwdSeq=%d", m.sndUna, m.fwdSeq)
	}
	env.advance(2 * time.Second) // the probe timer repeats the forward point
	var probed bool
	for _, p := range env.emitted[from:] {
		probed = probed || p.Type == packet.NUL && p.HasFwd() && p.Fwd == 7
	}
	if !probed {
		t.Fatal("the forward point was not repeated while the close waited")
	}
	if finAfter(from) != nil {
		t.Fatalf("FIN sent with sndUna=%d fwdSeq=%d", m.sndUna, m.fwdSeq)
	}

	// The peer acknowledges past the hole: now the FIN goes.
	from = len(env.emitted)
	m.HandlePacket(&packet.Packet{Type: packet.ACK, Ack: 7, Wnd: 64})
	if fin := finAfter(from); fin == nil || fin.Seq != 7 {
		t.Fatalf("no FIN at seq 7 once the forward point was acknowledged: %v", fin)
	}
}
