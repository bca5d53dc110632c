package core

import (
	"bytes"
	"testing"

	"github.com/cercs/iqrudp/internal/packet"
)

// A selective ack parks a packet in the peer's out-of-order buffer; it does
// not prove delivery. A connection that dies while the hole in front of a
// sacked message is still open loses that buffer with the connection (SACK
// reneging), so the resume carryover must re-send the message anyway — only
// the cumulative ack exempts it.
func TestCarryoverIncludesSackedUndelivered(t *testing.T) {
	m, env := establishedMachine(DefaultConfig())
	if err := m.Send([]byte("hole"), true); err != nil {
		t.Fatal(err)
	}
	if err := m.Send([]byte("parked"), true); err != nil {
		t.Fatal(err)
	}
	var seqs []uint32
	for _, p := range env.emitted {
		if p.Type == packet.DATA {
			seqs = append(seqs, p.Seq)
		}
	}
	if len(seqs) != 2 {
		t.Fatalf("emitted %d DATA packets, want 2", len(seqs))
	}

	// The first packet is lost on the wire; the second arrives out of order.
	// The peer EACKs it without moving the cumulative ack.
	m.HandlePacket(&packet.Packet{Type: packet.EACK, Flags: packet.FlagAck, Ack: seqs[0], Wnd: 64, Eacks: []uint32{seqs[1]}})

	m.Abort()
	carry := m.CarryoverMarked()
	if len(carry) != 2 {
		t.Fatalf("carried %d messages, want 2 (sacked-but-undelivered must be re-sent)", len(carry))
	}
	if !bytes.Equal(carry[0], []byte("hole")) || !bytes.Equal(carry[1], []byte("parked")) {
		t.Fatalf("carry = %q, %q", carry[0], carry[1])
	}
}

// A message the cumulative ack has fully covered left the flight entirely:
// the peer delivered it in order, so the carryover must not duplicate it.
func TestCarryoverExcludesCumAcked(t *testing.T) {
	m, env := establishedMachine(DefaultConfig())
	if err := m.Send([]byte("delivered"), true); err != nil {
		t.Fatal(err)
	}
	if err := m.Send([]byte("stranded"), true); err != nil {
		t.Fatal(err)
	}
	var seqs []uint32
	for _, p := range env.emitted {
		if p.Type == packet.DATA {
			seqs = append(seqs, p.Seq)
		}
	}
	if len(seqs) != 2 {
		t.Fatalf("emitted %d DATA packets, want 2", len(seqs))
	}

	// Cumulative ack past the first packet only.
	m.HandlePacket(&packet.Packet{Type: packet.ACK, Flags: packet.FlagAck, Ack: seqs[1], Wnd: 64})

	m.Abort()
	carry := m.CarryoverMarked()
	if len(carry) != 1 {
		t.Fatalf("carried %d messages, want 1", len(carry))
	}
	if !bytes.Equal(carry[0], []byte("stranded")) {
		t.Fatalf("carry[0] = %q, want \"stranded\"", carry[0])
	}
}
