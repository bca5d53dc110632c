package core

import (
	"slices"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/packet"
)

// runData is a one-fragment marked DATA packet at seq, stamped ts.
func runData(seq uint32, ts time.Duration) *packet.Packet {
	return &packet.Packet{
		Type: packet.DATA, Flags: packet.FlagMarked | packet.FlagMsgEnd,
		Seq: seq, MsgID: seq, FragCnt: 1, TS: ts, Payload: []byte{byte(seq)},
	}
}

// acksSince returns the ACK and EACK packets env saw emitted from index
// from on.
func acksSince(env *nullEnv, from int) []*packet.Packet {
	var out []*packet.Packet
	for _, p := range env.emitted[from:] {
		if p.Type == packet.ACK || p.Type == packet.EACK {
			out = append(out, p)
		}
	}
	return out
}

// endRun closes m's run and checks the invariant drivers rely on: nothing
// is owed once the run is over.
func endRun(t *testing.T, m *Machine) {
	t.Helper()
	m.EndRun()
	if m.ackOwed != 0 || m.inRun {
		t.Fatalf("after EndRun: %d packets still owed an ACK (inRun=%v)", m.ackOwed, m.inRun)
	}
}

func TestRunAcksInOrderDataOnce(t *testing.T) {
	m, env := establishedMachine(DefaultConfig())
	const n = 10
	from := len(env.emitted)
	m.BeginRun()
	for i := uint32(0); i < n; i++ {
		m.HandlePacket(runData(101+i, time.Duration(1000+i)*time.Millisecond))
	}
	if got := acksSince(env, from); len(got) != 0 {
		t.Fatalf("%d ACKs emitted inside the run, want none before EndRun", len(got))
	}
	endRun(t, m)
	got := acksSince(env, from)
	if len(got) != 1 {
		t.Fatalf("run of %d in-order DATA emitted %d ACKs, want 1", n, len(got))
	}
	if a := got[0]; a.Type != packet.ACK || a.Ack != 101+n || a.TSEcho != 1000*time.Millisecond {
		t.Fatalf("ACK %v tsEcho=%v, want cumulative ack %d echoing the first packet's 1s", a, a.TSEcho, 101+n)
	}
	if len(env.delivered) != n {
		t.Fatalf("delivered %d of %d", len(env.delivered), n)
	}
}

func TestRunAcksReorderAndDuplicateAtOnce(t *testing.T) {
	m, env := establishedMachine(DefaultConfig())
	from := len(env.emitted)
	m.BeginRun()
	m.HandlePacket(runData(101, 1*time.Millisecond)) // in order: owed
	m.HandlePacket(runData(103, 3*time.Millisecond)) // hole at 102: EACK now
	got := acksSince(env, from)
	if len(got) != 1 || got[0].Type != packet.EACK || got[0].Ack != 102 || !slices.Equal(got[0].Eacks, []uint32{103}) {
		t.Fatalf("out-of-order arrival answered with %v, want EACK ack=102 [103] at once", got)
	}
	if got[0].TSEcho != 1*time.Millisecond {
		t.Fatalf("EACK echoes %v, want the owed packet's 1ms", got[0].TSEcho)
	}
	m.HandlePacket(runData(102, 2*time.Millisecond)) // fills the hole: owed
	if n := len(acksSince(env, from)); n != 1 {
		t.Fatalf("hole-filling arrival emitted an ACK inside the run (%d total)", n)
	}
	m.HandlePacket(runData(101, 4*time.Millisecond)) // duplicate: ACK now
	got = acksSince(env, from)
	if len(got) != 2 || got[1].Type != packet.ACK || got[1].Ack != 104 {
		t.Fatalf("duplicate answered with %v, want ACK ack=104 at once", got)
	}
	endRun(t, m)
	if n := len(acksSince(env, from)); n != 2 {
		t.Fatalf("EndRun emitted an ACK the duplicate's answer already settled (%d total)", n)
	}
}

func TestRunAcksEarlyAtQuarterWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecvWindow = 64
	m, env := establishedMachine(cfg)
	from := len(env.emitted)
	m.BeginRun()
	for i := uint32(0); i < 20; i++ {
		m.HandlePacket(runData(101+i, time.Duration(i+1)*time.Millisecond))
		if n := len(acksSince(env, from)); i < 15 && n != 0 || i >= 15 && n != 1 {
			t.Fatalf("after %d in-order packets: %d ACKs, want one once 16 (a quarter of 64) are owed", i+1, n)
		}
	}
	endRun(t, m)
	got := acksSince(env, from)
	if len(got) != 2 || got[0].Ack != 117 || got[1].Ack != 121 {
		t.Fatalf("ACKs %v, want ack=117 early and ack=121 at EndRun", got)
	}
	if got[1].TSEcho != 17*time.Millisecond {
		t.Fatalf("EndRun's ACK echoes %v, want 17ms (the earliest packet it covers)", got[1].TSEcho)
	}
}

func TestEndRunAfterDeathEmitsNothing(t *testing.T) {
	m, env := establishedMachine(DefaultConfig())
	m.BeginRun()
	for i := uint32(0); i < 3; i++ {
		m.HandlePacket(runData(101+i, time.Millisecond))
	}
	m.HandlePacket(&packet.Packet{Type: packet.RST})
	if m.State() != "dead" {
		t.Fatalf("RST left the machine %s", m.State())
	}
	from := len(env.emitted)
	endRun(t, m)
	if n := len(env.emitted) - from; n != 0 {
		t.Fatalf("EndRun on a dead machine emitted %d packets", n)
	}
}

// TestHandlePacketOutsideRunAcksEach pins the contract the simulator and
// every single-packet driver rely on: without BeginRun, each DATA packet is
// acknowledged as it is handled, echoing its own timestamp.
func TestHandlePacketOutsideRunAcksEach(t *testing.T) {
	m, env := establishedMachine(DefaultConfig())
	from := len(env.emitted)
	for i := uint32(0); i < 5; i++ {
		ts := time.Duration(i+1) * time.Millisecond
		m.HandlePacket(runData(101+i, ts))
		got := acksSince(env, from)
		if len(got) != int(i)+1 {
			t.Fatalf("after %d packets: %d ACKs, want one per packet", i+1, len(got))
		}
		if a := got[i]; a.Ack != 102+i || a.TSEcho != ts {
			t.Fatalf("ACK %v tsEcho=%v, want ack=%d echoing %v", a, a.TSEcho, 102+i, ts)
		}
	}
}

// FuzzAckRuns feeds one DATA stream — lost, duplicated and reordered
// packets, forward skips, unmarked fragments — to two machines, one packet
// by packet and one split into receive runs where the input says. Coalescing
// may change how often data is acknowledged, never what is acknowledged:
// both machines must deliver the same messages and end on the same rcvNxt,
// the same out-of-order set and the same final acknowledgement, and the run
// machine must owe nothing after any run.
// Run with: go test -fuzz=FuzzAckRuns ./internal/core
func FuzzAckRuns(f *testing.F) {
	f.Add([]byte{4, 5, 6, 7, 0x84, 5, 6, 7})                      // in order, two runs
	f.Add([]byte{4, 6, 5, 0x87, 4, 2, 0x8f, 4})                   // reorder, duplicate
	f.Add([]byte{0x64, 0x14, 0x36, 0x95, 4, 0x74, 4, 4, 4, 0x80}) // fwd skips, unmarked
	f.Add(make([]byte, 40))                                       // duplicates only

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := DefaultConfig()
		cfg.RecvWindow = 32 // a quarter is 8: early ACKs happen
		pm, penv := establishedMachine(cfg)
		rm, renv := establishedMachine(cfg)
		pFrom, rFrom := len(penv.emitted), len(renv.emitted)

		const base = uint32(101)
		rm.BeginRun()
		for i, b := range data {
			// Offsets in [-4, 11] around a cursor advancing one per packet.
			seq := base + uint32(i) + uint32(b&0x0f) - 4
			p := packet.Packet{
				Type: packet.DATA, Seq: seq, MsgID: seq / 2, Frag: uint16(seq % 2), FragCnt: 2,
				Payload: []byte{byte(seq), byte(seq >> 8)},
			}
			if b&0x10 != 0 {
				p.Flags |= packet.FlagMarked
			}
			if b&0x60 == 0x60 {
				p.Flags |= packet.FlagFwd
				p.Fwd = seq - 2
			}
			penv.now += time.Microsecond
			renv.now += time.Microsecond
			p.TS = penv.now
			q := p
			pm.HandlePacket(&p)
			rm.HandlePacket(&q)
			if b&0x80 != 0 {
				endRun(t, rm)
				rm.BeginRun()
			}
		}
		endRun(t, rm)

		if len(penv.delivered) != len(renv.delivered) {
			t.Fatalf("delivered %d per packet, %d in runs", len(penv.delivered), len(renv.delivered))
		}
		for i, a := range penv.delivered {
			b := renv.delivered[i]
			if a.ID != b.ID || a.Marked != b.Marked || a.Partial != b.Partial || string(a.Data) != string(b.Data) {
				t.Fatalf("delivery %d: per packet %+v, in runs %+v", i, a, b)
			}
		}
		if pm.rcvNxt != rm.rcvNxt {
			t.Fatalf("rcvNxt %d per packet, %d in runs", pm.rcvNxt, rm.rcvNxt)
		}
		pOOO, rOOO := pm.appendSortedEacks(nil, 1<<30), rm.appendSortedEacks(nil, 1<<30)
		if !slices.Equal(pOOO, rOOO) {
			t.Fatalf("out-of-order set %v per packet, %v in runs", pOOO, rOOO)
		}
		pAcks, rAcks := acksSince(penv, pFrom), acksSince(renv, rFrom)
		if len(rAcks) > len(pAcks) || len(rAcks) == 0 && len(pAcks) > 0 {
			t.Fatalf("runs emitted %d ACKs, per packet %d", len(rAcks), len(pAcks))
		}
		if len(pAcks) > 0 {
			pl, rl := pAcks[len(pAcks)-1], rAcks[len(rAcks)-1]
			if pl.Ack != rl.Ack || !slices.Equal(pl.Eacks, rl.Eacks) {
				t.Fatalf("final ACK %d %v per packet, %d %v in runs", pl.Ack, pl.Eacks, rl.Ack, rl.Eacks)
			}
		}
	})
}
