package serve

import (
	"net"
	"net/netip"
	"testing"

	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/uio"
)

// TestRouteDataAckAllocs pins the accepted data path: a DATA datagram
// routed to an established connection, the ACK it provokes queued for
// transmit and the message taken by the application allocate only the
// delivered payload. No socket I/O runs — the test stands in for the read
// loop and the transmit loop — and nothing on the path goes through a
// sync.Pool, so the pin holds under -race.
func TestRouteDataAckAllocs(t *testing.T) {
	opt := Options{Shards: 1}
	opt.sanitize()
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(testConfig(), opt, []*net.UDPConn{sock}, uio.Offload{})
	t.Cleanup(func() {
		srv.closeWheels()
		sock.Close()
	})
	sh := srv.shards[0]
	from := netip.MustParseAddrPort("127.0.0.1:40000")
	const id = 4242

	var in packet.Packet // the read loop's recycled packet
	var wire []byte
	route := func(q *packet.Packet) {
		wire, err = packet.AppendEncode(wire[:0], q)
		if err != nil {
			t.Fatal(err)
		}
		if err := packet.DecodeInto(&in, wire, in.Payload); err != nil {
			t.Fatal(err)
		}
		sh.route(&in, from)
	}
	// sent drains the transmit queue as txLoop would and returns how many
	// datagrams it held and the type of the last.
	var out packet.Packet
	sent := func() (n int, last packet.Type) {
		for {
			select {
			case m := <-sh.txq:
				if err := packet.DecodeInto(&out, m.B, out.Payload); err != nil {
					t.Fatal(err)
				}
				if m.AddrPort != from && m.Addr.AddrPort() != from {
					t.Fatalf("datagram addressed to %v/%v, want %v", m.Addr, m.AddrPort, from)
				}
				ms := [1]uio.Msg{m}
				sh.recycleTx(ms[:])
				n++
				last = out.Type
			default:
				return n, last
			}
		}
	}

	route(&packet.Packet{Type: packet.SYN, ConnID: id, Seq: 100, Wnd: 64})
	if _, typ := sent(); typ != packet.SYNACK {
		t.Fatalf("SYN answered with %v, want SYNACK", typ)
	}
	serverISN := out.Seq
	c := <-srv.accept
	t.Cleanup(c.Abort)
	route(&packet.Packet{Type: packet.ACK, ConnID: id, Seq: 101, Ack: serverISN + 1, Wnd: 64})

	payload := make([]byte, 64)
	seq, msgID := uint32(101), uint32(1)
	round := func() {
		route(&packet.Packet{
			Type: packet.DATA, ConnID: id, Flags: packet.FlagMarked | packet.FlagMsgEnd,
			Seq: seq, Ack: serverISN + 1, Wnd: 64, MsgID: msgID, FragCnt: 1, Payload: payload,
		})
		seq++
		msgID++
		if n, _ := sent(); n == 0 {
			t.Fatal("DATA provoked no ACK")
		}
		if msg, err := c.Recv(0); err != nil || len(msg.Data) != len(payload) {
			t.Fatalf("Recv = %d bytes, %v", len(msg.Data), err)
		}
	}
	// Warm up: wheel handles, the flight ring's slots, scratch buffers.
	for i := 0; i < 200; i++ {
		round()
	}
	if n := testing.AllocsPerRun(500, round); n != 1 {
		t.Fatalf("DATA→ACK round allocates %.0f, want 1 (the delivered payload)", n)
	}
}
