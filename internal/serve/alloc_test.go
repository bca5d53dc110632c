package serve

import (
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/udpwire"
	"github.com/cercs/iqrudp/internal/uio"
)

// TestRouteDataAckAllocs pins the accepted data path: a run of DATA
// datagrams routed to an established connection provokes exactly one ACK,
// and the run, that ACK queued for transmit and the messages taken by the
// application allocate only the delivered payloads. No socket I/O runs —
// the test stands in for the read loop and the transmit loop — and nothing
// on the path goes through a sync.Pool, so the pin holds under -race.
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

	route(rawSyn(id, 100, nil))
	if _, typ := sent(); typ != packet.SYNACK {
		t.Fatalf("SYN answered with %v, want SYNACK", typ)
	}
	serverISN := out.Seq
	c := <-srv.accept
	t.Cleanup(c.Abort)
	route(&packet.Packet{Type: packet.ACK, Flags: packet.FlagAck, ConnID: id, Seq: 101, Ack: serverISN + 1, Wnd: 64})
	// A SYNACK retransmission the wheel fired before the handshake ACK
	// landed would otherwise be counted against the first run.
	sent()

	// A run of DATA datagrams, as runLen cuts it from a receive batch.
	const runN = 8
	payload := make([]byte, 64)
	wires := make([][]byte, runN)
	run := make([]uio.Msg, runN)
	seq, msgID := uint32(101), uint32(1)
	round := func() {
		for i := range run {
			wires[i], err = packet.AppendEncode(wires[i][:0], &packet.Packet{
				Type: packet.DATA, ConnID: id, Flags: packet.FlagMarked | packet.FlagMsgEnd,
				Seq: seq, Ack: serverISN + 1, Wnd: 64, MsgID: msgID, FragCnt: 1, Payload: payload,
			})
			if err != nil {
				t.Fatal(err)
			}
			run[i] = uio.Msg{B: wires[i], AddrPort: from}
			seq++
			msgID++
		}
		if n := runLen(run); n != runN {
			t.Fatalf("runLen = %d, want %d", n, runN)
		}
		if bad := sh.routeRun(id, run, &in); bad != 0 {
			t.Fatalf("%d datagrams failed to decode", bad)
		}
		if n, typ := sent(); n != 1 || typ != packet.ACK || out.Ack != seq {
			t.Fatalf("run of %d DATA provoked %d datagrams (last %v ack %d), want one ACK of %d", runN, n, typ, out.Ack, seq)
		}
		for range run {
			if msg, err := c.Recv(0); err != nil || len(msg.Data) != len(payload) {
				t.Fatalf("Recv = %d bytes, %v", len(msg.Data), err)
			}
		}
	}
	// Warm up: wheel handles, the flight ring's slots, scratch buffers.
	for i := 0; i < 50; i++ {
		round()
	}
	if n := testing.AllocsPerRun(200, round); n != runN {
		t.Fatalf("run of %d DATA allocates %.0f, want %d (the delivered payloads)", runN, n, runN)
	}
}

// TestConnCycleAllocs pins what one short-lived connection costs both ends,
// the churn_guarded benchmark's cycle in process: Dial against an engine
// that cookie-validates every SYN (Options.AlwaysValidate), send 8 marked
// 256-byte messages, Close; the accepting side receives until the
// connection closes and then Closes it too. A cycle must stay within
// cycleAllocs allocations and cycleBytes bytes, counted over both ends,
// the test's own message buffers included (≈135 and ≈243 KiB on
// linux/amd64 with Go 1.24; 277 and 262 KiB before the set-up costs were
// cut). Both budgets hold under -race: a clean loopback cycle does not go
// through the packet pool, the one sync.Pool on the path.
func TestConnCycleAllocs(t *testing.T) {
	const (
		cycleAllocs = 160
		// Most of the bytes are the two 64 KiB delivery queues and the
		// dialer's 64 KiB of receive buffers.
		cycleBytes = 262 << 10
		warm, n    = 50, 300
	)
	srv := startServer(t, Options{Shards: 1, DrainTimeout: time.Second, AlwaysValidate: true})
	go func() {
		for {
			c, err := srv.Accept(0)
			if err != nil {
				return
			}
			go func() {
				for {
					if _, err := c.Recv(0); err != nil {
						break
					}
				}
				c.Close()
			}()
		}
	}()
	addr, cfg := srv.Addr().String(), testConfig()
	cycle := func() {
		c, err := udpwire.Dial(addr, cfg, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := c.Send(make([]byte, 256), true); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
	}
	// settle waits until the engine has detached every closed connection,
	// so a window counts whole cycles at both ends.
	settle := func() {
		for i := 0; srv.Conns() > 0; i++ {
			if i == 500 {
				t.Fatalf("%d connections still attached", srv.Conns())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	for i := 0; i < warm; i++ {
		cycle()
	}
	settle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		cycle()
	}
	settle()
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("a connection cycle allocates %.1f times, %.1f KiB", allocs, bytes/1024)
	if allocs > cycleAllocs {
		t.Errorf("a connection cycle allocates %.1f times, want at most %d", allocs, cycleAllocs)
	}
	if bytes > cycleBytes {
		t.Errorf("a connection cycle allocates %.1f KiB, want at most %d KiB", bytes/1024, cycleBytes>>10)
	}
}
