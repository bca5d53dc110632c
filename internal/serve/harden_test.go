package serve

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/guard"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/udpwire"
)

// TestDialThroughRetry: against a server that always demands address
// validation, udpwire.Dial must transparently honour the RETRY challenge —
// one extra round trip, no API change.
func TestDialThroughRetry(t *testing.T) {
	srv := startServer(t, Options{Shards: 2, DrainTimeout: time.Second, AlwaysValidate: true})

	cc, err := udpwire.Dial(srv.Addr().String(), testConfig(), 5*time.Second)
	if err != nil {
		t.Fatalf("Dial through RETRY: %v", err)
	}
	defer cc.Close()
	sc, err := srv.Accept(5 * time.Second)
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	defer sc.Close()

	if err := cc.Send([]byte("validated"), true); err != nil {
		t.Fatalf("Send: %v", err)
	}
	msg, err := sc.Recv(5 * time.Second)
	if err != nil || string(msg.Data) != "validated" {
		t.Fatalf("Recv = %q, %v", msg.Data, err)
	}

	st := srv.Stats()
	if st.RetrySent == 0 {
		t.Fatal("no RETRY sent by AlwaysValidate server")
	}
	if st.CookieRejects != 0 {
		t.Fatalf("cookie rejects = %d, want 0", st.CookieRejects)
	}
}

// TestSynFloodStateless: cookie-less SYNs against a validating server must
// allocate nothing — no connection state, no accepts — while a legitimate
// dialer still gets through mid-flood.
func TestSynFloodStateless(t *testing.T) {
	srv := startServer(t, Options{Shards: 2, DrainTimeout: time.Second, AlwaysValidate: true})

	flood := newRawClient(t, srv.Addr())
	const syns = 500
	for i := 0; i < syns; i++ {
		flood.send(&packet.Packet{Type: packet.SYN, ConnID: uint32(1000 + i), Seq: 1, Wnd: 64})
	}

	cc, err := udpwire.Dial(srv.Addr().String(), testConfig(), 5*time.Second)
	if err != nil {
		t.Fatalf("Dial during flood: %v", err)
	}
	defer cc.Close()
	sc, err := srv.Accept(5 * time.Second)
	if err != nil {
		t.Fatalf("Accept during flood: %v", err)
	}
	defer sc.Close()

	st := srv.Stats()
	if st.Accepted != 1 {
		t.Fatalf("accepted = %d, want only the legitimate dial", st.Accepted)
	}
	if srv.Conns() != 1 {
		t.Fatalf("Conns = %d, want 1", srv.Conns())
	}
	// The legitimate dial can finish before the shards have read the whole
	// flood, so wait for the challenges rather than sampling once.
	deadline := time.Now().Add(5 * time.Second)
	for st.RetrySent < syns && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		st = srv.Stats()
	}
	if st.RetrySent < syns {
		t.Fatalf("retry sent = %d, want >= %d (one per flood SYN)", st.RetrySent, syns)
	}
}

// TestCookieReplayRejected: a cookie binds (source address, ConnID). Minted
// for one client, it must not admit a different source address, nor the same
// source under a different ConnID.
func TestCookieReplayRejected(t *testing.T) {
	srv := startServer(t, Options{Shards: 1, DrainTimeout: time.Second, AlwaysValidate: true})

	victim := newRawClient(t, srv.Addr())
	victim.send(&packet.Packet{Type: packet.SYN, ConnID: 21, Seq: 1, Wnd: 64})
	retry := victim.waitFor(packet.RETRY, 5*time.Second)
	cookie := append([]byte(nil), retry.Payload...)

	// Replay from a different source address (new socket, new port).
	thief := newRawClient(t, srv.Addr())
	thief.send(&packet.Packet{Type: packet.SYN, ConnID: 21, Seq: 1, Wnd: 64,
		Payload: packet.AppendCookieBlock(nil, cookie)})
	thief.waitFor(packet.RETRY, 5*time.Second)

	// Replay from the right address but a different ConnID.
	victim.send(&packet.Packet{Type: packet.SYN, ConnID: 22, Seq: 1, Wnd: 64,
		Payload: packet.AppendCookieBlock(nil, cookie)})
	victim.waitFor(packet.RETRY, 5*time.Second)

	st := srv.Stats()
	if st.CookieRejects < 2 {
		t.Fatalf("cookie rejects = %d, want >= 2", st.CookieRejects)
	}
	if srv.Conns() != 0 || st.Accepted != 0 {
		t.Fatalf("replayed cookies admitted state: conns=%d accepted=%d", srv.Conns(), st.Accepted)
	}

	// The honest echo still works.
	victim.send(&packet.Packet{Type: packet.SYN, ConnID: 21, Seq: 1, Wnd: 64,
		Payload: packet.AppendCookieBlock(nil, cookie)})
	victim.waitFor(packet.SYNACK, 5*time.Second)
}

// TestAmpGate: a peer admitted without address validation (light load, no
// cookie round trip) gets at most 3x the bytes it sent until its handshake
// completes. One SYN, never acknowledged: the SYNACK retransmissions must
// stop at the budget, not retry forever at full amplitude.
func TestAmpGate(t *testing.T) {
	srv := startServer(t, Options{Shards: 1, DrainTimeout: time.Second})

	c := newRawClient(t, srv.Addr())
	syn := &packet.Packet{Type: packet.SYN, ConnID: 31, Seq: 1, Wnd: 64}
	sent := syn.WireSize()
	c.send(syn)

	// The server's initial RTO is 1s, so ~3.5s covers the initial SYNACK
	// plus three retransmission opportunities — enough to overrun 3x the
	// bytes of one minimal SYN.
	var rcvd int
	buf := make([]byte, 2048)
	deadline := time.Now().Add(3500 * time.Millisecond)
	for {
		if err := c.sock.SetReadDeadline(deadline); err != nil {
			t.Fatalf("set deadline: %v", err)
		}
		n, _, err := c.sock.ReadFromUDP(buf)
		if err != nil {
			break // deadline
		}
		rcvd += n
	}

	if rcvd == 0 {
		t.Fatal("no SYNACK at all")
	}
	if rcvd > 3*sent {
		t.Fatalf("unvalidated peer got %d bytes for %d sent (> 3x budget)", rcvd, sent)
	}
	if got := srv.Stats().AmpCapped; got == 0 {
		t.Fatal("no amp.capped events despite exhausted budget")
	}
}

// TestRstRateCap: RST refusals are token-bucket capped per shard; refusals
// beyond the budget are suppressed but still counted.
func TestRstRateCap(t *testing.T) {
	srv := startServer(t, Options{Shards: 1, DrainTimeout: time.Second})

	sh := srv.shards[0]
	sh.rstBucket = guard.NewTokenBucket(5, 5)
	raddr := netip.MustParseAddrPort("127.0.0.1:9999")
	p := &packet.Packet{Type: packet.SYN, ConnID: 41, Seq: 1}
	const refusals = 40
	for i := 0; i < refusals; i++ {
		sh.refuse(p, raddr)
	}

	st := srv.Stats()
	if st.Refused != refusals {
		t.Fatalf("refused = %d, want %d", st.Refused, refusals)
	}
	if st.RstSuppressed == 0 {
		t.Fatal("no RSTs suppressed despite exceeding the bucket")
	}
	if emitted := st.Refused - st.RstSuppressed; emitted > 6 {
		t.Fatalf("%d RSTs emitted, want <= bucket burst (5) + refill slack", emitted)
	}
}

// FuzzServerDemux: arbitrary datagrams into a live validating engine must
// never panic, never allocate connection state, and never elicit responses
// beyond the anti-amplification budget.
func FuzzServerDemux(f *testing.F) {
	srv, err := Listen("127.0.0.1:0", testConfig(), Options{Shards: 2, DrainTimeout: time.Second, AlwaysValidate: true})
	if err != nil {
		f.Fatalf("Listen: %v", err)
	}
	f.Cleanup(func() { srv.Close() })

	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		f.Fatalf("fuzz socket: %v", err)
	}
	f.Cleanup(func() { sock.Close() })
	dst, err := net.ResolveUDPAddr("udp", srv.Addr().String())
	if err != nil {
		f.Fatalf("resolve: %v", err)
	}

	if b, err := packet.Encode(&packet.Packet{Type: packet.SYN, ConnID: 7, Seq: 1, Wnd: 64}); err == nil {
		f.Add(b)
		// Version-flipped and truncated variants of a well-formed SYN.
		flipped := append([]byte(nil), b...)
		flipped[0] ^= 0xFF
		f.Add(flipped)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte("not a packet at all, just bytes on the wire"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 65000 {
			return
		}
		if _, err := sock.WriteToUDP(data, dst); err != nil {
			t.Skipf("write: %v", err)
		}
		// Give the read loop a moment to route the datagram.
		time.Sleep(200 * time.Microsecond)

		if n := srv.Conns(); n != 0 {
			t.Fatalf("fuzz datagram allocated %d connections", n)
		}
		st := srv.Stats()
		if st.Accepted != 0 {
			t.Fatalf("fuzz datagram was accepted: %d", st.Accepted)
		}
		var rx, tx uint64
		for _, ss := range st.Shards {
			rx += ss.RxBytes
			tx += ss.TxBytes
		}
		if tx > 3*rx+1024 {
			t.Fatalf("engine reflected %d bytes for %d received (> 3x + slack)", tx, rx)
		}
	})
}
