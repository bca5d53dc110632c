package serve

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/attr"
	"github.com/cercs/iqrudp/internal/packet"
)

// rawClient drives the wire protocol by hand from an arbitrary UDP socket,
// letting tests control the source address packet by packet.
type rawClient struct {
	t    *testing.T
	sock *net.UDPConn
	dst  *net.UDPAddr
}

func newRawClient(t *testing.T, dst net.Addr) *rawClient {
	t.Helper()
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("raw client socket: %v", err)
	}
	t.Cleanup(func() { sock.Close() })
	ua, err := net.ResolveUDPAddr("udp", dst.String())
	if err != nil {
		t.Fatalf("resolve %v: %v", dst, err)
	}
	return &rawClient{t: t, sock: sock, dst: ua}
}

// rawSyn builds a SYN the way a dialing machine does — the ack block with
// its receive window, the loss-tolerance handshake attribute — so it clears
// packet.MinSynSize; payload is the optional cookie block or resume token.
func rawSyn(connID, seq uint32, payload []byte) *packet.Packet {
	return &packet.Packet{
		Type: packet.SYN, Flags: packet.FlagAck, ConnID: connID, Seq: seq, Wnd: 64,
		Attrs:   attr.NewList(attr.Attr{Name: attr.LossTolerance, Value: attr.Float(0)}),
		Payload: payload,
	}
}

func (rc *rawClient) send(p *packet.Packet) {
	rc.t.Helper()
	b, err := packet.Encode(p)
	if err != nil {
		rc.t.Fatalf("encode %v: %v", p, err)
	}
	if _, err := rc.sock.WriteToUDP(b, rc.dst); err != nil {
		rc.t.Fatalf("send %v: %v", p, err)
	}
}

// waitFor reads until a packet of the wanted type arrives (ack echoes and
// retransmissions may interleave) or the deadline passes.
func (rc *rawClient) waitFor(want packet.Type, timeout time.Duration) *packet.Packet {
	rc.t.Helper()
	buf := make([]byte, 65536)
	if err := rc.sock.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		rc.t.Fatalf("set read deadline: %v", err)
	}
	defer rc.sock.SetReadDeadline(time.Time{}) //iqlint:ignore errdrop -- test cleanup, socket may already be closed
	for {
		n, _, err := rc.sock.ReadFromUDP(buf)
		if err != nil {
			rc.t.Fatalf("waiting for %v: %v", want, err)
		}
		p, err := packet.Decode(buf[:n])
		if err != nil {
			continue
		}
		if p.Type == want {
			return p
		}
	}
}

// addrKeyed reports whether addr maps to id in the shard's byAddr table.
func addrKeyed(sh *shard, addr *net.UDPAddr, id uint32) bool {
	ap := addr.AddrPort()
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	got, ok := sh.byAddr[ap]
	return ok && got == id
}

// TestPeerMigration exercises the tentpole's ConnID demux: a client whose
// UDP source port changes mid-stream keeps its connection, and the old
// address entry is reaped from the demux table.
func TestPeerMigration(t *testing.T) {
	const connID = 77
	srv := startServer(t, Options{Shards: 2, DrainTimeout: time.Second})
	home := srv.homeShard(connID)

	// Handshake from the first source socket.
	c1 := newRawClient(t, srv.Addr())
	c1.send(rawSyn(connID, 100, nil))
	synack := c1.waitFor(packet.SYNACK, 5*time.Second)

	sc, err := srv.Accept(5 * time.Second)
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	c1.send(&packet.Packet{
		Type: packet.ACK, ConnID: connID, Flags: packet.FlagAck,
		Seq: 101, Ack: synack.Seq + 1, Wnd: 64,
	})

	// First DATA from the original address.
	c1.send(&packet.Packet{
		Type: packet.DATA, ConnID: connID, Flags: packet.FlagMarked | packet.FlagMsgEnd | packet.FlagAck,
		Seq: 101, Ack: synack.Seq + 1, Wnd: 64, MsgID: 1, FragCnt: 1,
		Payload: []byte("before rebind"),
	})
	msg, err := sc.Recv(5 * time.Second)
	if err != nil || string(msg.Data) != "before rebind" {
		t.Fatalf("first Recv = %q, %v", msg.Data, err)
	}

	addr1 := c1.sock.LocalAddr().(*net.UDPAddr)
	if !addrKeyed(home, addr1, connID) {
		t.Fatalf("no byAddr entry for original address %v", addr1)
	}

	// Same ConnID, new source socket: a NAT rebind. The next DATA must reach
	// the same connection and migrate its peer address.
	c2 := newRawClient(t, srv.Addr())
	c2.send(&packet.Packet{
		Type: packet.DATA, ConnID: connID, Flags: packet.FlagMarked | packet.FlagMsgEnd | packet.FlagAck,
		Seq: 102, Ack: synack.Seq + 1, Wnd: 64, MsgID: 2, FragCnt: 1,
		Payload: []byte("after rebind"),
	})
	msg, err = sc.Recv(5 * time.Second)
	if err != nil || string(msg.Data) != "after rebind" {
		t.Fatalf("post-migration Recv = %q, %v", msg.Data, err)
	}

	addr2 := c2.sock.LocalAddr().(*net.UDPAddr)
	if got := sc.RemoteAddr().String(); got != addr2.String() {
		t.Fatalf("RemoteAddr = %v, want migrated %v", got, addr2)
	}
	if addrKeyed(home, addr1, connID) {
		t.Fatalf("stale byAddr entry for %v not reaped", addr1)
	}
	if !addrKeyed(home, addr2, connID) {
		t.Fatalf("no byAddr entry for migrated address %v", addr2)
	}
	if got := srv.Stats().Migrations; got != 1 {
		t.Fatalf("migrations = %d, want 1", got)
	}
	// The ack for the migrated DATA must go to the new address.
	c2.waitFor(packet.ACK, 5*time.Second)
}

// TestSynCollisionRefused: a SYN reusing an established ConnID from a
// different host must be refused with RST, not hijack the connection.
func TestSynCollisionRefused(t *testing.T) {
	const connID = 91
	srv := startServer(t, Options{Shards: 2, DrainTimeout: time.Second})

	c1 := newRawClient(t, srv.Addr())
	c1.send(rawSyn(connID, 10, nil))
	c1.waitFor(packet.SYNACK, 5*time.Second)
	sc, err := srv.Accept(5 * time.Second)
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}

	c2 := newRawClient(t, srv.Addr())
	c2.send(rawSyn(connID, 500, nil))
	rst := c2.waitFor(packet.RST, 5*time.Second)
	if rst.ConnID != connID {
		t.Fatalf("RST ConnID = %d, want %d", rst.ConnID, connID)
	}
	if sc.Closed() {
		t.Fatal("established connection was torn down by the colliding SYN")
	}
	if got := srv.Stats().Refused; got != 1 {
		t.Fatalf("refused = %d, want 1", got)
	}
}

// TestZombieEviction: a new SYN with a new ConnID from an address hosting a
// stale connection evicts the zombie and admits the successor.
func TestZombieEviction(t *testing.T) {
	srv := startServer(t, Options{Shards: 1, DrainTimeout: time.Second})

	c := newRawClient(t, srv.Addr())
	c.send(rawSyn(11, 10, nil))
	c.waitFor(packet.SYNACK, 5*time.Second)
	old, err := srv.Accept(5 * time.Second)
	if err != nil {
		t.Fatalf("Accept old: %v", err)
	}

	// Client "restarts" from the same socket with a fresh ConnID. Eviction
	// is destructive, so the engine answers the cookie-less SYN with a
	// RETRY challenge instead of evicting; nothing changes until the
	// client proves it owns the source address by echoing the cookie.
	c.send(rawSyn(12, 10, nil))
	retry := c.waitFor(packet.RETRY, 5*time.Second)
	if len(retry.Payload) == 0 {
		t.Fatal("RETRY carried no cookie")
	}
	if old.Closed() {
		t.Fatal("un-cookied SYN evicted the predecessor")
	}
	if got := srv.Stats().EvictDenied; got != 1 {
		t.Fatalf("evict denied = %d, want 1", got)
	}
	c.send(rawSyn(12, 10, packet.AppendCookieBlock(nil, retry.Payload)))
	c.waitFor(packet.SYNACK, 5*time.Second)
	fresh, err := srv.Accept(5 * time.Second)
	if err != nil {
		t.Fatalf("Accept fresh: %v", err)
	}
	if fresh.ID() != 12 {
		t.Fatalf("fresh conn ID = %d, want 12", fresh.ID())
	}

	deadline := time.Now().Add(5 * time.Second)
	for !old.Closed() {
		if time.Now().After(deadline) {
			t.Fatal("zombie connection not evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if srv.Conns() != 1 {
		t.Fatalf("Conns = %d, want 1 after eviction", srv.Conns())
	}
}
