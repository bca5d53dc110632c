package udpwire

import (
	"net"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/uio"
)

// TestDialedHandleBatchAllocs pins the dialed receive path: a batch of DATA
// datagrams applied as one receive run, its ACK flushed through the TX ring
// and the messages pushed onto the receive queue allocate only the
// delivered payloads. The test plays the read loop and the server, so no
// goroutine but its own touches the connection.
func TestDialedHandleBatchAllocs(t *testing.T) {
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	peerAddr := peer.LocalAddr().(*net.UDPAddr)
	sock, err := net.DialUDP("udp", nil, peerAddr)
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(core.DefaultConfig(), sock, peerAddr, DefaultWheel())
	c.ownSocket = true
	defer c.Abort()
	if c.txb, err = uio.NewTxBatcher(sock, txRingSize); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.m.StartClient()
	c.flushTxLocked()
	c.mu.Unlock()

	buf := make([]byte, 2048)
	if err := peer.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, _, err := peer.ReadFromUDP(buf)
	if err != nil {
		t.Fatalf("no SYN: %v", err)
	}
	syn, err := packet.Decode(buf[:n])
	if err != nil || syn.Type != packet.SYN {
		t.Fatalf("first datagram %v, %v; want SYN", syn, err)
	}

	var p packet.Packet // the read loop's recycled packet
	const batch, serverISN = 4, 5000
	wire := make([][]byte, batch)
	msgs := make([]uio.Msg, batch)
	encode := func(i int, q *packet.Packet) {
		if wire[i], err = packet.AppendEncode(wire[i][:0], q); err != nil {
			t.Fatal(err)
		}
		msgs[i].B = wire[i]
	}
	encode(0, &packet.Packet{Type: packet.SYNACK, ConnID: syn.ConnID, Seq: serverISN, Ack: syn.Seq + 1, Wnd: 64})
	c.HandleRun(msgs[:1], &p)
	if !c.Handshaked() {
		t.Fatal("SYNACK did not establish the connection")
	}

	payload := make([]byte, 64)
	seq, msgID := uint32(serverISN+1), uint32(1)
	round := func() {
		for i := range msgs {
			encode(i, &packet.Packet{
				Type: packet.DATA, ConnID: syn.ConnID, Flags: packet.FlagMarked | packet.FlagMsgEnd,
				Seq: seq, Ack: syn.Seq + 1, Wnd: 64, MsgID: msgID, FragCnt: 1, Payload: payload,
			})
			seq++
			msgID++
		}
		c.HandleRun(msgs, &p)
		for range msgs {
			if msg, err := c.Recv(0); err != nil || len(msg.Data) != len(payload) {
				t.Fatalf("Recv = %d bytes, %v", len(msg.Data), err)
			}
		}
	}
	for i := 0; i < 100; i++ {
		round()
	}
	if n := testing.AllocsPerRun(200, round); n != batch {
		t.Fatalf("a batch of %d deliveries allocates %.0f, want %d (the payloads)", batch, n, batch)
	}
}
