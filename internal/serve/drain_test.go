package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/udpwire"
)

// TestGracefulDrain: marked data already accepted by the engine must be
// deliverable to the application after Close begins, and Close itself must
// return within the bounded drain window.
func TestGracefulDrain(t *testing.T) {
	const msgs = 40
	srv := startServer(t, Options{Shards: 2, DrainTimeout: 3 * time.Second})

	cc, err := udpwire.Dial(srv.Addr().String(), testConfig(), 5*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cc.Close()
	sc, err := srv.Accept(5 * time.Second)
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}

	for i := 0; i < msgs; i++ {
		if err := cc.Send([]byte(fmt.Sprintf("drain %d", i)), true); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	// Wait until every packet is acked: the data now sits, undelivered to
	// the application, in the server conn's queue.
	deadline := time.Now().Add(10 * time.Second)
	for cc.QueuedPackets() > 0 || cc.Metrics().InFlight > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("client never drained: queued=%d inflight=%d",
				cc.QueuedPackets(), cc.Metrics().InFlight)
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()

	got := 0
	for {
		_, err := sc.Recv(5 * time.Second)
		if err != nil {
			if errors.Is(err, ErrClosed) {
				break
			}
			t.Fatalf("Recv after %d msgs: %v", got, err)
		}
		got++
	}
	if got != msgs {
		t.Fatalf("drained %d messages, want %d", got, msgs)
	}

	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	if took := time.Since(start); took > 6*time.Second {
		t.Fatalf("Close took %v, want bounded by drain timeout", took)
	}
	if srv.Conns() != 0 {
		t.Fatalf("Conns = %d after Close, want 0", srv.Conns())
	}
}

// TestRefusedSynRST: when the accept queue is full, excess SYNs are answered
// with RST — the dialer fails fast with ErrRefused instead of timing out.
func TestRefusedSynRST(t *testing.T) {
	srv := startServer(t, Options{Shards: 1, Backlog: 1, DrainTimeout: time.Second})

	// Nobody calls Accept: the first handshake parks in the queue and fills it.
	first, err := udpwire.Dial(srv.Addr().String(), testConfig(), 5*time.Second)
	if err != nil {
		t.Fatalf("first Dial: %v", err)
	}
	defer first.Close()

	_, err = udpwire.Dial(srv.Addr().String(), testConfig(), 5*time.Second)
	if !errors.Is(err, udpwire.ErrRefused) {
		t.Fatalf("second Dial err = %v, want ErrRefused", err)
	}
	if got := srv.Stats().Refused; got == 0 {
		t.Fatal("refused counter not incremented")
	}
}

// TestDrainingRefusesSyn: while a drain is in progress, new handshakes get
// RST instead of SYNACK.
func TestDrainingRefusesSyn(t *testing.T) {
	srv := startServer(t, Options{Shards: 1, DrainTimeout: 2 * time.Second})

	// Establish a connection whose peer will ignore the FIN, so the drain
	// occupies the full timeout and leaves a window to probe.
	mute := newRawClient(t, srv.Addr())
	mute.send(rawSyn(44, 1, nil))
	synack := mute.waitFor(packet.SYNACK, 5*time.Second)
	mute.send(&packet.Packet{Type: packet.ACK, Flags: packet.FlagAck, ConnID: 44, Seq: 2, Ack: synack.Seq + 1, Wnd: 64})
	sc, err := srv.Accept(5 * time.Second)
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	// One delivered DATA guarantees the server machine is established before
	// the drain starts; a still-handshaking conn would abort instantly and
	// close the window this test needs.
	mute.send(&packet.Packet{
		Type: packet.DATA, ConnID: 44, Flags: packet.FlagMarked | packet.FlagMsgEnd | packet.FlagAck,
		Seq: 2, Ack: synack.Seq + 1, Wnd: 64, MsgID: 1, FragCnt: 1,
		Payload: []byte("establish"),
	})
	if _, err := sc.Recv(5 * time.Second); err != nil {
		t.Fatalf("Recv: %v", err)
	}

	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	for !srv.draining() {
		time.Sleep(time.Millisecond)
	}

	c := newRawClient(t, srv.Addr())
	c.send(rawSyn(55, 1, nil))
	rst := c.waitFor(packet.RST, 5*time.Second)
	if rst.ConnID != 55 {
		t.Fatalf("RST ConnID = %d, want 55", rst.ConnID)
	}

	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
}
