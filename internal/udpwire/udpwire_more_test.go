package udpwire_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/attr"
	"github.com/cercs/iqrudp/internal/core"
)

func TestAttrsTravelTheWire(t *testing.T) {
	_, cli, srv := pair(t, core.DefaultConfig(), core.DefaultConfig())
	attrs := attr.NewList(
		attr.Attr{Name: "STEP", Value: attr.Int(42)},
		attr.Attr{Name: "FIELD", Value: attr.String_("density")},
		attr.Attr{Name: "SCALE", Value: attr.Float(0.5)},
		attr.Attr{Name: "FINAL", Value: attr.Bool(true)},
	)
	if err := cli.SendMsg([]byte("payload"), true, attrs); err != nil {
		t.Fatal(err)
	}
	msg, err := srv.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Attrs == nil {
		t.Fatal("attributes lost on the wire")
	}
	if msg.Attrs.IntOr("STEP", -1) != 42 ||
		msg.Attrs.FloatOr("SCALE", 0) != 0.5 ||
		!msg.Attrs.BoolOr("FINAL", false) {
		t.Fatalf("attrs = %v", msg.Attrs)
	}
	if v, _ := msg.Attrs.Get("FIELD"); v.String() != "density" {
		t.Fatalf("FIELD = %v", v)
	}
}

func TestKeepaliveOverRealSockets(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Keepalive = 50 * time.Millisecond
	cfg.DeadInterval = 5 * time.Second
	_, cli, srv := pair(t, cfg, cfg)
	// Total application silence; the probes keep both sides alive.
	time.Sleep(400 * time.Millisecond)
	if cli.Closed() || srv.Closed() {
		t.Fatal("idle connection died despite keepalive")
	}
	// And data still flows afterward.
	if err := cli.Send([]byte("still here"), true); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Recv(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestDeadPeerDetectedOverRealSockets(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Keepalive = 50 * time.Millisecond
	cfg.DeadInterval = 500 * time.Millisecond
	_, cli, srv := pair(t, core.DefaultConfig(), cfg)
	// The peer vanishes without ceremony: no FIN, no RST, and the engine
	// drops the client's probes for the unknown ConnID.
	srv.Abort()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cli.Closed() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("dead peer never detected")
}

func TestCoordinationReportOverRealSockets(t *testing.T) {
	_, cli, _ := pair(t, core.DefaultConfig(), core.DefaultConfig())
	// Grow the window a little, then report a resolution adaptation.
	for i := 0; i < 20; i++ {
		cli.Send(make([]byte, 1400), true)
	}
	time.Sleep(100 * time.Millisecond)
	before := cli.Metrics().Cwnd
	cli.Report(&core.AdaptationReport{Kind: core.AdaptResolution, Degree: 0.2, FrameSize: 1000})
	after := cli.Metrics().Cwnd
	want := before / (1 - 0.2)
	if after < want*0.99 || after > want*1.01 {
		t.Fatalf("cwnd %v → %v, want ≈%v", before, after, want)
	}
	if cli.Metrics().WindowRescales != 1 {
		t.Fatalf("rescales = %d", cli.Metrics().WindowRescales)
	}
}

func TestConcurrentSendersOneConnection(t *testing.T) {
	_, cli, srv := pair(t, core.DefaultConfig(), core.DefaultConfig())
	const (
		senders = 8
		each    = 50
	)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(g + 1)}, 100)
			for i := 0; i < each; i++ {
				if err := cli.Send(payload, true); err != nil {
					t.Errorf("sender %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	counts := map[byte]int{}
	for i := 0; i < senders*each; i++ {
		msg, err := srv.Recv(10 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		counts[msg.Data[0]]++
	}
	for g := 0; g < senders; g++ {
		if counts[byte(g+1)] != each {
			t.Fatalf("sender %d delivered %d of %d", g, counts[byte(g+1)], each)
		}
	}
}

func TestDroppedDeliveriesCounted(t *testing.T) {
	_, cli, srv := pair(t, core.DefaultConfig(), core.DefaultConfig())
	// Flood without draining: the 1024-slot queue overruns and the overflow
	// is counted rather than wedging the connection.
	for i := 0; i < 3000; i++ {
		if err := cli.Send([]byte("x"), true); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && srv.DroppedDeliveries() == 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if srv.DroppedDeliveries() == 0 {
		t.Skip("queue never overran on this machine (very fast consumer scheduling)")
	}
	// The connection is still usable.
	if err := cli.Send([]byte("after-overrun"), true); err != nil {
		t.Fatal(err)
	}
}

// TestDialedTxRingFlushes verifies a dialed connection actually transmits
// through the batched TX ring: after a round trip the flush counter moved.
func TestDialedTxRingFlushes(t *testing.T) {
	ln, cli, srv := pair(t, core.DefaultConfig(), core.DefaultConfig())
	defer ln.Close()
	defer srv.Close()
	defer cli.Close()

	if err := cli.Send([]byte("ping"), true); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := srv.Recv(2 * time.Second); err != nil {
		t.Fatalf("recv: %v", err)
	}
	if got := cli.TxFlushes(); got == 0 {
		t.Fatal("dialed connection did not flush through the TX ring")
	}
	if got := srv.TxFlushes(); got != 0 {
		t.Fatalf("accepted connection should not use the TX ring, flushed %d", got)
	}
}
