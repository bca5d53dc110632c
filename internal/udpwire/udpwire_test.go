package udpwire_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/serve"
	"github.com/cercs/iqrudp/internal/udpwire"
)

// The loopback tests run dialed connections against the serve engine, the
// one acceptor (serve imports udpwire, so they live in this external
// package; export_test.go lends them the few internals they read).

// listen starts the engine with its default options, as iqrudp.Listen does.
func listen(t *testing.T, cfg core.Config) *serve.Server {
	t.Helper()
	ln, err := serve.Listen("127.0.0.1:0", cfg, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// pair spins up a loopback engine + dialed connection.
func pair(t *testing.T, srvCfg, cliCfg core.Config) (*serve.Server, *udpwire.Conn, *udpwire.Conn) {
	t.Helper()
	ln := listen(t, srvCfg)
	var srv *udpwire.Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv, _ = ln.Accept(5 * time.Second)
	}()
	cli, err := udpwire.Dial(ln.Addr().String(), cliCfg, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	wg.Wait()
	if srv == nil {
		t.Fatal("accept failed")
	}
	return ln, cli, srv
}

func TestDialListenRoundTrip(t *testing.T) {
	_, cli, srv := pair(t, core.DefaultConfig(), core.DefaultConfig())
	payload := []byte("over real sockets")
	if err := cli.Send(payload, true); err != nil {
		t.Fatal(err)
	}
	msg, err := srv.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msg.Data, payload) {
		t.Fatalf("got %q", msg.Data)
	}
	if !msg.Marked {
		t.Fatal("marked flag lost")
	}
}

func TestManyMessagesOrdered(t *testing.T) {
	_, cli, srv := pair(t, core.DefaultConfig(), core.DefaultConfig())
	const n = 200
	for i := 0; i < n; i++ {
		if err := cli.Send([]byte(fmt.Sprintf("msg-%03d", i)), true); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		msg, err := srv.Recv(10 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if want := fmt.Sprintf("msg-%03d", i); string(msg.Data) != want {
			t.Fatalf("msg %d = %q, want %q", i, msg.Data, want)
		}
	}
}

func TestLargeMessageFragmentsOnWire(t *testing.T) {
	_, cli, srv := pair(t, core.DefaultConfig(), core.DefaultConfig())
	payload := bytes.Repeat([]byte{0x5A}, 200_000)
	if err := cli.Send(payload, true); err != nil {
		t.Fatal(err)
	}
	msg, err := srv.Recv(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msg.Data, payload) {
		t.Fatalf("large payload corrupted: %d bytes", len(msg.Data))
	}
}

func TestBidirectional(t *testing.T) {
	_, cli, srv := pair(t, core.DefaultConfig(), core.DefaultConfig())
	if err := cli.Send([]byte("ping"), true); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Recv(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := srv.Send([]byte("pong"), true); err != nil {
		t.Fatal(err)
	}
	msg, err := cli.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Data) != "pong" {
		t.Fatalf("got %q", msg.Data)
	}
}

func TestToleranceExchangedOnHandshake(t *testing.T) {
	srvCfg := core.DefaultConfig()
	srvCfg.LossTolerance = 0.25
	_, cli, _ := pair(t, srvCfg, core.DefaultConfig())
	// Allow the handshake attribute to land.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if udpwire.PeerTolerance(cli) == 0.25 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("peer tolerance not learned")
}

func TestMetricsAndRegistry(t *testing.T) {
	_, cli, srv := pair(t, core.DefaultConfig(), core.DefaultConfig())
	for i := 0; i < 50; i++ {
		cli.Send(make([]byte, 1400), true)
	}
	for i := 0; i < 50; i++ {
		if _, err := srv.Recv(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	mt := cli.Metrics()
	if mt.SentPackets < 50 || mt.AckedPackets == 0 {
		t.Fatalf("metrics implausible: %+v", mt)
	}
	if mt.SRTT <= 0 {
		t.Fatal("no RTT measured")
	}
	if cli.Registry() == nil {
		t.Fatal("registry missing")
	}
}

func TestRecvTimeout(t *testing.T) {
	_, cli, _ := pair(t, core.DefaultConfig(), core.DefaultConfig())
	start := time.Now()
	_, err := cli.Recv(50 * time.Millisecond)
	if err != udpwire.ErrTimeout {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout far too late")
	}
}

func TestCloseUnblocksRecvAndRejectsSend(t *testing.T) {
	_, cli, srv := pair(t, core.DefaultConfig(), core.DefaultConfig())
	done := make(chan error, 1)
	go func() {
		_, err := srv.Recv(0)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	select {
	case err := <-done:
		if err != udpwire.ErrClosed {
			t.Fatalf("recv err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	if err := srv.Send([]byte("x"), true); err != udpwire.ErrClosed {
		t.Fatalf("send err = %v", err)
	}
	_ = cli
}

func TestAcceptMultipleClients(t *testing.T) {
	ln := listen(t, core.DefaultConfig())
	const clients = 4
	srvs := make(chan *udpwire.Conn, clients)
	go func() {
		for i := 0; i < clients; i++ {
			c, err := ln.Accept(5 * time.Second)
			if err != nil {
				return
			}
			srvs <- c
		}
	}()
	var clis []*udpwire.Conn
	for i := 0; i < clients; i++ {
		c, err := udpwire.Dial(ln.Addr().String(), core.DefaultConfig(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Send([]byte(fmt.Sprintf("hello-%d", i)), true)
		clis = append(clis, c)
	}
	got := map[string]bool{}
	starve := time.NewTimer(5 * time.Second)
	defer starve.Stop()
	for i := 0; i < clients; i++ {
		select {
		case s := <-srvs:
			msg, err := s.Recv(5 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			got[string(msg.Data)] = true
		case <-starve.C:
			t.Fatal("accept starved")
		}
	}
	if len(got) != clients {
		t.Fatalf("distinct messages = %d, want %d", len(got), clients)
	}
	_ = clis
}

func TestDialUnreachableTimesOut(t *testing.T) {
	start := time.Now()
	_, err := udpwire.Dial("127.0.0.1:1", core.DefaultConfig(), 300*time.Millisecond)
	if err == nil {
		t.Fatal("dial to dead port succeeded")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("dial timeout not honored")
	}
}

func TestCloseFlushesPendingData(t *testing.T) {
	_, cli, srv := pair(t, core.DefaultConfig(), core.DefaultConfig())
	payload := bytes.Repeat([]byte{7}, 50_000)
	if err := cli.Send(payload, true); err != nil {
		t.Fatal(err)
	}
	cli.Close() // FIN waits for the pipeline to drain
	msg, err := srv.Recv(10 * time.Second)
	if err != nil {
		t.Fatalf("data lost on close: %v", err)
	}
	if !bytes.Equal(msg.Data, payload) {
		t.Fatal("payload corrupted across close")
	}
}

func TestUnmarkedDeliveryOnCleanLoopback(t *testing.T) {
	srvCfg := core.DefaultConfig()
	srvCfg.LossTolerance = 0.5
	_, cli, srv := pair(t, srvCfg, core.DefaultConfig())
	// Loopback doesn't lose packets, so unmarked messages all arrive.
	for i := 0; i < 20; i++ {
		cli.Send([]byte("u"), false)
	}
	for i := 0; i < 20; i++ {
		msg, err := srv.Recv(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Marked {
			t.Fatal("marked flag wrong")
		}
	}
}
