package serve

import (
	"errors"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/trace"
	"github.com/cercs/iqrudp/internal/udpwire"
	"github.com/cercs/iqrudp/internal/uio"
)

// TestSaturatedDefaultWindow drives the engine the way the benchmark's
// bulk_small workload would at the transport's default RecvWindow (512):
// two dialed connections blast 64 B marked messages closed-loop for 2 s,
// all in one process on one P. Nothing may be dropped before the kernel —
// the shard's transmit queue blocks instead of discarding ACKs — and the
// dialed sockets must hold a full window of ACKs, so no packet is
// retransmitted, neither connection's window collapses to 2, and both close
// gracefully without waiting out a FIN retransmission.
func TestSaturatedDefaultWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("2 s saturation run")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	cfg := core.DefaultConfig()
	srv, err := Listen("127.0.0.1:0", cfg, Options{DrainTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	go func() {
		for {
			sc, err := srv.Accept(0)
			if err != nil {
				return
			}
			go func() {
				for {
					if _, err := sc.Recv(0); err != nil {
						return
					}
				}
			}()
		}
	}()

	cs := blast(t, srv, cfg, 2, 2*time.Second)

	var drops uint64
	for _, sh := range srv.Stats().Shards {
		drops += sh.TxDrops
	}
	if drops != 0 {
		t.Errorf("engine dropped %d datagrams before the kernel", drops)
	}
	for i, c := range cs {
		m := c.Metrics()
		t.Logf("conn %d: %v", i, m)
		if m.Retransmits != 0 {
			t.Errorf("conn %d retransmitted %d packets", i, m.Retransmits)
		}
		if m.Cwnd <= 2 {
			t.Errorf("conn %d window collapsed to %.1f", i, m.Cwnd)
		}
		if n := c.SockBufErrs(); n != 0 {
			t.Errorf("conn %d: %d socket-buffer sizing failures", i, n)
		}
	}
	for i, c := range cs {
		closeGracefully(t, i, c)
	}
}

// TestRunCoalescesAcks: the read loop applies each same-connection run of a
// receive batch under one lock section, so a closed-loop blast of small
// messages is acknowledged about once per run instead of once per packet —
// without costing a retransmission, a dropped delivery or a graceful close.
// It runs on one P, like TestSaturatedDefaultWindow: with two, the engine
// outpaces a receiving goroutine that is woken per message and overruns
// its delivery queue, with per-packet acknowledgement as well (receive
// back-pressure is a separate matter).
func TestRunCoalescesAcks(t *testing.T) {
	if testing.Short() {
		t.Skip("2 s blast")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	cfg := core.DefaultConfig()
	srv, err := Listen("127.0.0.1:0", cfg, Options{Shards: 1, DrainTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	accepted := make(chan *udpwire.Conn, 1)
	go func() {
		sc, err := srv.Accept(0)
		if err != nil {
			return
		}
		accepted <- sc
		for {
			if _, err := sc.Recv(0); err != nil {
				return
			}
		}
	}()

	before := srv.Stats().Shards[0]
	c := blast(t, srv, cfg, 1, 2*time.Second)[0]
	after := srv.Stats().Shards[0]
	rx, tx := after.RxPackets-before.RxPackets, after.TxPackets-before.TxPackets
	m := c.Metrics()
	t.Logf("sink rx %d tx %d (%.3f); dialer %v", rx, tx, float64(tx)/float64(rx), m)
	if rx == 0 || float64(tx)/float64(rx) > 0.15 {
		t.Errorf("sink sent %d datagrams for %d received, want at most 0.15 per datagram", tx, rx)
	}
	if m.Retransmits != 0 {
		t.Errorf("dialer retransmitted %d packets", m.Retransmits)
	}
	sc := <-accepted
	if n := sc.DroppedDeliveries(); n != 0 {
		t.Errorf("sink dropped %d deliveries", n)
	}
	closeGracefully(t, 0, c)
}

// blast dials conns connections to srv and sends 64 B marked messages on
// each, closed loop behind a 512-packet send queue, for d; it returns the
// connections once every one has drained its send queue and flight. They
// are aborted when the test ends.
func blast(t *testing.T, srv *Server, cfg core.Config, conns int, d time.Duration) []*udpwire.Conn {
	t.Helper()
	const backpressure = 512
	cs := make([]*udpwire.Conn, conns)
	for i := range cs {
		var err error
		if cs[i], err = udpwire.Dial(srv.Addr().String(), cfg, 5*time.Second); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		t.Cleanup(cs[i].Abort)
	}
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				for c.QueuedPackets() > backpressure && time.Now().Before(stop) {
					time.Sleep(200 * time.Microsecond)
				}
				if err := c.Send(make([]byte, 64), true); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, c := range cs {
		deadline := time.Now().Add(10 * time.Second)
		for c.QueuedPackets() > 0 || c.Metrics().InFlight > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("conn %d did not drain: %v", i, c.Metrics())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return cs
}

// closeGracefully closes c and fails the test unless the FIN exchange
// finished promptly.
func closeGracefully(t *testing.T, i int, c *udpwire.Conn) {
	t.Helper()
	t0 := time.Now()
	c.Close()
	if d := time.Since(t0); d >= 100*time.Millisecond {
		t.Errorf("conn %d: graceful Close took %v", i, d)
	}
	if r := c.CloseReason(); r == trace.ReasonFinTimeout {
		t.Errorf("conn %d closed by %s", i, r)
	}
}

// TestEnqueueTxReleasedWhenLoopStops: enqueueTx blocks on a full queue, so
// every way the transmit loop can end must release it — the socket closing
// underneath the engine, and the server closing.
func TestEnqueueTxReleasedWhenLoopStops(t *testing.T) {
	for _, stop := range []struct {
		name string
		fn   func(*Server)
	}{
		{"socket closed", func(srv *Server) { srv.socks[0].Close() }},
		{"server closed", func(srv *Server) { srv.Close() }},
	} {
		t.Run(stop.name, func(t *testing.T) {
			srv := startServer(t, Options{Shards: 1, DrainTimeout: time.Second})
			sh := srv.shards[0]
			stop.fn(srv)
			m := uio.Msg{B: []byte{0}, AddrPort: netip.MustParseAddrPort("127.0.0.1:9")}
			// Each queued datagram either reaches the loop before it stops or
			// stays queued; once the queue has filled twice over, only the
			// loop's exit can return.
			for i := 0; i <= 2*cap(sh.txq); i++ {
				if err := sh.enqueueTx(m); errors.Is(err, net.ErrClosed) {
					return
				} else if err != nil {
					t.Fatalf("enqueueTx: %v", err)
				}
			}
			t.Fatal("enqueueTx never reported the stopped transmit loop")
		})
	}
}
