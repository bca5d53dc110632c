package udpwire

import (
	"net"
	"testing"

	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/trace"
	"github.com/cercs/iqrudp/internal/uio"
)

// TestTxErrorCounted breaks the socket under a dialed connection and checks
// the transmit failure surfaces in Metrics.TxErrors and as a tx_error trace
// event instead of vanishing.
func TestTxErrorCounted(t *testing.T) {
	// A real peer address so the connected-socket dial succeeds.
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("peer socket: %v", err)
	}
	defer peer.Close()
	sock, err := net.DialUDP("udp", nil, peer.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatalf("dial socket: %v", err)
	}

	counters := trace.NewCounters()
	cfg := core.DefaultConfig()
	cfg.Tracer = counters
	c := newConn(cfg, sock, peer.LocalAddr().(*net.UDPAddr), DefaultWheel())
	c.ownSocket = true
	tb, err := uio.NewTxBatcher(sock, txRingSize)
	if err != nil {
		t.Fatalf("tx batcher: %v", err)
	}
	c.txb = tb
	sock.Close() // dead socket: every flush must now fail

	c.mu.Lock()
	c.m.StartClient() // stages the SYN
	c.flushTxLocked()
	txErrs := c.m.Metrics().TxErrors
	c.mu.Unlock()

	if txErrs == 0 {
		t.Fatal("transmit failure on a dead socket was not counted in Metrics.TxErrors")
	}
	if got := counters.Count(trace.TxError); got == 0 {
		t.Fatal("transmit failure did not emit a tx_error trace event")
	}
}
