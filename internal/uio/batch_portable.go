//go:build !linux || (!amd64 && !arm64)

package uio

import (
	"net"
	"net/netip"
)

// Portable I/O path: one datagram per syscall via the net package. The
// Linux fast path (batch_linux.go) moves a batch of datagrams per
// recvmmsg/sendmmsg call instead.

// RxBatcher reads datagrams from one socket into pooled buffers.
type RxBatcher struct {
	sock      *net.UDPConn
	pool      *BufPool
	connected bool
	scratch   [1]Msg
}

// NewRxBatcher builds a batcher over sock drawing buffers from pool.
func NewRxBatcher(sock *net.UDPConn, pool *BufPool, batch int) (*RxBatcher, error) {
	return &RxBatcher{sock: sock, pool: pool}, nil
}

// NewConnectedRxBatcher is NewRxBatcher for a connect()ed socket: received
// messages carry no address (the peer is fixed).
func NewConnectedRxBatcher(sock *net.UDPConn, pool *BufPool, batch int) (*RxBatcher, error) {
	return &RxBatcher{sock: sock, pool: pool, connected: true}, nil
}

// Recv blocks for at least one datagram. Portable path: exactly one. The
// returned slice is reused by the next Recv; call Release before receiving
// again.
func (rb *RxBatcher) Recv() ([]Msg, error) {
	buf := rb.pool.Get()
	var (
		n     int
		raddr netip.AddrPort
		err   error
	)
	if rb.connected {
		n, err = rb.sock.Read(buf)
	} else {
		n, raddr, err = rb.sock.ReadFromUDPAddrPort(buf)
		raddr = netip.AddrPortFrom(raddr.Addr().Unmap(), raddr.Port())
	}
	if err != nil {
		rb.pool.Put(buf)
		return nil, err
	}
	rb.scratch[0] = Msg{B: buf[:n], AddrPort: raddr}
	return rb.scratch[:1], nil
}

// Release returns the batch's buffers to the pool.
func (rb *RxBatcher) Release(msgs []Msg) {
	for _, m := range msgs {
		rb.pool.Put(m.B)
	}
}

// TxBatcher writes queued datagrams to one socket.
type TxBatcher struct {
	sock *net.UDPConn
}

// NewTxBatcher builds a batcher over sock.
func NewTxBatcher(sock *net.UDPConn, batch int) (*TxBatcher, error) {
	return &TxBatcher{sock: sock}, nil
}

// Send transmits the batch, returning how many datagrams went out and the
// first error encountered. Messages without an address go to the socket's
// connected peer (dialed sockets).
func (tb *TxBatcher) Send(batch []Msg) (int, error) {
	sent := 0
	var firstErr error
	for i := range batch {
		m := &batch[i]
		var err error
		if dst := m.dest(); dst.IsValid() {
			_, err = tb.sock.WriteToUDPAddrPort(m.B, dst)
		} else {
			_, err = tb.sock.Write(m.B)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sent++
	}
	return sent, firstErr
}
