// Package uio provides batched UDP datagram I/O shared by the socket
// drivers: pooled receive buffers and recvmmsg/sendmmsg batchers on Linux
// (amd64/arm64) with a portable one-datagram-per-syscall fallback. The
// serve engine's shards and udpwire's dialed-connection TX ring both build
// on it.
package uio

import (
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
)

// GROBufSize is the receive-buffer size required when UDP_GRO is enabled:
// the kernel may coalesce a same-flow burst into one super-datagram of up
// to 64 KiB per recvmmsg slot.
const GROBufSize = 1 << 16

// Msg is one datagram: a buffer and the peer address.
//
// Receiving on an unconnected socket fills AddrPort, a value that costs no
// allocation, and leaves Addr nil; messages received on a connected socket
// carry neither. On transmit the destination is Addr when it is non-nil,
// else AddrPort when it is valid, else the socket's connected peer (dialed
// sockets only).
type Msg struct {
	B        []byte
	Addr     *net.UDPAddr
	AddrPort netip.AddrPort
}

// dest returns m's transmit destination with IPv4-mapped addresses
// unmapped, or the zero AddrPort for the connected peer.
func (m *Msg) dest() netip.AddrPort {
	if m.Addr == nil {
		return m.AddrPort
	}
	ap := m.Addr.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// poolIdle bounds the idle buffers a BufPool retains. Batchers keep their
// own buffers from one batch to the next, so the freelist only sees buffers
// returned beyond a batcher's slots; more than a default batch of them idle
// is memory nobody is about to use.
const poolIdle = 32

// BufPool recycles fixed-size receive buffers through a bounded freelist
// and counts freelist traffic. A buffer's lifetime ends when its datagram
// has been parsed (packet.DecodeInto copies the payload out).
type BufPool struct {
	mu     sync.Mutex
	free   [][]byte // at most poolIdle full-size buffers
	size   int
	gets   atomic.Uint64
	misses atomic.Uint64
}

// NewBufPool builds a pool of size-byte buffers.
func NewBufPool(size int) *BufPool {
	return &BufPool{size: size, free: make([][]byte, 0, poolIdle)}
}

// Get returns a full-size buffer.
func (bp *BufPool) Get() []byte {
	bp.gets.Add(1)
	bp.mu.Lock()
	if n := len(bp.free); n > 0 {
		b := bp.free[n-1]
		bp.free[n-1] = nil
		bp.free = bp.free[:n-1]
		bp.mu.Unlock()
		return b
	}
	bp.mu.Unlock()
	bp.misses.Add(1)
	return make([]byte, bp.size)
}

// Put returns a buffer to the pool. Short slices of a pooled buffer are
// restored to full size; foreign undersized buffers, and buffers beyond the
// freelist's bound, are left to the garbage collector.
func (bp *BufPool) Put(b []byte) {
	if cap(b) < bp.size {
		return
	}
	bp.mu.Lock()
	if len(bp.free) < cap(bp.free) {
		bp.free = append(bp.free, b[:bp.size])
	}
	bp.mu.Unlock()
}

// Stats reports pool traffic since creation: gets served from a recycled
// buffer (hits) and gets that allocated (misses).
func (bp *BufPool) Stats() (hits, misses uint64) {
	g, m := bp.gets.Load(), bp.misses.Load()
	if g < m {
		g = m // the two loads race; never report negative hits
	}
	return g - m, m
}
