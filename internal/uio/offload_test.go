package uio

import (
	"fmt"
	"net"
	"testing"
	"time"
)

// Round-trip tests for the batchers over loopback, exercising the GSO/GRO
// offload path where the kernel supports it and the plain mmsg (or
// portable) path where it does not. The receiver-side assertions are
// identical either way: offload must be invisible above the batcher API.

func loopbackPair(t *testing.T) (*net.UDPConn, *net.UDPConn) {
	t.Helper()
	a, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// recvAll collects datagrams from rb until want arrive or the deadline
// passes, copying payloads out before Release.
func recvAll(t *testing.T, rb *RxBatcher, sock *net.UDPConn, want int, deadline time.Duration) [][]byte {
	t.Helper()
	var got [][]byte
	if err := sock.SetReadDeadline(time.Now().Add(deadline)); err != nil {
		t.Fatal(err)
	}
	for len(got) < want {
		msgs, err := rb.Recv()
		if err != nil {
			t.Fatalf("recv after %d/%d datagrams: %v", len(got), want, err)
		}
		for _, m := range msgs {
			got = append(got, append([]byte(nil), m.B...))
		}
		rb.Release(msgs)
	}
	return got
}

// TestOffloadRoundTrip sends a same-peer run of equal-size datagrams (the
// GSO-coalescible shape) plus a short tail and mixed sizes, and checks the
// receiver sees every original wire segment intact and in order — in GRO
// slots mapped by EnableGRO, without drawing on the pool.
func TestOffloadRoundTrip(t *testing.T) {
	tx, rx := loopbackPair(t)
	tb, err := NewTxBatcher(tx, 64)
	if err != nil {
		t.Fatal(err)
	}
	off := ProbeOffload()
	t.Logf("host offload support: gso=%v gro=%v (tx batcher gso=%v)", off.GSO, off.GRO, tb.GSOEnabled())

	size := 512
	if off.GRO {
		size = 65536 // coalesced super-datagrams need full-size buffers
	}
	pool := NewBufPool(size)
	rb, err := NewRxBatcher(rx, pool, 32)
	if err != nil {
		t.Fatal(err)
	}
	if off.GRO && !rb.EnableGRO() {
		t.Error("ProbeOffload reports GRO but EnableGRO failed")
	}

	dst := rx.LocalAddr().(*net.UDPAddr)
	var batch []Msg
	var wantPayloads []string
	add := func(n int, tag byte) {
		p := make([]byte, n)
		for i := range p {
			p[i] = tag
		}
		p[0] = byte(len(batch)) // per-datagram marker to catch reordering
		batch = append(batch, Msg{B: p, Addr: dst})
		wantPayloads = append(wantPayloads, fmt.Sprintf("%d:%d", len(batch)-1, n))
	}
	for i := 0; i < 10; i++ { // equal-size run: one GSO super-datagram
		add(300, 'a')
	}
	add(120, 'b') // short tail closes the run
	add(300, 'c') // fresh run
	add(500, 'd') // size increase closes it
	add(500, 'd')

	sent := 0
	for sent < len(batch) {
		n, err := tb.Send(batch[sent:])
		if err != nil {
			t.Fatalf("send after %d/%d: %v", sent, len(batch), err)
		}
		if n == 0 {
			t.Fatalf("send consumed 0 msgs at %d/%d", sent, len(batch))
		}
		sent += n
	}

	got := recvAll(t, rb, rx, len(batch), 5*time.Second)
	if len(got) != len(batch) {
		t.Fatalf("received %d datagrams, want %d", len(got), len(batch))
	}
	seen := map[byte]bool{}
	for _, g := range got {
		idx := g[0]
		if int(idx) >= len(batch) || seen[idx] {
			t.Fatalf("bad or duplicate datagram marker %d", idx)
		}
		seen[idx] = true
		want := batch[idx].B
		if len(g) != len(want) {
			t.Fatalf("datagram %d: %d bytes, want %d (segment boundaries lost)", idx, len(g), len(want))
		}
		for i := 1; i < len(g); i++ {
			if g[i] != want[i] {
				t.Fatalf("datagram %d corrupt at byte %d", idx, i)
			}
		}
	}
	_ = wantPayloads
	if hits, misses := pool.Stats(); off.GRO && hits+misses != 0 {
		t.Errorf("GRO slots drew %d buffers from the pool, want 0 (mapped outside the heap)", hits+misses)
	}
}

// TestOffloadConnected covers the dialed-socket shape: nil-Addr TX msgs to
// the connected peer and a connected receiver (nil Addr on RX).
func TestOffloadConnected(t *testing.T) {
	a, b := loopbackPair(t)
	tx, err := net.DialUDP("udp", nil, b.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tx.Close() })
	_ = a

	tb, err := NewTxBatcher(tx, 32)
	if err != nil {
		t.Fatal(err)
	}
	off := ProbeOffload()
	size := 512
	if off.GRO {
		size = 65536
	}
	pool := NewBufPool(size)
	rb, err := NewRxBatcher(b, pool, 16)
	if err != nil {
		t.Fatal(err)
	}
	if off.GRO {
		rb.EnableGRO()
	}

	var batch []Msg
	for i := 0; i < 8; i++ {
		p := make([]byte, 256)
		p[0] = byte(i)
		batch = append(batch, Msg{B: p}) // nil Addr: connected peer
	}
	sent := 0
	for sent < len(batch) {
		n, err := tb.Send(batch[sent:])
		if err != nil {
			t.Fatal(err)
		}
		sent += n
	}
	got := recvAll(t, rb, b, len(batch), 5*time.Second)
	if len(got) != len(batch) {
		t.Fatalf("received %d datagrams, want %d", len(got), len(batch))
	}
	for _, g := range got {
		if len(g) != 256 {
			t.Fatalf("datagram resized to %d bytes", len(g))
		}
	}
}

// TestGSOFallbackDisabled pins the ablation switch: with SetGSO(false) the
// same shapes go out one header per datagram and still arrive intact.
func TestGSOFallbackDisabled(t *testing.T) {
	tx, rx := loopbackPair(t)
	tb, err := NewTxBatcher(tx, 32)
	if err != nil {
		t.Fatal(err)
	}
	tb.SetGSO(false)
	if tb.GSOEnabled() {
		t.Fatal("SetGSO(false) did not stick")
	}
	pool := NewBufPool(512)
	rb, err := NewRxBatcher(rx, pool, 16)
	if err != nil {
		t.Fatal(err)
	}
	dst := rx.LocalAddr().(*net.UDPAddr)
	var batch []Msg
	for i := 0; i < 12; i++ {
		p := make([]byte, 200)
		p[0] = byte(i)
		batch = append(batch, Msg{B: p, Addr: dst})
	}
	sent := 0
	for sent < len(batch) {
		n, err := tb.Send(batch[sent:])
		if err != nil {
			t.Fatal(err)
		}
		sent += n
	}
	got := recvAll(t, rb, rx, len(batch), 5*time.Second)
	if len(got) != len(batch) {
		t.Fatalf("received %d datagrams, want %d", len(got), len(batch))
	}
}
