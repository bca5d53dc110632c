package uio

import (
	"net"
	"net/netip"
	"testing"
	"time"
)

// Allocation pins for the batched I/O path. They use testing.AllocsPerRun
// and hold under -race: nothing on these paths goes through a sync.Pool,
// whose Puts the race detector drops at random.

func TestBufPoolAllocs(t *testing.T) {
	bp := NewBufPool(2048)
	bp.Put(bp.Get())
	if n := testing.AllocsPerRun(1000, func() { bp.Put(bp.Get()) }); n != 0 {
		t.Fatalf("BufPool Get+Put allocates %.1f, want 0", n)
	}
}

// TestBufPoolBounded: idle buffers beyond the freelist's bound are dropped,
// not retained.
func TestBufPoolBounded(t *testing.T) {
	bp := NewBufPool(64)
	for i := 0; i < 2*poolIdle; i++ {
		bp.Put(make([]byte, 64))
	}
	if len(bp.free) != poolIdle {
		t.Fatalf("%d idle buffers retained, want %d", len(bp.free), poolIdle)
	}
}

// TestBatcherRoundTripAllocs sends a batch from an unconnected socket and
// receives it on another, once with a *net.UDPAddr destination and once with
// an AddrPort one: neither side allocates per batch, and the receiver
// reports the sender's address.
func TestBatcherRoundTripAllocs(t *testing.T) {
	tx, rx := loopbackPair(t)
	tb, err := NewTxBatcher(tx, 8)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewRxBatcher(rx, NewBufPool(512), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := rx.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	dstAddr := rx.LocalAddr().(*net.UDPAddr)
	from := tx.LocalAddr().(*net.UDPAddr).AddrPort()
	from = netip.AddrPortFrom(from.Addr().Unmap(), from.Port())

	batch := make([]Msg, 8)
	for i := range batch {
		batch[i].B = make([]byte, 100)
	}
	var bad error
	round := func() {
		sent, err := tb.Send(batch)
		if err != nil || sent != len(batch) {
			bad = err
			return
		}
		for got := 0; got < len(batch); {
			msgs, err := rb.Recv()
			if err != nil {
				bad = err
				return
			}
			for _, m := range msgs {
				if m.AddrPort != from || m.Addr != nil {
					t.Errorf("received from %v (Addr %v), want %v", m.AddrPort, m.Addr, from)
				}
			}
			got += len(msgs)
			rb.Release(msgs)
		}
	}
	for _, dst := range []struct {
		name string
		set  func(*Msg)
	}{
		{"UDPAddr", func(m *Msg) { m.Addr = dstAddr }},
		{"AddrPort", func(m *Msg) { m.Addr, m.AddrPort = nil, dstAddr.AddrPort() }},
	} {
		for i := range batch {
			dst.set(&batch[i])
		}
		round()
		if n := testing.AllocsPerRun(100, round); n != 0 {
			t.Errorf("%s: Send+Recv+Release allocates %.1f per batch, want 0", dst.name, n)
		}
		if bad != nil {
			t.Fatalf("%s: %v", dst.name, bad)
		}
	}
}
