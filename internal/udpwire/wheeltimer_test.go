package udpwire

import (
	"net"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/core"
)

// TestWheelTimerRearmAllocFree pins the ISSUE-8 acceptance criterion:
// steady-state timer arms through the wheel adapter are allocation-free.
// Once the per-connection freelist is warm, every After draws a recycled
// handle and every Stop returns it — arm/stop and arm/fire cycles must not
// touch the heap.
func TestWheelTimerRearmAllocFree(t *testing.T) {
	c := NewAccepted(DefaultWheel(), core.DefaultConfig(), nil,
		&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9},
		func(b []byte, peer *net.UDPAddr) error { return nil }, nil)
	defer c.Abort()

	e := env{c}
	fn := func() {}

	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < 8; i++ {
		e.After(time.Hour, fn).Stop() // warm the freelist
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(time.Hour, fn).Stop()
	})
	if allocs != 0 {
		t.Fatalf("steady-state timer arm/stop allocates %.2f per cycle, want 0", allocs)
	}
}

// TestWheelTimerFireRecycles checks the fire path recycles the handle back
// to the freelist before running the machine callback, so an in-callback
// re-arm reuses the same handle.
func TestWheelTimerFireRecycles(t *testing.T) {
	c := NewAccepted(DefaultWheel(), core.DefaultConfig(), nil,
		&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9},
		func(b []byte, peer *net.UDPAddr) error { return nil }, nil)
	defer c.Abort()

	e := env{c}
	fired := make(chan core.Timer, 1)
	var first *wtimer

	c.mu.Lock()
	var rearm func()
	rearm = func() {
		// Runs under c.mu from the wheel goroutine: the fired handle must
		// already be back on the freelist, so this After reuses it.
		fired <- e.After(time.Hour, func() {})
	}
	first = e.After(2*time.Millisecond, rearm).(*wtimer)
	c.mu.Unlock()

	select {
	case reused := <-fired:
		if reused.(*wtimer) != first {
			t.Fatal("in-callback re-arm did not reuse the fired handle")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wheel timer did not fire")
	}

	c.mu.Lock()
	reused := reused2(c, first)
	c.mu.Unlock()
	if reused {
		t.Fatal("live handle found on the freelist")
	}
}

func reused2(c *Conn, w *wtimer) bool {
	for _, f := range c.wtFree {
		if f == w {
			return true
		}
	}
	return false
}
