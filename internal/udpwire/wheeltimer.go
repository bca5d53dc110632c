package udpwire

import (
	"sync"
	"time"

	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/wheel"
)

// The timing-wheel adapter behind core.Env.After: every connection timer
// (retransmission, handshake retry, measurement, keepalive, pacing, FEC
// flush) is a reusable wheel handle drawn from a per-connection freelist,
// so steady-state timer traffic — which re-arms on nearly every packet —
// allocates nothing and costs a linked-list splice instead of a runtime
// timer heap operation.
//
// Correctness leans on two layers:
//   - the wheel's generation counter: Arm and Stop bump it under the wheel
//     lock, and a dispatched callback carries the generation of the arm
//     that scheduled it. Fire compares that against the handle's current
//     generation under c.mu, so a Stop or re-arm that beat the dispatch to
//     the lock suppresses it — Stop under c.mu is absolute.
//   - the core.Timer recycling contract (internal/core/env.go): the machine
//     drops a handle reference at Stop and at callback entry, so a handle
//     recycled by the freelist is never reachable through a stale machine
//     field.
//
// Deadline timers that guard blocking calls (Dial, Recv, CloseWithin,
// Accept) stay on runtime timers: they are per-call, not per-packet, and
// their goroutines block on channel receive, which a wheel callback cannot
// serve.

// defaultWheel drives the timers of dialed connections; serve shards run
// their own wheels (NewAccepted). Lazily started, never stopped: one
// goroutine process-wide.
var (
	defaultWheelOnce sync.Once
	defaultWheel     *wheel.Wheel
)

// DefaultWheel returns the process-wide timing wheel, starting it on first
// use. Exposed so tests and soak harnesses can warm it before taking
// goroutine baselines.
func DefaultWheel() *wheel.Wheel {
	defaultWheelOnce.Do(func() { defaultWheel = wheel.New(0) })
	return defaultWheel
}

// wtimer adapts one wheel handle to core.Timer for one connection. The
// handles live inline in the Conn (Conn.wts) and dispatch to themselves, so
// a connection's timers cost no allocation; fired and stopped handles return
// to the connection's freelist (c.wtFree) and are reused by later After
// calls. All state is guarded by c.mu.
type wtimer struct {
	wt   wheel.Timer // dispatches to this wtimer's Fire
	c    *Conn
	fn   func() // machine callback for the current arm
	free bool   // on the freelist (spent), not currently owned by a machine field
}

// connTimers is how many handles a connection holds inline: one per machine
// timer (retransmission, connection retry, measurement, keepalive, pacing,
// FEC flush), the most the machine owns at once. After allocates a handle
// only if they are all owned.
const connTimers = 6

// initTimers puts the connection's inline handles on its freelist.
func (c *Conn) initTimers() {
	c.wtFree = c.wtFreeBuf[:0]
	for i := range c.wts {
		t := &c.wts[i]
		t.c, t.free = c, true
		c.wh.Init(&t.wt, t)
		c.wtFree = append(c.wtFree, t)
	}
}

// Stop implements core.Timer. Called with c.mu held (all machine
// interactions are). A spent handle is a no-op: the machine only ever
// Stops a handle it still owns, but armConnRetry-style re-arms can Stop
// the handle whose callback is currently running.
func (t *wtimer) Stop() bool {
	if t.free {
		return false
	}
	was := t.wt.Stop() // bumps the generation: a concurrent dispatch is suppressed
	t.fn = nil
	t.free = true
	t.c.wtFree = append(t.c.wtFree, t)
	return was
}

// Fire implements wheel.Handler; it runs on the wheel goroutine. It
// re-locks the connection, validates the generation, recycles the handle
// before running the machine callback (so an in-callback re-arm can reuse
// it), and finishes the machine interaction like every other driver entry
// point by flushing staged TX.
func (t *wtimer) Fire(gen uint64) {
	c := t.c
	c.mu.Lock()
	if t.free || gen != t.wt.Gen() {
		c.mu.Unlock()
		return // stopped or re-armed after this dispatch was popped
	}
	select {
	case <-c.closed:
		c.mu.Unlock()
		return
	default:
	}
	fn := t.fn
	t.fn = nil
	t.free = true
	c.wtFree = append(c.wtFree, t)
	fn()
	c.flushTxLocked()
	c.mu.Unlock()
}

// After implements core.Env. Called with c.mu held. It pops a spent handle
// from the freelist and re-arms it: no allocation.
func (e env) After(d time.Duration, fn func()) core.Timer {
	c := e.c
	var t *wtimer
	if n := len(c.wtFree); n > 0 {
		t = c.wtFree[n-1]
		c.wtFree[n-1] = nil
		c.wtFree = c.wtFree[:n-1]
		t.free = false
	} else {
		t = &wtimer{c: c}
		c.wh.Init(&t.wt, t)
	}
	t.fn = fn
	t.wt.Arm(d)
	return t
}
