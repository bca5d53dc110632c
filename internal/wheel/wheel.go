// Package wheel is a hierarchical timing wheel: a coarse-slotted timer
// scheduler that arms, cancels and re-arms timers in O(1) without allocating,
// driven by one goroutine per wheel. It exists because the transport's
// per-connection timers (retransmission, keepalive, measurement, FEC flush,
// pacing) re-arm on nearly every packet: at the ROADMAP's connection scale
// that is millions of mostly-cancelled timers per second, and a heap-backed
// time.AfterFunc costs an allocation plus heap churn per (re)arm. A wheel
// turns each of those into a linked-list splice.
//
// Layout: three levels with power-of-two slot counts — 512 slots of one
// tick, 64 slots of 512 ticks, 64 slots of 32768 ticks — covering about
// 2^21 ticks (~17 minutes at the 500µs default tick). Timers land in the
// coarsest level whose span contains their deadline and cascade toward
// level 0 as the cursor wraps, Linux-kernel style; deadlines beyond the
// horizon are parked in the top level and re-sorted at each cascade, so
// arbitrarily long timers remain correct, just coarse. Expiry runs on the
// wheel goroutine with no wheel lock held.
//
// Precision: a timer fires on the first tick boundary at or after its
// deadline, so lateness is bounded by ~2 ticks plus scheduler noise (and
// callback time: a slow callback delays everything behind it — callbacks
// must not block). Attach a histogram with SetLatenessHist to measure the
// achieved bound (hist.MetricWheelLateness).
//
// Cancellation and reuse: a Timer is a reusable handle. Arm and Stop bump
// the handle's generation under the wheel lock; the callback receives the
// generation of the arm that scheduled it. A callback popped concurrently
// with Stop can still be dispatched after Stop returns — callers that need
// hard post-Stop suppression compare the callback's generation against
// Timer.Gen under their own serialisation (the udpwire driver does this
// under the connection lock, which makes Stop absolute there).
package wheel

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/cercs/iqrudp/internal/hist"
)

const (
	l0Bits  = 9
	l0Slots = 1 << l0Bits // 512 ticks of finest granularity
	l1Bits  = 6
	l1Slots = 1 << l1Bits
	l2Bits  = 6
	l2Slots = 1 << l2Bits
	l1Span  = 1 << (l0Bits + l1Bits)          // ticks covered by levels 0-1
	l2Span  = 1 << (l0Bits + l1Bits + l2Bits) // ticks covered by levels 0-2

	// DefaultTick is the default slot granularity: fine enough for paced
	// sends, coarse enough that a full level-0 rotation spans 256ms.
	DefaultTick = 500 * time.Microsecond
)

// Handler receives a timer's expiries. Fire runs on the wheel goroutine
// with the generation of the Arm call that scheduled it (compare against
// Timer.Gen to suppress stale dispatches); it must not block and must not
// call back into the handle's Arm/Stop without external serialisation
// against the owner.
type Handler interface {
	Fire(gen uint64)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(gen uint64)

// Fire calls f(gen).
func (f HandlerFunc) Fire(gen uint64) { f(gen) }

// Timer is one reusable timer handle. A handle belongs to exactly one wheel
// and one owner: Arm and Stop must be externally serialised per handle (the
// drivers call both under their connection lock). The handler is fixed at
// NewTimer or Init; what varies per arm is only the deadline and the
// generation.
type Timer struct {
	w *Wheel
	h Handler

	gen atomic.Uint64 // bumped on every Arm and Stop (under the wheel lock)

	// Linkage, guarded by the wheel lock.
	next, prev *Timer
	slot       int
	linked     bool
	when       int64         // absolute tick the timer is due
	deadline   time.Duration // wheel-epoch deadline, for lateness accounting
}

// Stats counts wheel traffic since creation.
type Stats struct {
	Arms  uint64 // Arm calls (including re-arms)
	Fires uint64 // callbacks dispatched (including generation-stale ones)
	Stops uint64 // Stop calls that unlinked a pending timer
}

// Wheel is one hierarchical timing wheel; see the package comment.
type Wheel struct {
	tick  time.Duration
	epoch time.Time

	mu    sync.Mutex
	slots []*Timer // l0Slots + l1Slots + l2Slots chained lists
	cur   int64    // last processed tick
	armed int      // linked timers
	wake  int64    // tick the runner plans to wake at; -1 = parked

	kick      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	arms  atomic.Uint64
	fires atomic.Uint64
	stops atomic.Uint64
	lateH atomic.Pointer[hist.Hist]
}

// New starts a wheel with the given slot granularity (0 selects
// DefaultTick; the floor is 100µs — finer deadlines belong on runtime
// timers). Close releases the goroutine.
func New(tick time.Duration) *Wheel {
	if tick <= 0 {
		tick = DefaultTick
	}
	if tick < 100*time.Microsecond {
		tick = 100 * time.Microsecond
	}
	w := &Wheel{
		tick:  tick,
		epoch: time.Now(),
		slots: make([]*Timer, l0Slots+l1Slots+l2Slots),
		wake:  -1,
		kick:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	go w.run()
	return w
}

// Tick returns the wheel's slot granularity.
func (w *Wheel) Tick() time.Duration { return w.tick }

// SetLatenessHist attaches a histogram that records, at each fire, how far
// past its deadline the callback was dispatched (hist.MetricWheelLateness).
func (w *Wheel) SetLatenessHist(h *hist.Hist) { w.lateH.Store(h) }

// Stats snapshots the wheel's traffic counters.
func (w *Wheel) Stats() Stats {
	return Stats{Arms: w.arms.Load(), Fires: w.fires.Load(), Stops: w.stops.Load()}
}

// Armed returns the number of currently linked timers.
func (w *Wheel) Armed() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.armed
}

// Close stops the wheel goroutine. Timers still armed never fire; Arm after
// Close links timers that likewise never fire. Idempotent.
func (w *Wheel) Close() {
	w.closeOnce.Do(func() { close(w.done) })
}

// NewTimer builds a reusable handle dispatching fn (see Handler). The
// handle starts unarmed.
func (w *Wheel) NewTimer(fn func(gen uint64)) *Timer {
	t := new(Timer)
	w.Init(t, HandlerFunc(fn))
	return t
}

// Init makes t an unarmed handle on w dispatching to h, for a Timer held by
// value inside its owner: a handler that is the owner itself (a pointer)
// costs no allocation at all. t must be the zero Timer or one no longer
// armed.
func (w *Wheel) Init(t *Timer, h Handler) {
	t.w, t.h, t.slot = w, h, -1
}

// Gen returns the handle's current generation.
func (t *Timer) Gen() uint64 { return t.gen.Load() }

// Arm (re)schedules the timer d from now, cancelling any pending arm, and
// returns the new generation. Zero-alloc; O(1).
func (t *Timer) Arm(d time.Duration) uint64 {
	w := t.w
	w.arms.Add(1)
	now := time.Since(w.epoch)
	w.mu.Lock()
	gen := t.gen.Add(1)
	w.unlinkLocked(t)
	t.deadline = now + d
	t.when = int64(t.deadline/w.tick) + 1
	if t.when <= w.cur {
		t.when = w.cur + 1
	}
	w.linkLocked(w.slotFor(t.when), t)
	needKick := w.wake == -1 || t.when < w.wake
	w.mu.Unlock()
	if needKick {
		select {
		case w.kick <- struct{}{}:
		default:
		}
	}
	return gen
}

// Stop cancels a pending arm, reporting whether one was unlinked (false
// when the timer already fired, was never armed, or its callback is being
// dispatched concurrently — see the package comment on generations).
func (t *Timer) Stop() bool {
	w := t.w
	w.mu.Lock()
	t.gen.Add(1)
	was := t.linked
	w.unlinkLocked(t)
	w.mu.Unlock()
	if was {
		w.stops.Add(1)
	}
	return was
}

// slotFor maps an absolute due tick to its slot index, relative to the
// current cursor. Deadlines beyond the representable span park in the top
// level and re-sort at each cascade.
func (w *Wheel) slotFor(when int64) int {
	delta := when - w.cur
	switch {
	case delta < l0Slots:
		return int(when & (l0Slots - 1))
	case delta < l1Span:
		return l0Slots + int((when>>l0Bits)&(l1Slots-1))
	default:
		if delta >= l2Span {
			when = w.cur + l2Span - 1
		}
		return l0Slots + l1Slots + int((when>>(l0Bits+l1Bits))&(l2Slots-1))
	}
}

func (w *Wheel) linkLocked(slot int, t *Timer) {
	t.slot = slot
	t.prev = nil
	t.next = w.slots[slot]
	if t.next != nil {
		t.next.prev = t
	}
	w.slots[slot] = t
	t.linked = true
	w.armed++
}

func (w *Wheel) unlinkLocked(t *Timer) {
	if !t.linked {
		return
	}
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		w.slots[t.slot] = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.next, t.prev = nil, nil
	t.slot = -1
	t.linked = false
	w.armed--
}

// cascadeLocked re-places every timer in a higher-level slot, moving each
// toward level 0 (or back into the top level for still-distant deadlines).
func (w *Wheel) cascadeLocked(slot int) {
	head := w.slots[slot]
	w.slots[slot] = nil
	for head != nil {
		t := head
		head = head.next
		t.next, t.prev, t.linked = nil, nil, false
		w.armed--
		w.linkLocked(w.slotFor(t.when), t)
	}
}

// tickNow converts wall progress since the epoch into a tick count.
func (w *Wheel) tickNow() int64 { return int64(time.Since(w.epoch) / w.tick) }

// fireSlot dispatches every due timer in a level-0 slot, popping one at a
// time so concurrent Stop/Arm on not-yet-dispatched handles stay safe. The
// wheel lock is never held across a callback.
func (w *Wheel) fireSlot(slot int) {
	for {
		w.mu.Lock()
		t := w.slots[slot]
		for t != nil && t.when > w.cur {
			t = t.next
		}
		if t == nil {
			w.mu.Unlock()
			return
		}
		w.unlinkLocked(t)
		gen := t.gen.Load()
		target := t.h
		late := time.Since(w.epoch) - t.deadline
		w.mu.Unlock()
		if h := w.lateH.Load(); h != nil {
			if late < 0 {
				late = 0
			}
			h.RecordDur(late)
		}
		w.fires.Add(1)
		target.Fire(gen)
	}
}

// advance processes every tick up to target: cascade higher levels on
// wrap boundaries, then fire the level-0 slot that came due.
func (w *Wheel) advance(target int64) {
	w.mu.Lock()
	for w.cur < target {
		w.cur++
		cur := w.cur
		if cur&(l0Slots-1) == 0 {
			w.cascadeLocked(l0Slots + int((cur>>l0Bits)&(l1Slots-1)))
			if cur&(l1Span-1) == 0 {
				w.cascadeLocked(l0Slots + l1Slots + int((cur>>(l0Bits+l1Bits))&(l2Slots-1)))
			}
		}
		slot := int(cur & (l0Slots - 1))
		if w.slots[slot] != nil {
			w.mu.Unlock()
			w.fireSlot(slot)
			w.mu.Lock()
		}
	}
	w.mu.Unlock()
}

// nextWake picks the runner's next due tick: the earliest populated level-0
// slot, capped at the next cascade boundary (a cascade can surface earlier
// deadlines from the higher levels). Returns false when nothing is armed.
func (w *Wheel) nextWake() (int64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.armed == 0 {
		w.wake = -1
		return 0, false
	}
	next := ((w.cur >> l0Bits) + 1) << l0Bits // next cascade boundary
	for d := int64(1); d < l0Slots; d++ {
		tick := w.cur + d
		if tick >= next {
			break
		}
		if w.slots[int(tick&(l0Slots-1))] != nil {
			next = tick
			break
		}
	}
	w.wake = next
	return next, true
}

// run is the wheel goroutine: advance to now, fire what came due, sleep
// until the next populated slot (or park until an Arm kicks).
func (w *Wheel) run() {
	tm := time.NewTimer(time.Hour)
	defer tm.Stop()
	for {
		w.advance(w.tickNow())
		next, ok := w.nextWake()
		if !ok {
			select {
			case <-w.kick:
				continue
			case <-w.done:
				return
			}
		}
		sleep := w.epoch.Add(time.Duration(next) * w.tick).Sub(time.Now())
		tm.Reset(sleep)
		select {
		case <-tm.C:
		case <-w.kick:
			if !tm.Stop() {
				select {
				case <-tm.C:
				default:
				}
			}
		case <-w.done:
			return
		}
	}
}
