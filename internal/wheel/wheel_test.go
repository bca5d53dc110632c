package wheel

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/hist"
)

// fireBound is the slack allowed between a deadline and the observed fire
// on a loaded CI box. Generous on purpose: these tests pin ordering and
// eventual delivery, not tail latency (the lateness hist measures that).
const fireBound = 250 * time.Millisecond

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	if !cond() {
		t.Fatalf("condition not reached within %v", d)
	}
}

// TestFireBasic: a one-shot timer fires once, not before its deadline.
func TestFireBasic(t *testing.T) {
	w := New(time.Millisecond)
	defer w.Close()
	var fired atomic.Int64
	start := time.Now()
	var early atomic.Bool
	tm := w.NewTimer(func(uint64) {
		if time.Since(start) < 5*time.Millisecond {
			early.Store(true)
		}
		fired.Add(1)
	})
	tm.Arm(10 * time.Millisecond)
	waitFor(t, fireBound, func() bool { return fired.Load() == 1 })
	if early.Load() {
		t.Fatal("timer fired before its deadline")
	}
	time.Sleep(20 * time.Millisecond)
	if got := fired.Load(); got != 1 {
		t.Fatalf("one-shot timer fired %d times", got)
	}
	if w.Armed() != 0 {
		t.Fatalf("armed = %d after fire", w.Armed())
	}
}

// TestSlotWrapAndCascade: deadlines past the level-0 span (and past the
// level-1 span) must survive cursor wraps and cascades intact. With a
// 100µs tick, level 0 spans 51.2ms and levels 0-1 span ~3.28s.
func TestSlotWrapAndCascade(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cascade test")
	}
	w := New(100 * time.Microsecond)
	defer w.Close()
	delays := []time.Duration{
		5 * time.Millisecond,    // level 0
		40 * time.Millisecond,   // level 0, near the wrap
		60 * time.Millisecond,   // level 1, one cascade
		200 * time.Millisecond,  // level 1, several wraps
		3500 * time.Millisecond, // level 2, cascades through level 1
	}
	var mu sync.Mutex
	late := map[int]time.Duration{}
	var fired atomic.Int64
	start := time.Now()
	for i, d := range delays {
		i, d := i, d
		w.NewTimer(func(uint64) {
			mu.Lock()
			late[i] = time.Since(start) - d
			mu.Unlock()
			fired.Add(1)
		}).Arm(d)
	}
	waitFor(t, delays[len(delays)-1]+fireBound, func() bool {
		return fired.Load() == int64(len(delays))
	})
	mu.Lock()
	defer mu.Unlock()
	for i, d := range delays {
		l := late[i]
		if l < 0 {
			t.Errorf("timer %d (%v) fired %v early", i, d, -l)
		}
		if l > fireBound {
			t.Errorf("timer %d (%v) fired %v late", i, d, l)
		}
	}
}

// TestBeyondHorizon: a deadline past the whole representable span parks in
// the top level and still counts as armed (it would fire after repeated
// cascades; actually waiting for it is out of unit-test budget).
func TestBeyondHorizon(t *testing.T) {
	w := New(100 * time.Microsecond) // horizon ≈ 210s
	defer w.Close()
	tm := w.NewTimer(func(uint64) {})
	tm.Arm(time.Hour)
	if w.Armed() != 1 {
		t.Fatalf("armed = %d", w.Armed())
	}
	if !tm.Stop() {
		t.Fatal("Stop() = false for a pending beyond-horizon timer")
	}
	if w.Armed() != 0 {
		t.Fatalf("armed = %d after Stop", w.Armed())
	}
}

// TestStopPreventsFire: a Stop well before the deadline suppresses the
// callback entirely.
func TestStopPreventsFire(t *testing.T) {
	w := New(time.Millisecond)
	defer w.Close()
	var fired atomic.Int64
	tm := w.NewTimer(func(uint64) { fired.Add(1) })
	tm.Arm(50 * time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop() = false for a pending timer")
	}
	time.Sleep(80 * time.Millisecond)
	if got := fired.Load(); got != 0 {
		t.Fatalf("stopped timer fired %d times", got)
	}
}

// TestRearmSupersedes: re-arming replaces the pending deadline; only the
// latest generation's callback may observe a matching Gen.
func TestRearmSupersedes(t *testing.T) {
	w := New(time.Millisecond)
	defer w.Close()
	var fired atomic.Int64
	var staleGen atomic.Int64
	var tm *Timer
	tm = w.NewTimer(func(gen uint64) {
		if gen != tm.Gen() {
			staleGen.Add(1)
			return
		}
		fired.Add(1)
	})
	for i := 0; i < 10; i++ {
		tm.Arm(30 * time.Millisecond)
		time.Sleep(2 * time.Millisecond)
	}
	waitFor(t, fireBound, func() bool { return fired.Load() == 1 })
	time.Sleep(50 * time.Millisecond)
	if got := fired.Load(); got != 1 {
		t.Fatalf("re-armed timer delivered %d current-gen fires", got)
	}
	if got := staleGen.Load(); got != 0 {
		t.Fatalf("wheel dispatched %d stale generations despite re-arm unlink", got)
	}
}

// TestStopVsFireRace: hammer Stop/Arm against concurrent fires. The
// invariant mirrors the udpwire driver: under the owner lock, a callback
// whose generation does not match Gen() must be treated as cancelled, and
// after a locked Stop no matching-generation callback may run.
func TestStopVsFireRace(t *testing.T) {
	w := New(500 * time.Microsecond)
	defer w.Close()
	var mu sync.Mutex // the "owner" lock, like udpwire's c.mu
	stopped := false
	var misfires atomic.Int64
	var tm *Timer
	tm = w.NewTimer(func(gen uint64) {
		mu.Lock()
		if gen == tm.Gen() && stopped {
			misfires.Add(1)
		}
		mu.Unlock()
	})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 400; i++ {
		mu.Lock()
		stopped = false
		tm.Arm(time.Duration(rng.Intn(3)) * time.Millisecond)
		mu.Unlock()
		time.Sleep(time.Duration(rng.Intn(2500)) * time.Microsecond)
		mu.Lock()
		tm.Stop()
		stopped = true
		mu.Unlock()
	}
	time.Sleep(20 * time.Millisecond)
	if got := misfires.Load(); got != 0 {
		t.Fatalf("%d callbacks ran with a matching generation after a locked Stop", got)
	}
}

// TestCallbackRunsUnlocked: fireSlot releases Wheel.mu before dispatching,
// so a callback may call back into its wheel — re-arm its own handle, arm
// and stop another. Holding the lock across fn would self-deadlock the wheel
// goroutine on the first such call; the bounded wait turns that into a
// failure rather than a hung package.
func TestCallbackRunsUnlocked(t *testing.T) {
	w := New(time.Millisecond)
	defer w.Close()
	other := w.NewTimer(func(uint64) {})
	done := make(chan bool, 2)
	fires := 0 // wheel goroutine only
	var tm *Timer
	tm = w.NewTimer(func(uint64) {
		fires++
		if fires > 1 {
			done <- true
			return
		}
		tm.Arm(time.Millisecond)
		other.Arm(time.Hour)
		done <- other.Stop()
	})
	tm.Arm(time.Millisecond)
	timeout := time.NewTimer(fireBound)
	defer timeout.Stop()
	for i := 1; i <= 2; i++ {
		select {
		case ok := <-done:
			if !ok {
				t.Fatalf("fire %d: Stop inside a callback missed the timer it just armed", i)
			}
		case <-timeout.C:
			t.Fatalf("fire %d did not complete within %v: is Wheel.mu held across the callback?", i, fireBound)
		}
		timeout.Reset(fireBound)
	}
}

// TestAfterFuncEquivalence: quick-check the wheel against time.AfterFunc
// semantics with random delays — every armed timer fires exactly once, never
// before its deadline, and relative firing order respects deadlines up to
// one tick of quantisation.
func TestAfterFuncEquivalence(t *testing.T) {
	w := New(time.Millisecond)
	defer w.Close()
	const n = 64
	rng := rand.New(rand.NewSource(7))
	type rec struct {
		deadline time.Duration
		firedAt  atomic.Int64 // ns since start; 0 = not fired
		count    atomic.Int64
	}
	recs := make([]*rec, n)
	start := time.Now()
	var fired atomic.Int64
	for i := 0; i < n; i++ {
		r := &rec{deadline: time.Duration(rng.Intn(150)) * time.Millisecond}
		recs[i] = r
		w.NewTimer(func(uint64) {
			r.firedAt.Store(int64(time.Since(start)))
			r.count.Add(1)
			fired.Add(1)
		}).Arm(r.deadline)
	}
	waitFor(t, 150*time.Millisecond+fireBound, func() bool { return fired.Load() == n })
	for i, r := range recs {
		if c := r.count.Load(); c != 1 {
			t.Fatalf("timer %d fired %d times", i, c)
		}
		at := time.Duration(r.firedAt.Load())
		if at < r.deadline {
			t.Errorf("timer %d fired %v early (deadline %v)", i, r.deadline-at, r.deadline)
		}
	}
	// Order check: quantise both sides to the tick; an earlier deadline may
	// not fire more than a tick after a later one observed-before it.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			di, dj := recs[i].deadline, recs[j].deadline
			ai := time.Duration(recs[i].firedAt.Load())
			aj := time.Duration(recs[j].firedAt.Load())
			if di+w.Tick() < dj && ai > aj+2*w.Tick() {
				t.Fatalf("deadline order violated: timer %d (%v) fired at %v, timer %d (%v) at %v",
					i, di, ai, j, dj, aj)
			}
		}
	}
}

// TestLatenessHist: fires feed the attached histogram and the recorded
// lateness stays within the documented bound (generously padded for CI).
func TestLatenessHist(t *testing.T) {
	w := New(time.Millisecond)
	defer w.Close()
	h := hist.NewLatency(hist.MetricWheelLateness)
	w.SetLatenessHist(h)
	var fired atomic.Int64
	for i := 0; i < 32; i++ {
		w.NewTimer(func(uint64) { fired.Add(1) }).Arm(time.Duration(1+i) * time.Millisecond)
	}
	waitFor(t, fireBound, func() bool { return fired.Load() == 32 })
	s := h.Snapshot()
	if s.Count != 32 {
		t.Fatalf("lateness hist count = %d, want 32", s.Count)
	}
	if p99 := time.Duration(s.Quantile(0.99)); p99 > fireBound {
		t.Fatalf("lateness p99 = %v, beyond the %v test bound", p99, fireBound)
	}
}

// TestArmStopNoAlloc pins the zero-alloc contract for steady-state re-arm
// traffic: Arm and Stop on an existing handle never allocate.
func TestArmStopNoAlloc(t *testing.T) {
	w := New(time.Millisecond)
	defer w.Close()
	tm := w.NewTimer(func(uint64) {})
	if avg := testing.AllocsPerRun(200, func() {
		tm.Arm(time.Hour) // far slot: no fire traffic during the measurement
		tm.Stop()
	}); avg != 0 {
		t.Fatalf("Arm+Stop allocates %.1f per run, want 0", avg)
	}
}

// TestStats: traffic counters see arms, fires and stops.
func TestStats(t *testing.T) {
	w := New(time.Millisecond)
	defer w.Close()
	var fired atomic.Int64
	a := w.NewTimer(func(uint64) { fired.Add(1) })
	b := w.NewTimer(func(uint64) { fired.Add(1) })
	a.Arm(5 * time.Millisecond)
	b.Arm(time.Hour)
	b.Stop()
	waitFor(t, fireBound, func() bool { return fired.Load() == 1 })
	s := w.Stats()
	if s.Arms != 2 || s.Fires != 1 || s.Stops != 1 {
		t.Fatalf("stats = %+v, want arms=2 fires=1 stops=1", s)
	}
}

// TestCloseStopsGoroutine: Close releases the wheel goroutine (the chaos
// soak's goroutine-leak invariant depends on this).
func TestCloseStopsGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	ws := make([]*Wheel, 8)
	for i := range ws {
		ws[i] = New(time.Millisecond)
		ws[i].NewTimer(func(uint64) {}).Arm(time.Hour)
	}
	for _, w := range ws {
		w.Close()
		w.Close() // idempotent
	}
	waitFor(t, fireBound, func() bool { return runtime.NumGoroutine() <= before })
}

// TestConcurrentHandles: many owner goroutines each driving their own
// handle, under -race. Every handle is its own owner, so no extra locking
// is required by the contract.
func TestConcurrentHandles(t *testing.T) {
	w := New(500 * time.Microsecond)
	defer w.Close()
	var wg sync.WaitGroup
	var fires atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			tm := w.NewTimer(func(uint64) { fires.Add(1) })
			for i := 0; i < 100; i++ {
				tm.Arm(time.Duration(rng.Intn(2000)) * time.Microsecond)
				if rng.Intn(2) == 0 {
					time.Sleep(time.Duration(rng.Intn(1500)) * time.Microsecond)
				}
				tm.Stop()
			}
		}(int64(g))
	}
	wg.Wait()
	if w.Armed() != 0 {
		t.Fatalf("armed = %d after all handles stopped", w.Armed())
	}
}
