// Package loops times single layers through their public functions, for
// the layers a traced round trip does not cross or crosses too rarely to
// time: the timing wheel's arm/stop/fire/cascade, uio's plain and
// segmentation-offload batches, the FEC encoder and decoder, the guard's
// cookies, ledger and prefix limiter, the histogram, and the ack-vector
// codec. Inputs come from the seed and the workload's message sizes.
package loops

import (
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"time"

	"github.com/cercs/iqrudp/bench/workload"
	"github.com/cercs/iqrudp/internal/fec"
	"github.com/cercs/iqrudp/internal/guard"
	"github.com/cercs/iqrudp/internal/hist"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/uio"
	"github.com/cercs/iqrudp/internal/wheel"
)

// Result is one loop's cost per operation.
type Result struct {
	Name   string
	Ns     float64
	Allocs float64
}

// Names lists the loops Run times: each result's name, which is its metric
// name without the "loop." prefix.
var Names = []string{
	"wheel.arm_stop_ns", "wheel.fire_ns", "wheel.cascade_ns",
	"uio.mmsg_ns_per_pkt", "uio.gso_ns_per_pkt",
	"fec.add_ns_per_pkt", "fec.reconstruct_ns",
	"guard.mint_ns", "guard.verify_ns", "guard.ledger_add_ns", "guard.prefix_allow_ns",
	"hist.record_ns", "packet.ackvec_encode_ns", "packet.encode_allocs",
}

// timeLoop calls fn(n) with growing n until one call lasts at least budget,
// and reports that call: fn runs its operation n times.
func timeLoop(name string, budget time.Duration, fn func(n int)) Result {
	fn(1) // first-use allocations (scratch buffers, pools) are set-up, not cost
	var ms runtime.MemStats
	for n := 64; ; n *= 4 {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		fn(n)
		el := time.Since(t0)
		runtime.ReadMemStats(&ms)
		if el >= budget || n >= 1<<26 {
			return Result{
				Name:   name,
				Ns:     float64(el) / float64(n),
				Allocs: float64(ms.Mallocs-m0) / float64(n),
			}
		}
	}
}

// payloadSize is the DATA payload the workload puts in a packet.
func payloadSize(sp workload.Spec) int {
	if sp.MsgBytes > 1400 {
		return 1400
	}
	return sp.MsgBytes
}

// Run times every loop, spending about budget on each, and returns the
// results keyed by loop name (the part after "loop.").
func Run(sp workload.Spec, seed uint64, budget time.Duration) (map[string]Result, error) {
	rng := rand.New(rand.NewPCG(seed, 0x100b5))
	payload := make([]byte, payloadSize(sp))
	for i := range payload {
		payload[i] = byte(rng.Uint32())
	}
	out := map[string]Result{}
	add := func(r Result) { out[r.Name] = r }

	add(wheelArmStop(budget))
	fire, cascade, err := wheelFire()
	if err != nil {
		return nil, err
	}
	add(fire)
	add(cascade)

	for _, gso := range []bool{false, true} {
		r, err := uioBatch(gso, budget)
		if err != nil {
			return nil, err
		}
		add(r)
	}

	add(fecAdd(payload, sp, budget))
	add(fecReconstruct(payload, sp, rng, budget))

	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 40000 + int(rng.Uint32N(1000))}
	connID := rng.Uint32() | 1
	src := guard.NewCookieSource(time.Minute)
	now := time.Now()
	var cookie []byte
	add(timeLoop("guard.mint_ns", budget, func(n int) {
		for i := 0; i < n; i++ {
			cookie = src.Mint(addr, connID, now)
		}
	}))
	okAll := true
	add(timeLoop("guard.verify_ns", budget, func(n int) {
		for i := 0; i < n; i++ {
			okAll = src.Verify(cookie, addr, connID, now) && okAll
		}
	}))
	if !okAll {
		return nil, fmt.Errorf("loops: a minted cookie failed to verify")
	}
	var ledger guard.Ledger
	add(timeLoop("guard.ledger_add_ns", budget, func(n int) {
		for i := 0; i < n; i++ {
			ledger.Add(guard.ClassSend, len(payload))
			ledger.Sub(guard.ClassSend, len(payload))
		}
	}))
	// A rate no loop reaches, so Allow always takes the admit path the
	// engine takes for a well-behaved prefix.
	limiter := guard.NewPrefixLimiter(1e12, 4096)
	add(timeLoop("guard.prefix_allow_ns", budget, func(n int) {
		for i := 0; i < n; i++ {
			limiter.Allow(addr.IP, now)
		}
	}))

	h := hist.NewLatency(hist.MetricDispatch)
	vals := make([]int64, 1024)
	for i := range vals {
		vals[i] = int64(rng.Uint64N(uint64(50 * time.Millisecond)))
	}
	add(timeLoop("hist.record_ns", budget, func(n int) {
		for i := 0; i < n; i++ {
			h.Record(vals[i&1023])
		}
	}))

	add(ackvecEncode(rng, budget))
	add(dataEncode(payload, budget))
	for _, name := range Names {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("loops: %s was not timed", name)
		}
	}
	return out, nil
}

// wheelArmStop: arm a handle a second out, cancel it — the re-arm every
// acknowledged packet costs the retransmission timer.
func wheelArmStop(budget time.Duration) Result {
	w := wheel.New(0)
	defer w.Close()
	t := w.NewTimer(func(uint64) {})
	return timeLoop("wheel.arm_stop_ns", budget, func(n int) {
		for i := 0; i < n; i++ {
			t.Arm(time.Second) //iqlint:ignore handlecheck -- a bare wheel.Timer is re-armable after Stop; the freelist rule is about udpwire's adapter
			t.Stop()
		}
	})
}

// wheelFire times dispatch and cascade from the callbacks' own clock.
// n timers due on one tick fire back to back, so the spacing of the first
// and last callback is the per-fire cost. Due exactly on tick 512 — the
// first level-0 wrap — the same timers start in level 1 and are re-placed by
// the cascade pass that runs on that very tick, just before they fire; how
// much later than the tick the first callback then runs, compared with
// timers that never left level 0, is that pass, shared by n timers. The tick
// is 1 ms so that the first Arm lands inside tick 0: it wakes the wheel's
// goroutine, which then holds its cursor at 0 until tick 512, and every
// later Arm for tick 512 is a full level-0 span away and goes to level 1.
func wheelFire() (fire, cascade Result, err error) {
	const n = 100000
	const tick = time.Millisecond
	// run arms n timers for wheel tick `when` and returns how long after
	// that tick the first callback ran, and how long after the first the last.
	run := func(when int64) (firstLate, span time.Duration, err error) {
		created := time.Now()
		w := wheel.New(tick)
		defer w.Close()
		var mu sync.Mutex
		var count int
		var tFirst, tLast time.Time
		done := make(chan struct{})
		cb := func(uint64) {
			now := time.Now()
			mu.Lock()
			if count == 0 {
				tFirst = now
			}
			count++
			if count == n {
				tLast = now
				close(done)
			}
			mu.Unlock()
		}
		// A timer is due on the tick after its deadline's, so aim at the
		// middle of the tick before: the wheel's epoch is within
		// microseconds of `created`, well inside half a tick.
		deadline := created.Add(time.Duration(when-1)*tick + tick/2)
		for i := 0; i < n; i++ {
			w.NewTimer(cb).Arm(time.Until(deadline))
		}
		wait := time.NewTimer(time.Until(deadline) + 5*time.Second)
		defer wait.Stop()
		select {
		case <-done:
		case <-wait.C:
			mu.Lock()
			defer mu.Unlock()
			return 0, 0, fmt.Errorf("loops: wheel fired %d of %d timers", count, n)
		}
		return tFirst.Sub(created.Add(time.Duration(when) * tick)), tLast.Sub(tFirst), nil
	}
	late0, span0, err := run(30) // stays in level 0 (under 512 ticks)
	if err != nil {
		return fire, cascade, err
	}
	late1, _, err := run(512) // level 1, cascaded on the tick it fires
	if err != nil {
		return fire, cascade, err
	}
	fire = Result{Name: "wheel.fire_ns", Ns: float64(span0) / float64(n-1)}
	c := float64(late1-late0) / float64(n)
	if c < 0 {
		c = 0 // the wheel goroutine's wake-up jitter exceeded the pass
	}
	cascade = Result{Name: "wheel.cascade_ns", Ns: c}
	return fire, cascade, nil
}

// uioBatch sends a 32 × 1400 B same-destination run over a loopback socket
// pair and receives it, through plain sendmmsg/recvmmsg or through GSO/GRO.
func uioBatch(offload bool, budget time.Duration) (Result, error) {
	name := "uio.mmsg_ns_per_pkt"
	if offload {
		name = "uio.gso_ns_per_pkt"
	}
	const batch, size = 32, 1400
	rxSock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return Result{}, err
	}
	defer rxSock.Close()
	txSock, err := net.DialUDP("udp", nil, rxSock.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return Result{}, err
	}
	defer txSock.Close()
	if err := rxSock.SetReadDeadline(time.Now().Add(budget + 10*time.Second)); err != nil {
		return Result{}, err
	}
	tb, err := uio.NewTxBatcher(txSock, batch)
	if err != nil {
		return Result{}, err
	}
	bufSize := 4096
	if offload {
		bufSize = uio.GROBufSize
	}
	rb, err := uio.NewConnectedRxBatcher(rxSock, uio.NewBufPool(bufSize), batch)
	if err != nil {
		return Result{}, err
	}
	if offload {
		rb.EnableGRO()
	} else {
		tb.SetGSO(false)
	}
	msgs := make([]uio.Msg, batch)
	for i := range msgs {
		msgs[i].B = make([]byte, size)
	}
	var ioErr error
	r := timeLoop(name, budget, func(n int) {
		for i := 0; i < n && ioErr == nil; i++ {
			sent, err := tb.Send(msgs)
			if err != nil || sent != batch {
				ioErr = fmt.Errorf("loops: %s: sent %d of %d: %v", name, sent, batch, err)
				return
			}
			for got := 0; got < batch; {
				in, err := rb.Recv()
				if err != nil {
					ioErr = fmt.Errorf("loops: %s: recv: %w", name, err)
					return
				}
				got += len(in)
				rb.Release(in)
			}
		}
	})
	r.Ns /= batch
	r.Allocs /= batch
	return r, ioErr
}

// fecGroup is the repair group size the loops use: the workload's, or the
// lossy workload's when the workload itself runs without FEC.
func fecGroup(sp workload.Spec) int {
	if sp.FECGroup > 0 {
		return sp.FECGroup
	}
	return 8
}

// fecAdd folds first transmissions into repair groups, flushing each full one.
func fecAdd(payload []byte, sp workload.Spec, budget time.Duration) Result {
	enc := fec.NewEncoder(fec.XOR{}, fecGroup(sp))
	var seq uint32
	return timeLoop("fec.add_ns_per_pkt", budget, func(n int) {
		for i := 0; i < n; i++ {
			if enc.Add(seq, packet.FlagMarked|packet.FlagMsgEnd, seq, 0, 1, nil, payload) {
				enc.Flush()
			}
			seq++
		}
	})
}

// fecReconstruct loses one seeded member of each group and recovers it:
// K−1 OnData calls, one OnRepair, one reconstruction per operation.
func fecReconstruct(payload []byte, sp workload.Spec, rng *rand.Rand, budget time.Duration) Result {
	k := fecGroup(sp)
	enc := fec.NewEncoder(fec.XOR{}, k)
	dec := fec.NewDecoder(fec.XOR{}, 0)
	var seq uint32
	var recs []fec.Recovered
	var recovered int
	flags := packet.FlagMarked | packet.FlagMsgEnd
	r := timeLoop("fec.reconstruct_ns", budget, func(n int) {
		for i := 0; i < n; i++ {
			lost := rng.IntN(k)
			base := seq
			now := time.Duration(seq) * time.Millisecond
			for j := 0; j < k; j++ {
				full := enc.Add(seq, flags, seq, 0, 1, nil, payload)
				if j != lost {
					recs = dec.OnData(seq, flags, seq, 0, 1, nil, payload, now, recs[:0])
				}
				seq++
				if full {
					_, span, parity, _ := enc.Flush()
					recs = dec.OnRepair(base, span, parity, base, now, recs[:0])
					recovered += len(recs)
				}
			}
		}
	})
	if recovered == 0 {
		r.Ns = 0 // nothing was reconstructed: report no cost rather than a wrong one
	}
	return r
}

// ackvecEncode encodes an EACK carrying 16 separate out-of-order extents.
func ackvecEncode(rng *rand.Rand, budget time.Duration) Result {
	p := &packet.Packet{Type: packet.EACK, ConnID: 1, Ack: 1000, Wnd: 512}
	seq := uint32(1001)
	for i := 0; i < 16; i++ {
		seq += 2 + rng.Uint32N(6) // a gap before every extent
		p.Eacks = append(p.Eacks, seq)
	}
	var buf []byte
	return timeLoop("packet.ackvec_encode_ns", budget, func(n int) {
		for i := 0; i < n; i++ {
			buf, _ = packet.AppendEncode(buf[:0], p)
		}
	})
}

// dataEncode encodes one DATA packet of the workload's size into a reused
// buffer; its allocations per packet are the metric.
func dataEncode(payload []byte, budget time.Duration) Result {
	p := &packet.Packet{
		Type: packet.DATA, Flags: packet.FlagMarked | packet.FlagMsgEnd, ConnID: 1,
		Seq: 7, Ack: 3, Wnd: 512, MsgID: 7, FragCnt: 1, Payload: payload,
	}
	var buf []byte
	return timeLoop("packet.encode_allocs", budget, func(n int) {
		for i := 0; i < n; i++ {
			buf, _ = packet.AppendEncode(buf[:0], p)
		}
	})
}
