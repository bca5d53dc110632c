package iqrudp_test

// Datagram fast-path allocation and throughput harness.
//
// The pipe harness below is a zero-latency wire between two machines: Emit
// encodes into reused ring slots (packet.AppendEncode) and drain decodes
// into one recycled packet (packet.DecodeInto), modelling a real driver's
// dispatch-after-unlock. With the wire itself allocation-free, what
// testing.AllocsPerRun sees is the transport's own garbage — the quantity
// the fast path is meant to eliminate.
//
// A steady-state message round is four packets: DATA, its ACK, the NUL
// forward-probe the idle sender emits (advanceFwd marks the forward point on
// every cumulative ack), and the probe's ACK.
//
// TestAllocBenchJSON (gated on BENCH_ALLOC_JSON, see `make bench-alloc`)
// records the A/B against the pre-fast-path tree into BENCH_alloc.json.

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/serve"
	"github.com/cercs/iqrudp/internal/udpwire"
)

// Baseline numbers measured with this same harness on the pre-fast-path
// tree (commit 0277878, mean of three runs): Encode allocated the wire
// buffer, Decode the packet plus payload, and a message round cost 20
// allocations across its 4 packets — 5 allocs per packet.
const (
	baselineCommit       = "0277878"
	baselineEncodeAllocs = 1.0
	baselineDecodeAllocs = 2.0
	baselineRoundAllocs  = 20.0
	baselinePktsPerRound = 4.0
	baselineMsgsPerSec   = 91331.0
)

type pipeTimer struct {
	at      time.Duration
	fn      func()
	stopped bool
}

func (t *pipeTimer) Stop() bool { s := !t.stopped; t.stopped = true; return s }

// Timer handles are recycled (per the core.Timer contract the machine now
// honours with cached callbacks), so the harness contributes zero garbage
// per re-arm and AllocsPerRun isolates the machine's own allocations.

type wireEvt struct {
	dst *core.Machine
	b   []byte
}

// pipeWorld is a zero-latency wire between two machines. Emitted packets are
// queued (encoded into reused slot buffers) and handled (decoded into one
// recycled packet) by drain, like a real driver's dispatch-after-unlock, so
// machine interactions never re-enter each other.
type pipeWorld struct {
	now       time.Duration
	timers    []*pipeTimer
	tFree     []*pipeTimer // spent handles awaiting reuse; fed only by advance
	q         []wireEvt
	qHead     int
	slots     [][]byte // reusable encode buffers, parallel to q
	rx        packet.Packet
	delivered int
	packets   int
}

func (w *pipeWorld) drain() {
	for w.qHead < len(w.q) {
		e := w.q[w.qHead]
		w.q[w.qHead] = wireEvt{}
		w.qHead++
		w.packets++
		if err := packet.DecodeInto(&w.rx, e.b, w.rx.Payload); err != nil {
			panic(err)
		}
		e.dst.HandlePacket(&w.rx)
	}
	w.q = w.q[:0]
	w.qHead = 0
}

func (w *pipeWorld) advance(d time.Duration) {
	w.now += d
	for i := 0; i < len(w.timers); i++ {
		t := w.timers[i]
		if !t.stopped && t.at <= w.now {
			t.stopped = true
			t.fn()
			w.drain()
		}
	}
	live := w.timers[:0]
	for _, t := range w.timers {
		if !t.stopped {
			live = append(live, t)
		} else {
			// Safe to recycle: only this filter removes from w.timers, so a
			// freelisted handle is never also pending.
			t.fn = nil
			w.tFree = append(w.tFree, t)
		}
	}
	w.timers = live
}

type pipeEnv struct {
	w    *pipeWorld
	peer *core.Machine
}

func (e *pipeEnv) Now() time.Duration { return e.w.now }

func (e *pipeEnv) Emit(p *packet.Packet) {
	w := e.w
	i := len(w.q)
	var buf []byte
	if i < len(w.slots) {
		buf = w.slots[i][:0]
	}
	b, err := packet.AppendEncode(buf, p)
	if err != nil {
		panic(err)
	}
	if i < len(w.slots) {
		w.slots[i] = b
	} else {
		w.slots = append(w.slots, b)
	}
	w.q = append(w.q, wireEvt{dst: e.peer, b: b})
}

func (e *pipeEnv) Deliver(msg core.Message) { e.w.delivered++ }

func (e *pipeEnv) After(d time.Duration, fn func()) core.Timer {
	w := e.w
	var t *pipeTimer
	if n := len(w.tFree); n > 0 {
		t = w.tFree[n-1]
		w.tFree[n-1] = nil
		w.tFree = w.tFree[:n-1]
	} else {
		t = &pipeTimer{}
	}
	t.at, t.fn, t.stopped = w.now+d, fn, false
	w.timers = append(w.timers, t)
	return t
}

func newPipePair(tb testing.TB) (*core.Machine, *pipeWorld) {
	return newPipePairCfg(tb, core.DefaultConfig)
}

// newPipePairCfg builds the pipe with a per-machine config factory (each
// side gets a fresh config, so observability state is never shared); the
// obs-overhead harness uses it to A/B instrumented machines.
func newPipePairCfg(tb testing.TB, mk func() core.Config) (*core.Machine, *pipeWorld) {
	tb.Helper()
	w := &pipeWorld{timers: make([]*pipeTimer, 0, 64), q: make([]wireEvt, 0, 64)}
	ea := &pipeEnv{w: w}
	eb := &pipeEnv{w: w}
	a := core.NewMachine(mk(), ea)
	b := core.NewMachine(mk(), eb)
	ea.peer = b
	eb.peer = a
	b.StartServer()
	a.StartClient()
	w.drain()
	if !a.Established() || !b.Established() {
		tb.Fatal("handshake did not complete")
	}
	return a, w
}

// sendRound pushes one message through a full round (send, deliver, ack)
// and nudges virtual time forward.
func sendRound(a *core.Machine, w *pipeWorld, payload []byte) {
	base := w.delivered
	if err := a.Send(payload, true); err != nil {
		panic(err)
	}
	w.drain()
	if w.delivered == base {
		panic("message not delivered synchronously")
	}
	w.advance(10 * time.Microsecond)
}

// measureRoundAllocs warms the freelists then measures allocations and
// packets for steady-state message rounds.
func measureRoundAllocs(tb testing.TB) (roundAllocs, pktsPerRound float64) {
	return measureRoundAllocsCfg(tb, core.DefaultConfig)
}

func measureRoundAllocsCfg(tb testing.TB, mk func() core.Config) (roundAllocs, pktsPerRound float64) {
	tb.Helper()
	a, w := newPipePairCfg(tb, mk)
	payload := make([]byte, 1200)
	for i := 0; i < 200; i++ {
		sendRound(a, w, payload)
	}
	w.packets = 0
	const rounds = 2000
	roundAllocs = testing.AllocsPerRun(rounds, func() { sendRound(a, w, payload) })
	pktsPerRound = float64(w.packets) / float64(rounds)
	return roundAllocs, pktsPerRound
}

// TestSteadyStateAllocs pins the end-to-end allocation budget of the data
// fast path: at most 2 allocations per packet (the pre-fast-path tree spent
// 5), with the expected 2-packet round shape: DATA and its ACK. (Until the
// sender stopped re-announcing a forward point equal to the cumulative ack,
// every round also carried a NUL forward probe and the ACK answering it.)
func TestSteadyStateAllocs(t *testing.T) {
	roundAllocs, pktsPerRound := measureRoundAllocs(t)
	t.Logf("round_allocs=%.2f pkts_per_round=%.2f allocs_per_pkt=%.2f",
		roundAllocs, pktsPerRound, roundAllocs/pktsPerRound)
	if pktsPerRound < 1.5 || pktsPerRound > 2.5 {
		t.Fatalf("unexpected round shape: %.2f packets per message round, want ~2", pktsPerRound)
	}
	if perPkt := roundAllocs / pktsPerRound; perPkt > 2 {
		t.Fatalf("steady-state data path allocates %.2f/packet (%.2f/round), budget is 2",
			perPkt, roundAllocs)
	}
}

// BenchmarkSendRecvSteadyState measures one full message round (2 packets on
// the wire) through the allocation-free pipe: send, deliver, ack.
func BenchmarkSendRecvSteadyState(b *testing.B) {
	a, w := newPipePair(b)
	payload := make([]byte, 1200)
	for i := 0; i < 200; i++ {
		sendRound(a, w, payload)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendRound(a, w, payload)
	}
}

// allocThroughput is the iqload-shaped single-core A/B leg: dialed senders
// into the serve engine's sink, GOMAXPROCS(1), counting delivered messages
// over a fixed window after warmup.
func allocThroughput(t *testing.T, conns, msgBytes int, warmup, window time.Duration) float64 {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	cfg := core.DefaultConfig()
	srv, err := serve.Listen("127.0.0.1:0", cfg, serve.Options{
		Shards: 1, Backlog: conns + 4, DrainTimeout: time.Second,
	})
	if err != nil {
		t.Fatalf("serve.Listen: %v", err)
	}
	defer srv.Close()

	var delivered atomic.Uint64
	go func() {
		for {
			c, err := srv.Accept(0)
			if err != nil {
				return
			}
			go func(c *udpwire.Conn) {
				for {
					if _, err := c.Recv(0); err != nil {
						return
					}
					delivered.Add(1)
				}
			}(c)
		}
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := udpwire.Dial(srv.Addr().String(), core.DefaultConfig(), 10*time.Second)
			if err != nil {
				return
			}
			defer c.Abort()
			payload := make([]byte, msgBytes)
			for {
				select {
				case <-stop:
					return
				default:
				}
				binary.BigEndian.PutUint64(payload, uint64(time.Now().UnixNano()))
				if err := c.Send(payload, true); err != nil {
					return
				}
				for c.QueuedPackets() > 512 {
					select {
					case <-stop:
						return
					default:
						time.Sleep(200 * time.Microsecond)
					}
				}
			}
		}()
	}

	time.Sleep(warmup)
	before := delivered.Load()
	time.Sleep(window)
	count := delivered.Load() - before
	close(stop)
	wg.Wait()
	return float64(count) / window.Seconds()
}

// TestAllocBenchJSON runs the full A/B — per-layer allocation counts, the
// steady-state round benchmark, and the single-core loopback throughput leg —
// and records it against the embedded pre-fast-path baseline. Skipped unless
// BENCH_ALLOC_JSON names the output file (`make bench-alloc`).
func TestAllocBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_ALLOC_JSON")
	if out == "" {
		t.Skip("set BENCH_ALLOC_JSON=/path/to/BENCH_alloc.json to run the alloc A/B")
	}

	p := &packet.Packet{
		Type: packet.DATA, ConnID: 1, Seq: 42, Ack: 7, Wnd: 64,
		MsgID: 42, Frag: 0, FragCnt: 1, TS: time.Second,
		Payload: make([]byte, 1200),
	}
	encAllocs := testing.AllocsPerRun(1000, func() {
		if _, err := packet.Encode(p); err != nil {
			panic(err)
		}
	})
	wire, err := packet.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	var dst packet.Packet
	if err := packet.DecodeInto(&dst, wire, nil); err != nil {
		t.Fatal(err)
	}
	decAllocs := testing.AllocsPerRun(1000, func() {
		if err := packet.DecodeInto(&dst, wire, dst.Payload); err != nil {
			panic(err)
		}
	})

	roundAllocs, pktsPerRound := measureRoundAllocs(t)
	allocsPerPkt := roundAllocs / pktsPerRound

	br := testing.Benchmark(BenchmarkSendRecvSteadyState)
	nsPerRound := float64(br.NsPerOp())

	msgsPerSec := allocThroughput(t, 4, 1200, 500*time.Millisecond, 2*time.Second)

	type side struct {
		EncodeAllocs   float64 `json:"encode_allocs"`
		DecodeAllocs   float64 `json:"decode_allocs"`
		RoundAllocs    float64 `json:"round_allocs"`
		PktsPerRound   float64 `json:"pkts_per_round"`
		AllocsPerPkt   float64 `json:"allocs_per_packet"`
		NsPerRound     float64 `json:"ns_per_round,omitempty"`
		MsgsPerSec     float64 `json:"msgs_per_sec"`
		BaselineCommit string  `json:"commit,omitempty"`
	}
	report := struct {
		Generated string  `json:"generated"`
		Bench     string  `json:"bench"`
		Before    side    `json:"before"`
		After     side    `json:"after"`
		Speedup   float64 `json:"msgs_per_sec_speedup"`
	}{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Bench:     "single-core loopback, 4 dialed conns -> serve engine, 1200 B marked messages",
		Before: side{
			EncodeAllocs: baselineEncodeAllocs, DecodeAllocs: baselineDecodeAllocs,
			RoundAllocs: baselineRoundAllocs, PktsPerRound: baselinePktsPerRound,
			AllocsPerPkt: baselineRoundAllocs / baselinePktsPerRound,
			MsgsPerSec:   baselineMsgsPerSec, BaselineCommit: baselineCommit,
		},
		After: side{
			EncodeAllocs: encAllocs, DecodeAllocs: decAllocs,
			RoundAllocs: roundAllocs, PktsPerRound: pktsPerRound,
			AllocsPerPkt: allocsPerPkt, NsPerRound: nsPerRound,
			MsgsPerSec: msgsPerSec,
		},
		Speedup: msgsPerSec / baselineMsgsPerSec,
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("allocs/packet %.2f -> %.2f, msgs/sec %.0f -> %.0f (x%.2f); wrote %s",
		report.Before.AllocsPerPkt, allocsPerPkt, baselineMsgsPerSec, msgsPerSec,
		report.Speedup, out)

	if allocsPerPkt > 2 {
		t.Errorf("allocs per packet %.2f exceeds the <=2 target", allocsPerPkt)
	}
	if report.Speedup < 1.20 {
		t.Errorf("throughput speedup x%.2f below the >=1.20 target", report.Speedup)
	}
}
