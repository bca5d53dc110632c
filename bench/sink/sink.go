// Package sink is the benchmark's receiving role: a serve engine in its own
// process that accepts the generator's connections, checks every delivered
// message against the seed, and reports what it measured over the window
// the generator marks out on its standard input.
//
// Protocol (one JSON object per line on stdout, one word per line on stdin):
//
//	        → {"ready":"127.0.0.1:port"}
//	begin   → {"ack":"begin"}     counters snapshotted, window open
//	end     → {"ack":"end"}       window closed, counters snapshotted
//	quit    → {"report":{...}}    connections drained, server closed
package sink

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/cercs/iqrudp/bench/measure"
	"github.com/cercs/iqrudp/bench/workload"
	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/hist"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/serve"
	"github.com/cercs/iqrudp/internal/udpwire"
)

// Options configures the sink role.
type Options struct {
	Spec      workload.Spec
	Seed      uint64
	Seconds   int  // longest window the generator will mark out
	NoOffload bool // serve.Options.NoOffload: the sensitivity demonstration's knob
	NoFlight  bool // serve.Options.FlightEvents = -1: the obs.tax_ratio twin
}

// ConnReport is one long-lived connection's receive check.
type ConnReport struct {
	Conn  uint8          `json:"conn"` // generator connection index
	Next  uint32         `json:"next"` // lowest id not accounted for
	Tally workload.Tally `json:"tally"`
}

// Report is everything the sink measured.
type Report struct {
	// Window: between "begin" and "end".
	WindowSec  float64        `json:"window_sec"`
	Buckets    []uint64       `json:"buckets"` // checked messages per second
	Window     workload.Tally `json:"window"`  // only Marked/Unmarked/Bytes are windowed
	LatencyMs  measure.Timing `json:"latency_ms"`
	Proc       measure.Proc   `json:"proc"` // CPU and mallocs over the window
	PeakRSSMB  float64        `json:"peak_rss_mb"`
	CPUSeconds []float64      `json:"cpu_seconds"` // CPU nanoseconds spent in each second of the window
	RSSMB      []float64      `json:"rss_mb"`      // resident set at the end of each second
	MemPeak    int64          `json:"mem_peak"`    // highest serve.Stats.MemBytes sampled
	AcceptWait measure.Timing `json:"accept_wait_us"`

	// serve.Stats deltas over the window, summed over shards.
	RxPackets, RxBatches, RxErrors, RxBytes uint64
	TxPackets, TxBatches, TxBytes, TxDrops  uint64
	TimerArms, TimerFires                   uint64
	Accepted, Refused                       uint64
	RetrySent, CookieRejects                uint64
	PoolHits, PoolMisses                    uint64 // packet.PoolStats deltas
	OffloadGSO, OffloadGRO                  bool

	// Histogram quantiles over the window, in the histogram's exported unit.
	DispatchP99  float64 `json:"dispatch_p99_s"`
	WheelLateP99 float64 `json:"wheel_late_p99_s"`
	FecRepairP50 float64 `json:"fec_repair_p50_s"`

	// Receive-side repair counters over the window, summed over the
	// connections alive at both of its edges.
	FecRepairsRecv  uint64 `json:"fec_repairs_recv"`
	FecRecovered    uint64 `json:"fec_recovered"`
	FecRecoveredMkd uint64 `json:"fec_recovered_marked"`

	// Whole run, known once every connection has closed.
	Total     workload.Tally `json:"total"`
	Conns     []ConnReport   `json:"conns,omitempty"` // long-lived workloads
	Cycles    uint64         `json:"cycles"`          // churn: connections that delivered exactly MsgsPerCycle
	BadCycles uint64         `json:"bad_cycles"`      // churn: connections that did not
}

// Line is one line of the sink's output.
type Line struct {
	Ready  string  `json:"ready,omitempty"`
	Ack    string  `json:"ack,omitempty"`
	Report *Report `json:"report,omitempty"`
}

type state struct {
	opt     Options
	pattern *workload.Pattern
	srv     *serve.Server

	mu        sync.Mutex // guards everything below; taken once per message
	measuring bool
	buckets   *measure.Buckets
	window    workload.Tally
	stride    int
	lat       []float64
	acceptUs  []float64
	live      map[*udpwire.Conn]struct{}
	rep       Report

	conns sync.WaitGroup // per-connection receive loops
}

// Run serves until "quit" (or end of input) and writes the protocol to out.
func Run(opt Options, in io.Reader, out io.Writer) error {
	cfg := core.DefaultConfig()
	cfg.LossTolerance = opt.Spec.Tolerance
	cfg.FECGroup = opt.Spec.FECGroup
	// The advertised window is sized to what the engine and the dialed
	// sockets can absorb without dropping: both connections' in-flight
	// packets (2 × 64) arrive as one receive batch at worst, and the ACKs
	// that batch provokes must fit the shard's 128-slot transmit queue, and a
	// window of ACKs the dialed socket's default 208 KiB receive buffer. At
	// the transport's default of 512 both overflow silently. See README.md,
	// "What building this turned up".
	cfg.RecvWindow = 64
	so := serve.Options{
		AlwaysValidate: opt.Spec.AlwaysValidate,
		NoOffload:      opt.NoOffload,
		DrainTimeout:   2 * time.Second,
	}
	if opt.NoFlight {
		so.FlightEvents = -1
	}
	srv, err := serve.Listen("127.0.0.1:0", cfg, so)
	if err != nil {
		return fmt.Errorf("sink: listen: %w", err)
	}
	s := &state{
		opt:     opt,
		pattern: workload.NewPattern(opt.Seed, opt.Spec.MsgBytes),
		srv:     srv,
		live:    make(map[*udpwire.Conn]struct{}),
		lat:     make([]float64, 0, 1<<16),
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(Line{Ready: srv.Addr().String()}); err != nil {
		srv.Close()
		return err
	}

	acceptDone := make(chan struct{})
	go s.acceptLoop(acceptDone)

	var before snapshot
	var ticker *measure.Ticker
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		switch sc.Text() {
		case "begin":
			before = s.snap()
			s.mu.Lock()
			s.buckets = measure.NewBuckets(time.Now(), opt.Seconds)
			s.measuring = true
			s.mu.Unlock()
			ticker = measure.StartTicker(s.noteMemPeak)
			err = enc.Encode(Line{Ack: "begin"})
		case "end":
			if ticker == nil {
				continue // no window was opened
			}
			s.mu.Lock()
			s.measuring = false
			s.mu.Unlock()
			ticker.Stop()
			s.rep.CPUSeconds, s.rep.RSSMB = ticker.CPU, ticker.RSSMB
			after := s.snap()
			s.noteMemPeak()
			s.closeWindow(before, after)
			err = enc.Encode(Line{Ack: "end"})
		case "quit":
			s.finish(acceptDone)
			return enc.Encode(Line{Report: &s.rep})
		}
		if err != nil {
			break
		}
	}
	// The generator went away without "quit": nothing to report to.
	srv.Close()
	<-acceptDone
	if err == nil {
		err = sc.Err()
	}
	return err
}

// acceptLoop starts a receive loop per connection until the server closes.
func (s *state) acceptLoop(done chan struct{}) {
	defer close(done)
	for {
		t0 := time.Now()
		c, err := s.srv.Accept(0)
		if err != nil {
			return
		}
		wait := time.Since(t0)
		s.mu.Lock()
		if s.measuring {
			s.acceptUs = append(s.acceptUs, float64(wait)/1e3)
		}
		s.live[c] = struct{}{}
		s.mu.Unlock()
		s.conns.Add(1)
		go s.receive(c)
	}
}

// receive checks one connection's stream until it closes.
func (s *state) receive(c *udpwire.Conn) {
	defer s.conns.Done()
	ck := workload.NewChecker(s.pattern, s.opt.Spec.Unmarked)
	var conn uint8
	for {
		msg, err := c.Recv(0)
		if err != nil {
			break
		}
		now := time.Now()
		s.mu.Lock()
		st, ok := ck.Check(msg.Data, msg.Marked, msg.Partial)
		if ok {
			conn = st.Conn
			if s.measuring {
				s.buckets.Add(now, 1)
				if msg.Marked {
					s.window.Marked++
				} else {
					s.window.Unmarked++
				}
				s.window.Bytes += uint64(len(msg.Data))
				if s.stride++; s.stride >= s.opt.Spec.LatencyStride {
					s.stride = 0
					s.lat = append(s.lat, float64(now.UnixNano()-st.At)/1e6)
				}
			}
		}
		s.mu.Unlock()
	}
	c.Close()

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.live, c)
	s.rep.Total.Add(ck.Tally)
	if s.opt.Spec.Loop == workload.Churn {
		if ck.Tally.Violations() == 0 && ck.Next() == uint32(s.opt.Spec.MsgsPerCycle) {
			s.rep.Cycles++
		} else {
			s.rep.BadCycles++
		}
		return
	}
	s.rep.Conns = append(s.rep.Conns, ConnReport{Conn: conn, Next: ck.Next(), Tally: ck.Tally})
}

// snapshot is the cumulative state read at each window edge.
type snapshot struct {
	proc             measure.Proc
	stats            serve.Stats
	poolHit, poolMis uint64
	hists            []hist.Snapshot
	fec              core.Metrics // only the Fec* fields, summed over live connections
	at               time.Time
}

func (s *state) snap() snapshot {
	h, m := packet.PoolStats()
	sn := snapshot{
		at:      time.Now(),
		stats:   s.srv.Stats(),
		hists:   s.srv.HistSnapshots(),
		poolHit: h, poolMis: m,
	}
	s.mu.Lock()
	for c := range s.live {
		mt := c.Metrics()
		sn.fec.FecRepairsRecv += mt.FecRepairsRecv
		sn.fec.FecRecovered += mt.FecRecovered
		sn.fec.FecRecoveredMarked += mt.FecRecoveredMarked
	}
	s.mu.Unlock()
	sn.proc = measure.ReadProc()
	return sn
}

// noteMemPeak samples the governor's ledger: the peak over the window's
// ticks is what per-connection state costs at its worst, not at an edge.
func (s *state) noteMemPeak() {
	if b := s.srv.Stats().MemBytes; b > s.rep.MemPeak {
		s.rep.MemPeak = b
	}
}

// closeWindow turns the two edge snapshots into the report's window fields.
func (s *state) closeWindow(a, b snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &s.rep
	r.WindowSec = b.at.Sub(a.at).Seconds()
	r.Buckets = s.buckets.N
	r.Window = s.window
	r.LatencyMs = measure.Summarise(s.lat)
	r.AcceptWait = measure.Summarise(s.acceptUs)
	r.Proc = b.proc.Sub(a.proc)
	r.PeakRSSMB = measure.PeakRSSMB()
	for i, sh := range b.stats.Shards {
		var p serve.ShardStats
		if i < len(a.stats.Shards) {
			p = a.stats.Shards[i]
		}
		r.RxPackets += sh.RxPackets - p.RxPackets
		r.RxBatches += sh.RxBatches - p.RxBatches
		r.RxErrors += sh.RxErrors - p.RxErrors
		r.RxBytes += sh.RxBytes - p.RxBytes
		r.TxPackets += sh.TxPackets - p.TxPackets
		r.TxBatches += sh.TxBatches - p.TxBatches
		r.TxBytes += sh.TxBytes - p.TxBytes
		r.TxDrops += sh.TxDrops - p.TxDrops
		r.TimerArms += sh.TimerArms - p.TimerArms
		r.TimerFires += sh.TimerFires - p.TimerFires
	}
	r.Accepted = b.stats.Accepted - a.stats.Accepted
	r.Refused = b.stats.Refused - a.stats.Refused
	r.RetrySent = b.stats.RetrySent - a.stats.RetrySent
	r.CookieRejects = b.stats.CookieRejects - a.stats.CookieRejects
	r.PoolHits = b.poolHit - a.poolHit
	r.PoolMisses = b.poolMis - a.poolMis
	r.OffloadGSO, r.OffloadGRO = b.stats.Offload.GSO, b.stats.Offload.GRO
	r.DispatchP99 = measure.HistWindowQuantile(a.hists, b.hists, hist.MetricDispatch, 0.99)
	r.WheelLateP99 = measure.HistWindowQuantile(a.hists, b.hists, hist.MetricWheelLateness, 0.99)
	r.FecRepairP50 = measure.HistWindowQuantile(a.hists, b.hists, hist.MetricFecRepair, 0.50)
	r.FecRepairsRecv = b.fec.FecRepairsRecv - a.fec.FecRepairsRecv
	r.FecRecovered = b.fec.FecRecovered - a.fec.FecRecovered
	r.FecRecoveredMkd = b.fec.FecRecoveredMarked - a.fec.FecRecoveredMarked
}

// finish waits for the generator's closes to reach every receive loop,
// then closes the server (which drains anything still open).
func (s *state) finish(acceptDone chan struct{}) {
	drained := make(chan struct{})
	go func() { s.conns.Wait(); close(drained) }()
	grace := time.NewTimer(5 * time.Second)
	defer grace.Stop()
	select {
	case <-drained:
	case <-grace.C:
	}
	s.srv.Close()
	<-acceptDone
	<-drained
}
