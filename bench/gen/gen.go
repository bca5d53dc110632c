// Package gen is the benchmark's sending role: it dials the sink (through a
// seeded chaoswire proxy per connection when the workload has path faults),
// offers the workload's traffic from one goroutine per connection, and
// reports what the dialed side measured over a window.
package gen

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cercs/iqrudp/bench/measure"
	"github.com/cercs/iqrudp/bench/workload"
	"github.com/cercs/iqrudp/internal/chaoswire"
	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/hist"
	"github.com/cercs/iqrudp/internal/udpwire"
)

const (
	dialTimeout = 5 * time.Second
	// probeFor is how long an open-loop connection first runs closed-loop,
	// to learn the path's capacity before it commits to a fixed rate.
	probeFor = 500 * time.Millisecond
	// probeDepth is the probe's send-queue bound: enough to keep the window
	// full, little enough that what is left when the probe ends drains in a
	// few round trips instead of riding into the measured window.
	probeDepth = 8
	// Threshold registration for workloads with path faults: the upper
	// callback fires on a measurement period at or above 3% loss, the lower
	// on a loss-free one. Both answer "the application will not adapt".
	upperThreshold, lowerThreshold = 0.03, 0
)

// Window is what the generator measured between Begin and End.
type Window struct {
	Proc       measure.Proc // this process: generator, its connections and proxies
	CPUSeconds []float64    // CPU nanoseconds spent in each second of the window

	Core              core.Metrics // counter fields are deltas summed over connections
	TxFlushes         uint64
	DroppedDeliveries uint64
	SRTTms            float64 // mean over connections at End (churn: over closed connections)
	CwndMean          float64 // mean of one-second samples (churn: of each connection's last value)
	AckDelayP50us     float64
	BacklogP99        float64
	Callbacks         uint64 // threshold callbacks invoked

	SentMarked, SentUnmarked uint64 // messages handed to Send

	LatenessMs measure.Timing // open loop: send instant − due instant
	DialMs     measure.Timing // churn: Dial call → return
	CloseMs    measure.Timing // churn: Close call → return
	Cycles     []uint64       // churn: completed cycles per second

	Chaos chaoswire.Stats // summed over proxies
}

// Final is the whole run's account, for the correctness check.
type Final struct {
	Sent      []uint32 // long-lived workloads: messages sent per connection index
	Attempted uint64   // messages handed to Send, plus dials, plus cycles started
	SendErrs  uint64
	DialFails uint64
	// ProbeRate is the closed-loop rate (msgs/s, all connections) an
	// open-loop workload measured on its path during set-up.
	ProbeRate float64
}

// Gen is a running generator.
type Gen struct {
	spec    workload.Spec
	pattern *workload.Pattern
	cfg     core.Config // every connection's; its Hists are shared by all of them

	proxies []*chaoswire.Proxy
	conns   []*udpwire.Conn // long-lived workloads

	stop    chan struct{}
	workers sync.WaitGroup

	callbacks  atomic.Uint64
	sentMarked atomic.Uint64
	sentUnmrk  atomic.Uint64
	attempted  atomic.Uint64
	sendErrs   atomic.Uint64
	dialFails  atomic.Uint64

	mu        sync.Mutex // guards the rest
	measuring bool
	lateMs    []float64
	dialMs    []float64
	closeMs   []float64
	cycles    *measure.Buckets
	closedSum core.Metrics // churn: counters of every closed connection
	closedN   uint64
	closedRTT time.Duration
	closedWnd float64
	cwndSum   float64
	cwndN     int
	sent      []uint32
	probeRate float64

	before edge
	ticker *measure.Ticker
}

// edge is the cumulative state read at a window edge.
type edge struct {
	proc             measure.Proc
	core             core.Metrics
	txFlushes, drops uint64
	closedN          uint64
	closedRTT        time.Duration
	closedWnd        float64
	hists            []hist.Snapshot
	callbacks        uint64
	marked, unmarked uint64
	chaos            chaoswire.Stats
}

// Start dials (or starts the churn workers) and begins offering load at
// once: what flows before Begin is the warm-up.
func Start(spec workload.Spec, seed uint64, addr string, seconds int) (*Gen, error) {
	g := &Gen{
		spec:    spec,
		pattern: workload.NewPattern(seed, spec.MsgBytes),
		stop:    make(chan struct{}),
		sent:    make([]uint32, spec.Conns),
		cycles:  measure.NewBuckets(time.Time{}, seconds),
	}
	g.cfg = core.DefaultConfig()
	g.cfg.FECGroup = spec.FECGroup
	g.cfg.Hists = core.NewHists()

	targets := make([]string, spec.Conns)
	for i := range targets {
		targets[i] = addr
		if spec.Loss > 0 || spec.Latency > 0 {
			f := chaoswire.Faults{Drop: spec.Loss}
			p, err := chaoswire.New(addr, chaoswire.Config{
				Seed: seed*uint64(spec.Conns) + uint64(i), Up: f, Down: f, Latency: spec.Latency,
			})
			if err != nil {
				g.closeProxies()
				return nil, fmt.Errorf("gen: proxy %d: %w", i, err)
			}
			g.proxies = append(g.proxies, p)
			targets[i] = p.Addr()
		}
	}

	if spec.Loop == workload.Churn {
		for i := range targets {
			g.workers.Add(1)
			go g.churn(uint8(i), targets[i])
		}
		return g, nil
	}

	for i, t := range targets {
		g.attempted.Add(1)
		c, err := udpwire.Dial(t, g.cfg, dialTimeout)
		if err != nil {
			g.abortConns()
			g.closeProxies()
			return nil, fmt.Errorf("gen: dial %d: %w", i, err)
		}
		if len(g.proxies) > 0 {
			c.RegisterThresholds(upperThreshold, lowerThreshold, g.onThreshold, g.onThreshold)
		}
		g.conns = append(g.conns, c)
	}
	for i, c := range g.conns {
		g.workers.Add(1)
		if spec.Loop == workload.Open {
			go g.openLoop(uint8(i), c)
		} else {
			go g.closedLoop(uint8(i), c)
		}
	}
	return g, nil
}

// onThreshold is both threshold callbacks. It runs under the connection
// lock, so it only counts.
func (g *Gen) onThreshold(core.CallbackInfo) *core.AdaptationReport {
	g.callbacks.Add(1)
	return core.NoAdaptation()
}

func (g *Gen) stopped() bool {
	select {
	case <-g.stop:
		return true
	default:
		return false
	}
}

// send hands message id of connection conn to c, timed from at. The buffer
// is fresh per message: the transport keeps the slice until it is acked.
func (g *Gen) send(c *udpwire.Conn, conn uint8, id uint32, at time.Time) bool {
	buf := make([]byte, g.spec.MsgBytes)
	marked := g.pattern.Fill(buf, at.UnixNano(), conn, id, g.spec.Unmarked)
	g.attempted.Add(1)
	if err := c.Send(buf, marked); err != nil {
		g.sendErrs.Add(1)
		return false
	}
	if marked {
		g.sentMarked.Add(1)
	} else {
		g.sentUnmrk.Add(1)
	}
	return true
}

// closedLoop sends as fast as the send queue admits.
func (g *Gen) closedLoop(conn uint8, c *udpwire.Conn) {
	defer g.workers.Done()
	g.noteSent(conn, g.blast(conn, c, 0, workload.Backpressure, nil))
}

// blast is the closed loop: send, then wait while more than depth packets
// are queued. It runs until the generator stops or until fires, and returns
// the next unused id.
func (g *Gen) blast(conn uint8, c *udpwire.Conn, id uint32, depth int, until <-chan time.Time) uint32 {
	for {
		for c.QueuedPackets() > depth {
			time.Sleep(200 * time.Microsecond)
			select {
			case <-g.stop:
				return id
			case <-until:
				return id
			default:
			}
		}
		select {
		case <-g.stop:
			return id
		case <-until:
			return id
		default:
		}
		if !g.send(c, conn, id, time.Now()) {
			return id
		}
		id++
	}
}

// openLoop first probes the path closed-loop, lets it drain, then sends on
// the workload's fixed schedule whatever the completions do.
func (g *Gen) openLoop(conn uint8, c *udpwire.Conn) {
	defer g.workers.Done()
	t0 := time.Now()
	id := g.blast(conn, c, 0, probeDepth, time.After(probeFor))
	for (c.QueuedPackets() > 0 || c.Metrics().InFlight > 0) && !g.stopped() {
		time.Sleep(time.Millisecond)
	}
	g.mu.Lock()
	g.probeRate += float64(id) / time.Since(t0).Seconds()
	g.mu.Unlock()

	start := time.Now()
	for k := uint32(0); ; k++ {
		due := workload.Due(start, g.spec.Rate, int(conn), g.spec.Conns, k)
		sleepUntil(due)
		if g.stopped() {
			g.noteSent(conn, id)
			return
		}
		late := time.Since(due)
		g.mu.Lock()
		if g.measuring {
			g.lateMs = append(g.lateMs, float64(late)/1e6)
		}
		g.mu.Unlock()
		if !g.send(c, conn, id, due) {
			g.noteSent(conn, id)
			return
		}
		id++
	}
}

func (g *Gen) noteSent(conn uint8, id uint32) {
	g.mu.Lock()
	g.sent[conn] = id
	g.mu.Unlock()
}

// churn loops dial → MsgsPerCycle messages → graceful close.
func (g *Gen) churn(worker uint8, target string) {
	defer g.workers.Done()
	for !g.stopped() {
		g.attempted.Add(2) // the dial and the cycle
		t0 := time.Now()
		c, err := udpwire.Dial(target, g.cfg, dialTimeout)
		dial := time.Since(t0)
		if err != nil {
			g.dialFails.Add(1)
			g.sendErrs.Add(1) // the cycle did not complete either
			continue
		}
		ok := true
		for id := 0; id < g.spec.MsgsPerCycle && ok; id++ {
			ok = g.send(c, worker, uint32(id), time.Now())
		}
		t1 := time.Now()
		c.Close()
		done := time.Now()
		mt := c.Metrics()

		g.mu.Lock()
		addCounters(&g.closedSum, mt)
		g.closedN++
		g.closedRTT += mt.SRTT
		g.closedWnd += mt.Cwnd
		if g.measuring && ok {
			g.cycles.Add(done, 1)
			g.dialMs = append(g.dialMs, float64(dial)/1e6)
			g.closeMs = append(g.closeMs, float64(done.Sub(t1))/1e6)
		}
		g.mu.Unlock()
	}
}

// addCounters adds the cumulative counter fields of m into sum.
func addCounters(sum *core.Metrics, m core.Metrics) {
	sum.SentPackets += m.SentPackets
	sum.Retransmits += m.Retransmits
	sum.SkippedPackets += m.SkippedPackets
	sum.AckedPackets += m.AckedPackets
	sum.WindowRescales += m.WindowRescales
	sum.TxErrors += m.TxErrors
	sum.FecRepairsSent += m.FecRepairsSent
	sum.EackClips += m.EackClips
}

// subCounters returns a − b over the same fields.
func subCounters(a, b core.Metrics) core.Metrics {
	return core.Metrics{
		SentPackets:    a.SentPackets - b.SentPackets,
		Retransmits:    a.Retransmits - b.Retransmits,
		SkippedPackets: a.SkippedPackets - b.SkippedPackets,
		AckedPackets:   a.AckedPackets - b.AckedPackets,
		WindowRescales: a.WindowRescales - b.WindowRescales,
		TxErrors:       a.TxErrors - b.TxErrors,
		FecRepairsSent: a.FecRepairsSent - b.FecRepairsSent,
		EackClips:      a.EackClips - b.EackClips,
	}
}

// sampleCwnd adds each long-lived connection's congestion window to the
// window's mean; the ticker calls it once a second.
func (g *Gen) sampleCwnd() {
	var sum float64
	for _, c := range g.conns {
		sum += c.Metrics().Cwnd
	}
	g.mu.Lock()
	g.cwndSum += sum
	g.cwndN += len(g.conns)
	g.mu.Unlock()
}

// read takes a window edge.
func (g *Gen) read() edge {
	e := edge{
		callbacks: g.callbacks.Load(),
		marked:    g.sentMarked.Load(),
		unmarked:  g.sentUnmrk.Load(),
		hists:     g.cfg.Hists.Snapshots(),
	}
	for _, c := range g.conns {
		addCounters(&e.core, c.Metrics())
		e.txFlushes += c.TxFlushes()
		e.drops += c.DroppedDeliveries()
	}
	for _, p := range g.proxies {
		st := p.Stats()
		e.chaos.Forwarded += st.Forwarded
		e.chaos.Drops += st.Drops
	}
	g.mu.Lock()
	addCounters(&e.core, g.closedSum)
	e.closedN, e.closedRTT, e.closedWnd = g.closedN, g.closedRTT, g.closedWnd
	g.mu.Unlock()
	e.proc = measure.ReadProc()
	return e
}

// Begin opens the window.
func (g *Gen) Begin() {
	g.before = g.read()
	g.mu.Lock()
	g.cycles.Start = time.Now()
	g.measuring = true
	g.mu.Unlock()
	g.ticker = measure.StartTicker(g.sampleCwnd)
}

// End closes the window and returns what it held.
func (g *Gen) End() Window {
	g.mu.Lock()
	g.measuring = false
	g.mu.Unlock()
	g.ticker.Stop()
	a, b := g.before, g.read()

	g.mu.Lock()
	defer g.mu.Unlock()
	w := Window{
		Proc:              b.proc.Sub(a.proc),
		CPUSeconds:        g.ticker.CPU,
		Core:              subCounters(b.core, a.core),
		TxFlushes:         b.txFlushes - a.txFlushes,
		DroppedDeliveries: b.drops - a.drops,
		Callbacks:         b.callbacks - a.callbacks,
		SentMarked:        b.marked - a.marked,
		SentUnmarked:      b.unmarked - a.unmarked,
		LatenessMs:        measure.Summarise(g.lateMs),
		DialMs:            measure.Summarise(g.dialMs),
		CloseMs:           measure.Summarise(g.closeMs),
		Cycles:            g.cycles.N,
		AckDelayP50us:     measure.HistWindowQuantile(a.hists, b.hists, hist.MetricAckDelay, 0.5) * 1e6,
		BacklogP99:        measure.HistWindowQuantile(a.hists, b.hists, hist.MetricBacklog, 0.99),
	}
	w.Chaos.Forwarded = b.chaos.Forwarded - a.chaos.Forwarded
	w.Chaos.Drops = b.chaos.Drops - a.chaos.Drops
	if n := b.closedN - a.closedN; n > 0 {
		w.SRTTms = float64(b.closedRTT-a.closedRTT) / float64(n) / 1e6
		w.CwndMean = (b.closedWnd - a.closedWnd) / float64(n)
	}
	if len(g.conns) > 0 {
		var rtt time.Duration
		for _, c := range g.conns {
			rtt += c.Metrics().SRTT
		}
		w.SRTTms = float64(rtt) / float64(len(g.conns)) / 1e6
		if g.cwndN > 0 {
			w.CwndMean = g.cwndSum / float64(g.cwndN)
		}
	}
	return w
}

// Stop ends the load, closes every connection gracefully (Close drains the
// send queue before its FIN, so everything sent is acknowledged before the
// sink is asked for its totals) and returns the run's account. Whether a
// close completed is not judged here: a lost FINACK ends it as fin-timeout
// with every message delivered, and an abandoned queue shows up in the
// sink's count of missing messages, which is what the run is judged by.
func (g *Gen) Stop() Final {
	close(g.stop)
	g.workers.Wait()
	var closers sync.WaitGroup
	for _, c := range g.conns {
		closers.Add(1)
		go func(c *udpwire.Conn) {
			defer closers.Done()
			c.Close()
		}(c)
	}
	closers.Wait()
	g.closeProxies()
	g.mu.Lock()
	defer g.mu.Unlock()
	return Final{
		Sent:      append([]uint32(nil), g.sent...),
		Attempted: g.attempted.Load(),
		SendErrs:  g.sendErrs.Load(),
		DialFails: g.dialFails.Load(),
		ProbeRate: g.probeRate,
	}
}

func (g *Gen) abortConns() {
	for _, c := range g.conns {
		c.Abort()
	}
}

func (g *Gen) closeProxies() {
	for _, p := range g.proxies {
		p.Close()
	}
}
