// Command iqload measures IQ-RUDP throughput and delivery behaviour between
// two real hosts — an iperf-style load tool for the protocol.
//
// Sink (runs the serve engine; prints delivered rate once per second):
//
//	iqload -listen 0.0.0.0:9901 -tolerance 0.3
//	iqload -listen 0.0.0.0:9901 -shards 4                     # 4 demux shards
//
// Source (fills the window for a duration, or paces at a fixed rate):
//
//	iqload -to host:9901 -duration 10s -size 1400            # as fast as allowed
//	iqload -to host:9901 -conns 200 -duration 10s            # 200 concurrent conns
//	iqload -to host:9901 -conns 50 -churn 10                 # ~10 replacements/s
//	iqload -to host:9901 -duration 10s -size 1200 -rate 2e6  # 2 Mb/s paced, per conn
//	iqload -to host:9901 -unmarked 0.5                       # half droppable
//
// Messages of at least 16 bytes carry a timestamp; the sink reports
// per-connection p50/p99/p999 delivery latency in its final block (one-way,
// so meaningful on loopback or clock-synchronised hosts).
//
// Attack mode turns iqload into a hostile-traffic generator for validating
// a sink's survivability hardening (spoofed sources are modelled by binding
// distinct loopback /24 addresses, so it is loopback-only):
//
//	iqload -to host:9901 -attack synflood -attack-rate 10000 -duration 5s
//	iqload -to host:9901 -attack replay                      # cookie replay
//	iqload -to host:9901 -attack garbage                     # undecodable datagrams
//
// It prints an attack-summary table: datagrams/bytes sent, achieved rate,
// and the reflected volume — which must stay under the sink's 3x
// anti-amplification budget.
//
// Either mode takes -trace file.jsonl (machine-event trace for cmd/iqstat)
// and -metrics-addr host:port (live Prometheus /metrics + expvar
// /debug/vars; the serve engine's gauges, histograms and /debug/iqrudp
// introspection document are registered automatically). Source connections
// run with histograms and the flight recorder armed: the survivability
// line counts connections that died leaving a black box (see cmd/iqstat
// -flight for rendering a dumped record).
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	iqrudp "github.com/cercs/iqrudp"
	"github.com/cercs/iqrudp/internal/chaoswire"
	"github.com/cercs/iqrudp/internal/stats"
	"github.com/cercs/iqrudp/metricsexp"
)

func main() {
	var (
		listen      = flag.String("listen", "", "sink mode: address to listen on")
		tolerance   = flag.Float64("tolerance", 0, "sink mode: loss tolerance for unmarked messages")
		shards      = flag.Int("shards", 0, "sink mode: serve engine shards (0 = auto)")
		to          = flag.String("to", "", "source mode: sink address")
		duration    = flag.Duration("duration", 10*time.Second, "source mode: how long to send")
		size        = flag.Int("size", 1400, "source mode: message size in bytes")
		rate        = flag.Float64("rate", 0, "source mode: per-connection target bit rate (0 = as fast as allowed)")
		unmarked    = flag.Float64("unmarked", 0, "source mode: fraction of messages sent unmarked")
		conns       = flag.Int("conns", 1, "source mode: concurrent connections")
		churn       = flag.Float64("churn", 0, "source mode: connection replacements per second across the pool")
		seed        = flag.Int64("seed", 1, "source mode: marking RNG seed")
		traceFile   = flag.String("trace", "", "write a JSONL machine-event trace to this file (see cmd/iqstat)")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/vars on this address")
		chaos       = flag.Bool("chaos", false, "source mode: dial through an in-process fault-injecting proxy (tune with -loss/-dup/-reorder/-blackhole/-rebind/-chaos-seed)")
		loss        = flag.Float64("loss", 0, "chaos: per-datagram drop probability, each direction")
		dup         = flag.Float64("dup", 0, "chaos: per-datagram duplication probability, each direction")
		reorder     = flag.Float64("reorder", 0, "chaos: per-datagram reorder probability, each direction")
		blackhole   = flag.Duration("blackhole", 0, "chaos: one total outage of this length per connection, a third of the way into the run (outlast Config.DeadInterval to exercise resume)")
		rebind      = flag.Duration("rebind", 0, "chaos: rebind each connection's NAT mapping at this interval (0 = never)")
		chaosSeed   = flag.Uint64("chaos-seed", 1, "chaos: deterministic fault-stream seed (per-connection streams derive from it)")
		fec         = flag.Bool("fec", false, "enable forward-erasure repair (negotiated at the handshake; set on both source and sink)")
		fecRate     = flag.Int("fec-rate", 16, "fec: repair-group size K — one parity packet per K data packets; adapts down under measured loss")
		attack      = flag.String("attack", "", "attack mode: hostile traffic against -to (synflood|replay|garbage); loopback sinks only")
		attackRate  = flag.Int("attack-rate", 10000, "attack mode: aggregate datagrams/s across all spoofed sources")
		attackSrcs  = flag.Int("attack-sources", 8, "attack mode: distinct loopback /24 source addresses")
	)
	flag.Parse()
	fecGroup := 0
	if *fec {
		fecGroup = *fecRate
	}
	chaosCfg := chaosOpts{
		enabled: *chaos, loss: *loss, dup: *dup, reorder: *reorder,
		blackhole: *blackhole, rebind: *rebind, seed: *chaosSeed,
	}
	tracer, exporter, cleanup, err := buildTracer(*traceFile, *metricsAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()
	switch {
	case *listen != "":
		if err := runSink(*listen, *tolerance, *shards, fecGroup, tracer, exporter); err != nil {
			log.Fatal(err)
		}
	case *to != "" && *attack != "":
		if err := runAttack(*to, *attack, *attackRate, *attackSrcs, *duration); err != nil {
			log.Fatal(err)
		}
	case *to != "":
		if err := runSource(*to, *duration, *size, *rate, *unmarked, *seed, *conns, *churn, fecGroup, chaosCfg, tracer, exporter); err != nil {
			log.Fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// buildTracer assembles the optional observability sinks; cleanup flushes
// the JSONL file and stops the metrics listener. The exporter is non-nil
// when -metrics-addr is set, so callers can register extra gauges.
func buildTracer(traceFile, metricsAddr string) (iqrudp.Tracer, *metricsexp.Exporter, func(), error) {
	var (
		sinks    []iqrudp.Tracer
		cleanups []func()
		exporter *metricsexp.Exporter
	)
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return nil, nil, nil, err
		}
		jl := iqrudp.NewTraceJSONL(f)
		cleanups = append(cleanups, func() {
			if err := jl.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
			}
			f.Close()
		})
		sinks = append(sinks, jl)
	}
	if metricsAddr != "" {
		counters := iqrudp.NewTraceCounters()
		exporter = metricsexp.New(counters)
		srv, err := metricsexp.Serve(metricsAddr, exporter)
		if err != nil {
			return nil, nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", srv.Addr)
		cleanups = append(cleanups, func() { srv.Close() })
		sinks = append(sinks, counters)
	}
	cleanup := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	return iqrudp.MultiTracer(sinks...), exporter, cleanup, nil
}

func runSink(addr string, tolerance float64, shards int, fecGroup int, tracer iqrudp.Tracer, exporter *metricsexp.Exporter) error {
	cfg := iqrudp.ServerConfig(tolerance)
	cfg.Tracer = tracer
	cfg.FECGroup = fecGroup
	srv, err := iqrudp.ListenServer(addr, cfg, iqrudp.ServerOptions{Shards: shards})
	if err != nil {
		return err
	}
	defer srv.Close()
	if exporter != nil {
		for name, fn := range srv.Gauges() {
			exporter.AddGauge(name, fn)
		}
		exporter.AddHistSource(srv.HistSnapshots)
		exporter.SetIntrospection(func() any { return srv.Introspect() })
	}
	fmt.Println("iqload sink (serve engine) on", srv.Addr())
	for {
		conn, err := srv.Accept(0)
		if err != nil {
			return err
		}
		go sinkConn(conn)
	}
}

func sinkConn(conn *iqrudp.Conn) {
	defer conn.Close()
	fmt.Println("source connected:", conn.RemoteAddr())
	var (
		total, marked int
		bytes         uint64
		winMsgs       int
		winBytes      uint64
		lat           stats.Sample
		start         = time.Now()
		lastReport    = start
	)
	for {
		msg, err := conn.Recv(2 * time.Second)
		if err == iqrudp.ErrTimeout {
			if conn.Closed() {
				break
			}
			continue
		}
		if err != nil {
			break
		}
		total++
		winMsgs++
		bytes += uint64(len(msg.Data))
		winBytes += uint64(len(msg.Data))
		if msg.Marked {
			marked++
		}
		if age, ok := stampAge(msg.Data); ok {
			lat.Add(age.Seconds() * 1000) // milliseconds
		}
		if since := time.Since(lastReport); since >= time.Second {
			fmt.Printf("  %6.1fs  %8.1f KB/s  %6d msgs/s\n",
				time.Since(start).Seconds(),
				float64(winBytes)/since.Seconds()/1000,
				int(float64(winMsgs)/since.Seconds()))
			winMsgs, winBytes = 0, 0
			lastReport = time.Now()
		}
	}
	elapsed := time.Since(start).Seconds()
	latency := ""
	if lat.N() > 0 {
		latency = fmt.Sprintf(", delivery p50=%.2fms p99=%.2fms p999=%.2fms",
			lat.Quantile(0.5), lat.Quantile(0.99), lat.Quantile(0.999))
	}
	fmt.Printf("done %s: %d messages (%d marked), %.1f KB, %.1f KB/s average%s\n",
		conn.RemoteAddr(), total, marked, float64(bytes)/1000,
		float64(bytes)/elapsed/1000, latency)
	mt := conn.Metrics()
	if mt.FecRepairsRecv > 0 || mt.FecRecovered > 0 {
		fmt.Printf("fec: %d repair(s) received, %d lost packet(s) reconstructed (%d marked) — each a retransmit avoided\n",
			mt.FecRepairsRecv, mt.FecRecovered, mt.FecRecoveredMarked)
	}
	fmt.Println("transport:", mt)
}

// stampMagic prefixes timestamped payloads (see stamp/stampAge).
var stampMagic = [8]byte{'I', 'Q', 'L', 'D', 'T', 'S', '0', '1'}

// stamp writes the magic and the current unix-nano time into the payload's
// first 16 bytes; smaller payloads go unstamped.
func stamp(payload []byte) {
	if len(payload) < 16 {
		return
	}
	copy(payload, stampMagic[:])
	binary.BigEndian.PutUint64(payload[8:], uint64(time.Now().UnixNano()))
}

// stampAge recovers a payload's send-to-delivery age, if it was stamped.
func stampAge(data []byte) (time.Duration, bool) {
	if len(data) < 16 || string(data[:8]) != string(stampMagic[:]) {
		return 0, false
	}
	sent := int64(binary.BigEndian.Uint64(data[8:]))
	return time.Duration(time.Now().UnixNano() - sent), true
}

// chaosOpts configures the optional in-process fault-injecting proxy each
// source connection dials through. Every worker gets its own proxy and its
// own deterministic fault stream (seed + worker index), so a run is
// reproducible for a fixed flag set.
type chaosOpts struct {
	enabled            bool
	loss, dup, reorder float64
	blackhole, rebind  time.Duration
	seed               uint64
}

// typedErrCounts tallies the driver's error taxonomy across all workers.
type typedErrCounts struct {
	peerDead, refused, hsTimeout atomic.Uint64
}

func (c *typedErrCounts) count(err error) {
	switch {
	case errors.Is(err, iqrudp.ErrPeerDead):
		c.peerDead.Add(1)
	case errors.Is(err, iqrudp.ErrRefused):
		c.refused.Add(1)
	case errors.Is(err, iqrudp.ErrHandshakeTimeout):
		c.hsTimeout.Add(1)
	}
}

func (c *typedErrCounts) String() string {
	return fmt.Sprintf("%d peer-dead, %d refused, %d handshake-timeout",
		c.peerDead.Load(), c.refused.Load(), c.hsTimeout.Load())
}

func runSource(to string, duration time.Duration, size int, rate, unmarked float64, seed int64, conns int, churn float64, fecGroup int, chaos chaosOpts, tracer iqrudp.Tracer, exporter *metricsexp.Exporter) error {
	if conns < 1 {
		conns = 1
	}
	cfg := iqrudp.DefaultConfig()
	cfg.Tracer = tracer
	cfg.FECGroup = fecGroup
	// Arm the observability surface: one histogram set shared by every
	// worker (records are atomic, so sharing just merges their samples)
	// and a flight recorder per connection for typed-error postmortems.
	cfg.Hists = iqrudp.NewHists()
	cfg.FlightEvents = 64
	if exporter != nil {
		exporter.AddHistSource(cfg.Hists.Snapshots)
	}
	fmt.Printf("sending %dB messages to %s for %v over %d connection(s)\n",
		size, to, duration, conns)
	if fecGroup > 0 {
		fmt.Printf("fec: repair group %d (one parity per %d data packets, loss-adaptive)\n", fecGroup, fecGroup)
	}
	if chaos.enabled {
		fmt.Printf("chaos: loss=%g dup=%g reorder=%g blackhole=%v rebind=%v seed=%d\n",
			chaos.loss, chaos.dup, chaos.reorder, chaos.blackhole, chaos.rebind, chaos.seed)
	}

	// Connection lifetime under churn: with conns workers each re-dialling
	// after conns/churn seconds, the pool replaces ~churn connections/s.
	var sessionLife time.Duration
	if churn > 0 {
		sessionLife = time.Duration(float64(conns) / churn * float64(time.Second))
	}

	var (
		totalSent  atomic.Uint64
		dials      atomic.Uint64
		failures   atomic.Uint64
		resumes    atomic.Uint64
		flightRecs atomic.Uint64
		fecSent    atomic.Uint64
		fecRecov   atomic.Uint64
		typed      typedErrCounts
		lastMu     sync.Mutex
		lastMet    *iqrudp.Metrics
	)
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(i)))
			target := to
			if chaos.enabled {
				f := chaoswire.Faults{Drop: chaos.loss, Dup: chaos.dup, Reorder: chaos.reorder}
				proxy, err := chaoswire.New(to, chaoswire.Config{
					Seed: chaos.seed + uint64(i), Up: f, Down: f, Tracer: tracer,
				})
				if err != nil {
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "conn %d: chaos proxy: %v\n", i, err)
					return
				}
				defer proxy.Close()
				target = proxy.Addr()
				if chaos.blackhole > 0 {
					timer := time.AfterFunc(duration/3, func() { proxy.Blackhole(chaos.blackhole) })
					defer timer.Stop()
				}
				if chaos.rebind > 0 {
					stop := make(chan struct{})
					defer close(stop)
					go func() {
						t := time.NewTicker(chaos.rebind)
						defer t.Stop()
						for {
							select {
							case <-t.C:
								if err := proxy.Rebind(); err != nil {
									return
								}
							case <-stop:
								return
							}
						}
					}()
				}
			}
			for time.Now().Before(deadline) {
				conn, err := iqrudp.DialTimeout(target, cfg, 10*time.Second)
				if err != nil {
					failures.Add(1)
					typed.count(err)
					fmt.Fprintf(os.Stderr, "conn %d: dial: %v\n", i, err)
					time.Sleep(100 * time.Millisecond)
					continue
				}
				dials.Add(1)
				end := deadline
				if sessionLife > 0 {
					// Jitter session ends so replacements spread out instead
					// of arriving in a thundering herd.
					life := sessionLife/2 + time.Duration(rng.Int63n(int64(sessionLife)))
					if s := time.Now().Add(life); s.Before(end) {
						end = s
					}
				}
				sent, err := sendOn(conn, end, size, rate, unmarked, rng)
				// A dead peer (e.g. an outage outlasting DeadInterval) is
				// survivable: resume the session and keep sending — queued
				// marked data is carried onto the successor connection.
				for err != nil && errors.Is(err, iqrudp.ErrPeerDead) {
					typed.count(err)
					if conn.FlightRecord() != nil {
						flightRecs.Add(1)
					}
					err = nil
					if !time.Now().Before(end) {
						break
					}
					nc, rerr := conn.Resume(10 * time.Second)
					if rerr != nil {
						failures.Add(1)
						typed.count(rerr)
						fmt.Fprintf(os.Stderr, "conn %d: resume: %v\n", i, rerr)
						break
					}
					resumes.Add(1)
					conn = nc
					var more int
					more, err = sendOn(conn, end, size, rate, unmarked, rng)
					sent += more
				}
				totalSent.Add(uint64(sent))
				mt := conn.Metrics()
				fecSent.Add(mt.FecRepairsSent)
				fecRecov.Add(mt.FecRecovered)
				conn.Close()
				lastMu.Lock()
				lastMet = &mt
				lastMu.Unlock()
				if err != nil {
					failures.Add(1)
					typed.count(err)
					// Close above was not clean — the abort already happened,
					// so the black box (if armed) is retrievable after Close.
					if conn.FlightRecord() != nil {
						flightRecs.Add(1)
					}
					fmt.Fprintf(os.Stderr, "conn %d: send: %v\n", i, err)
				}
			}
		}(i)
	}
	wg.Wait()

	sent := totalSent.Load()
	elapsed := duration.Seconds()
	fmt.Printf("sent %d messages over %d dial(s) (%d failure(s)), %.1f KB/s offered, %d msgs/s\n",
		sent, dials.Load(), failures.Load(),
		float64(sent)*float64(size)/elapsed/1000, int(float64(sent)/elapsed))
	if chaos.enabled || resumes.Load() > 0 || flightRecs.Load() > 0 {
		fmt.Printf("survivability: %d resume(s); typed errors: %s; %d flight record(s)\n",
			resumes.Load(), &typed, flightRecs.Load())
	}
	if fecGroup > 0 {
		fmt.Printf("fec: %d repair(s) sent, %d inbound loss(es) repaired; sink-side reconstructions are in the sink's summary\n",
			fecSent.Load(), fecRecov.Load())
	}
	lastMu.Lock()
	if lastMet != nil {
		fmt.Println("transport (last conn):", *lastMet)
	}
	lastMu.Unlock()
	return nil
}

// runAttack drives one hostile-traffic generator at the sink for the given
// duration and prints the attack-summary table. The reflected volume is the
// attack's own measurement, so the amplification line holds whatever the
// sink claims about itself.
func runAttack(to, kind string, rate, sources int, duration time.Duration) error {
	k, err := chaoswire.ParseAttackKind(kind)
	if err != nil {
		return err
	}
	atk, err := chaoswire.NewAttacker(to, chaoswire.AttackConfig{
		Kind: k, Rate: rate, Sources: sources,
	})
	if err != nil {
		return err
	}
	fmt.Printf("attacking %s: %s at %d datagrams/s from %d spoofed source(s) for %v\n",
		to, k, rate, sources, duration)
	start := time.Now()
	atk.Start()
	time.Sleep(duration)
	st := atk.Stop()
	elapsed := time.Since(start).Seconds()

	amp := "n/a"
	if st.SentBytes > 0 {
		amp = fmt.Sprintf("%.2fx", float64(st.RcvdBytes)/float64(st.SentBytes))
	}
	fmt.Println("attack summary")
	fmt.Printf("  %-14s %s\n", "kind", k)
	fmt.Printf("  %-14s %v\n", "duration", duration)
	fmt.Printf("  %-14s %d\n", "sources", sources)
	fmt.Printf("  %-14s %d datagrams, %.1f KB\n", "sent", st.Sent, float64(st.SentBytes)/1000)
	fmt.Printf("  %-14s %d datagrams/s achieved\n", "rate", int(float64(st.Sent)/elapsed))
	fmt.Printf("  %-14s %d datagrams, %.1f KB\n", "reflected", st.Rcvd, float64(st.RcvdBytes)/1000)
	fmt.Printf("  %-14s %s of bytes sent (sink's anti-amplification budget is 3x)\n", "amplification", amp)
	return nil
}

// sendOn drives one connection until end, pacing to rate if set and against
// the transmit backlog otherwise. Each message is timestamped for the
// sink's delivery-latency report.
func sendOn(conn *iqrudp.Conn, end time.Time, size int, rate, unmarked float64, rng *rand.Rand) (int, error) {
	payload := make([]byte, size)
	mark := func() bool { return !(unmarked > 0 && rng.Float64() < unmarked) }
	sent := 0
	if rate > 0 {
		interval := time.Duration(float64(size*8) / rate * float64(time.Second))
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for time.Now().Before(end) {
			<-ticker.C
			stamp(payload)
			if err := conn.Send(payload, mark()); err != nil {
				return sent, err
			}
			sent++
		}
		return sent, nil
	}
	for time.Now().Before(end) {
		stamp(payload)
		if err := conn.Send(payload, mark()); err != nil {
			return sent, err
		}
		sent++
		// Backpressure: the machine buffers without bound, so pace on the
		// transmit backlog to keep memory sane.
		for conn.QueuedPackets() > 2048 && time.Now().Before(end) {
			time.Sleep(time.Millisecond)
		}
	}
	return sent, nil
}
