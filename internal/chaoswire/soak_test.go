package chaoswire

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/serve"
	"github.com/cercs/iqrudp/internal/trace"
	"github.com/cercs/iqrudp/internal/udpwire"
)

// Soak parameters, overridable for `make chaos-smoke`:
//
//	CHAOS_SEED — fault-lane seed (default 1)
//	CHAOS_DUR  — send phase duration (default 1500ms, so the plain test
//	             suite stays quick; chaos-smoke runs longer)
func chaosSeed() uint64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil {
			return v
		}
	}
	return 1
}

func chaosDur() time.Duration {
	if s := os.Getenv("CHAOS_DUR"); s != "" {
		if v, err := time.ParseDuration(s); err == nil {
			return v
		}
	}
	return 1500 * time.Millisecond
}

// collector buffers every traced event for post-run invariant checks.
type collector struct {
	mu  sync.Mutex
	evs []trace.Event
}

func (c *collector) Trace(ev trace.Event) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

func (c *collector) events() []trace.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]trace.Event(nil), c.evs...)
}

// recvSet is the server-side record of delivered marked payloads and of
// every connection the sink accepted.
type recvSet struct {
	mu    sync.Mutex
	m     map[string]bool
	conns []*udpwire.Conn
}

func newRecvSet() *recvSet { return &recvSet{m: map[string]bool{}} }

func (r *recvSet) add(s string) {
	r.mu.Lock()
	r.m[s] = true
	r.mu.Unlock()
}

func (r *recvSet) has(s string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[s]
}

func (r *recvSet) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

func (r *recvSet) accepted(c *udpwire.Conn) {
	r.mu.Lock()
	r.conns = append(r.conns, c)
	r.mu.Unlock()
}

// dropped sums DroppedDeliveries over the sink's connections whose ConnID
// is in ids: messages the transport delivered but the sink's receive queue
// had no room for.
func (r *recvSet) dropped(ids []uint32) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n uint64
	for _, c := range r.conns {
		id := c.ID()
		for _, want := range ids {
			if id == want {
				n += c.DroppedDeliveries()
			}
		}
	}
	return n
}

// startSink starts a serve engine that records every delivered marked
// payload into the returned set.
func startSink(t *testing.T, cfg core.Config) (*serve.Server, *recvSet) {
	t.Helper()
	srv, err := serve.Listen("127.0.0.1:0", cfg, serve.Options{
		Shards: 2, DrainTimeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatalf("serve.Listen: %v", err)
	}
	got := newRecvSet()
	go func() {
		for {
			c, err := srv.Accept(0)
			if err != nil {
				return
			}
			got.accepted(c)
			go func(c *udpwire.Conn) {
				for {
					msg, err := c.Recv(0)
					if err != nil {
						return
					}
					if msg.Marked {
						got.add(string(msg.Data))
					}
				}
			}(c)
		}
	}()
	return srv, got
}

// drained is how drainAndClose ended: the successors it created, whether
// it gave up at its bound, and the in-flight and queued packets it last saw.
type drained struct {
	chain            []*udpwire.Conn
	timedOut         bool
	inFlight, queued int
}

// drainAndClose waits for the connection's pipeline to empty (resuming if
// chaos kills it meanwhile) and closes it.
func drainAndClose(c *udpwire.Conn, bound time.Duration) drained {
	var d drained
	deadline := time.Now().Add(bound)
	for {
		if !time.Now().Before(deadline) {
			d.timedOut = true
			break
		}
		if c.Closed() {
			nc, err := c.Resume(3 * time.Second)
			if err != nil {
				time.Sleep(50 * time.Millisecond)
				continue
			}
			c = nc
			d.chain = append(d.chain, c)
			continue
		}
		d.inFlight, d.queued = c.Metrics().InFlight, c.QueuedPackets()
		if d.inFlight == 0 && d.queued == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.Close()
	return d
}

// clientCfg is the soak clients' transport configuration: fast liveness so
// blackholes kill connections within the test budget, a bounded backlog so
// overload sheds instead of ballooning, a tolerant receiver so unmarked
// loss is tolerated end to end, and the flight recorder armed so every
// chaos-killed connection leaves a black box.
func clientCfg(tr trace.Tracer) core.Config {
	cfg := core.DefaultConfig()
	cfg.LossTolerance = 0.5
	cfg.Keepalive = 100 * time.Millisecond
	cfg.DeadInterval = 500 * time.Millisecond
	cfg.MaxSendBacklog = 128
	cfg.RTOMin = 100 * time.Millisecond
	cfg.Tracer = tr
	cfg.FlightEvents = 64
	return cfg
}

// dumpFlightRecord writes a killed connection's black box as JSON into
// $CHAOS_FLIGHT_DIR (CI uploads the directory as a build artifact; render
// a dump with `iqstat -flight <file>`). No-op when the variable is unset.
func dumpFlightRecord(t *testing.T, rec *core.FlightRecord) {
	dir := os.Getenv("CHAOS_FLIGHT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Errorf("flight dump: %v", err)
		return
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Errorf("flight dump: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("flight-conn%d-%s.json", rec.ConnID, rec.CloseReason))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Errorf("flight dump: %v", err)
		return
	}
	t.Logf("flight record dumped to %s", path)
}

// TestCloseWithinBoundsSilentPeer checks CloseWithin's linger against a
// peer that went silent: the FIN into the blackhole is cut short at the
// linger bound, long before the machine's own FIN retry (one RTO, at
// least RTOMin) would give up, and the connection records fin-timeout.
func TestCloseWithinBoundsSilentPeer(t *testing.T) {
	srv, _ := startSink(t, core.DefaultConfig())
	defer srv.Close()
	proxy, err := New(srv.Addr().String(), Config{Seed: chaosSeed()})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cfg := core.DefaultConfig()
	cfg.RTOMin = 10 * time.Second
	c, err := udpwire.Dial(proxy.Addr(), cfg, 3*time.Second)
	if err != nil {
		t.Fatalf("dial through proxy: %v", err)
	}
	proxy.Blackhole(time.Second)
	start := time.Now()
	c.CloseWithin(100 * time.Millisecond)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("CloseWithin(100ms) returned after %v", took)
	}
	if r := c.CloseReason(); r != trace.ReasonFinTimeout {
		t.Fatalf("close reason %q, want %q", r, trace.ReasonFinTimeout)
	}
}

// TestResumeAcrossBlackhole is the acceptance scenario: a connection dialed
// through chaoswire survives a blackhole longer than its DeadInterval via
// Resume, and every marked payload queued before and during the outage is
// delivered.
func TestResumeAcrossBlackhole(t *testing.T) {
	serverCol := &collector{}
	scfg := core.DefaultConfig()
	scfg.LossTolerance = 0.5
	scfg.Tracer = serverCol
	srv, got := startSink(t, scfg)
	defer srv.Close()

	clientCol := &collector{}
	proxy, err := New(srv.Addr().String(), Config{Seed: chaosSeed(), Tracer: clientCol})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cfg := clientCfg(clientCol)
	d := &udpwire.Dialer{Addr: proxy.Addr(), Config: cfg, Timeout: 3 * time.Second}
	c, err := d.Dial()
	if err != nil {
		t.Fatalf("dial through proxy: %v", err)
	}

	var sent []string
	send := func(n int) {
		for i := 0; i < n; i++ {
			p := fmt.Sprintf("M:resume:%03d", len(sent))
			if err := c.Send([]byte(p), true); err != nil {
				t.Fatalf("send %d: %v", len(sent), err)
			}
			sent = append(sent, p)
		}
	}
	send(5)

	// Outage longer than DeadInterval: the dead-peer detector must fire.
	proxy.Blackhole(cfg.DeadInterval + 700*time.Millisecond)
	send(5) // queued into the void; carryover must revive these
	deadline := time.Now().Add(5 * time.Second)
	for !c.Closed() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if !c.Closed() {
		t.Fatal("connection survived a blackhole longer than DeadInterval")
	}
	err = c.Err()
	if !errors.Is(err, udpwire.ErrPeerDead) {
		t.Fatalf("close error = %v, want ErrPeerDead", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("ErrPeerDead must be a net.Error with Timeout()=true, got %v", err)
	}

	// The abnormal death must leave a retrievable black box naming the
	// typed reason, with the dead transition as its final ring event.
	rec := c.FlightRecord()
	if rec == nil {
		t.Fatal("chaos-killed connection left no flight record")
	}
	if rec.CloseReason != trace.ReasonPeerDead {
		t.Fatalf("flight record reason = %q, want %q", rec.CloseReason, trace.ReasonPeerDead)
	}
	if len(rec.Events) == 0 {
		t.Fatal("flight record has an empty event ring")
	}
	dumpFlightRecord(t, rec)

	// Resume (the dial itself rides out any blackhole tail via SYN
	// retransmission) and send a post-outage batch.
	nc, err := c.Resume(5 * time.Second)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if nc.ResumedFrom() != c.ID() {
		t.Fatalf("ResumedFrom = %d, want predecessor %d", nc.ResumedFrom(), c.ID())
	}
	if nc.ID() == c.ID() {
		t.Fatal("successor reused the predecessor's ConnID")
	}
	old := c
	c = nc
	send(5)

	drainAndClose(c, 10*time.Second)
	wait := time.Now().Add(5 * time.Second)
	for got.len() < len(sent) && time.Now().Before(wait) {
		time.Sleep(20 * time.Millisecond)
	}
	for _, p := range sent {
		if !got.has(p) {
			t.Errorf("marked payload %q never delivered", p)
		}
	}
	if n := srv.Stats().Resumes; n < 1 {
		t.Errorf("server Stats().Resumes = %d, want >= 1", n)
	}

	// The client-side trace must show the resumption with the carried count.
	var resumed bool
	for _, ev := range clientCol.events() {
		if ev.Type == trace.ConnResumed && ev.Seq == old.ID() && ev.ConnID == c.ID() {
			resumed = true
			if ev.Size == 0 {
				t.Errorf("ConnResumed carried 0 messages; the outage batch should have carried over")
			}
		}
	}
	if !resumed {
		t.Error("no ConnResumed event traced on the client side")
	}
}

// TestChaosSoak runs several clients through independently seeded fault
// lanes — one scripted blackhole-and-resume, one NAT rebind, one pure
// probabilistic chaos — and then checks the survivability invariants:
//
//  1. every marked payload accepted by Send is delivered (at-least-once);
//  2. every connection that died recorded exactly one typed close reason,
//     drawn from the registered vocabulary;
//  3. every traced Reason outside TxError is registered (tracekeys-clean);
//  4. no goroutine and no pooled-packet leaks.
func TestChaosSoak(t *testing.T) {
	// The process-wide timing wheel starts its driver goroutine on first
	// use and runs for the life of the process; warm it before the baseline
	// so it doesn't read as a leak.
	udpwire.DefaultWheel()
	baselineGoroutines := runtime.NumGoroutine()
	baselinePool := packet.PoolOutstanding()

	serverCol := &collector{}
	scfg := core.DefaultConfig()
	scfg.LossTolerance = 0.5
	scfg.Keepalive = 200 * time.Millisecond
	scfg.Tracer = serverCol
	srv, got := startSink(t, scfg)

	seed := chaosSeed()
	dur := chaosDur()
	faults := Faults{Drop: 0.03, Dup: 0.03, Reorder: 0.04, Corrupt: 0.02, Truncate: 0.01, Delay: 0.05}

	clientCol := &collector{}
	type result struct {
		sent  map[string]bool
		ids   []uint32 // every ConnID the client dialed or resumed to
		drain drained
	}
	results := make([]result, 3)
	var wg sync.WaitGroup
	var proxies []*Proxy
	filler := make([]byte, 300)
	for idx := 0; idx < 3; idx++ {
		proxy, err := New(srv.Addr().String(), Config{
			Seed: seed + uint64(idx), Up: faults, Down: faults, Tracer: clientCol,
		})
		if err != nil {
			t.Fatal(err)
		}
		proxies = append(proxies, proxy)
		defer proxy.Close()
		wg.Add(1)
		go func(idx int, proxy *Proxy) {
			defer wg.Done()
			cfg := clientCfg(clientCol)
			d := &udpwire.Dialer{Addr: proxy.Addr(), Config: cfg, Timeout: 3 * time.Second}
			var c *udpwire.Conn
			var err error
			for try := 0; try < 5 && c == nil; try++ {
				if c, err = d.Dial(); err != nil {
					c = nil
				}
			}
			if c == nil {
				t.Errorf("client %d: dial never succeeded: %v", idx, err)
				return
			}
			sent := map[string]bool{}
			ids := []uint32{c.ID()}
			start := time.Now()
			deadline := start.Add(dur)
			scripted := false
			seq := 0
			for time.Now().Before(deadline) {
				if !scripted && time.Since(start) > dur/3 {
					scripted = true
					switch idx {
					case 0:
						// Outage past DeadInterval: forces a dead-peer abort
						// and a resume below.
						proxy.Blackhole(cfg.DeadInterval + 300*time.Millisecond)
					case 1:
						if err := proxy.Rebind(); err != nil {
							t.Errorf("client %d: rebind: %v", idx, err)
						}
					}
				}
				if c.Closed() {
					nc, rerr := c.Resume(3 * time.Second)
					if rerr != nil {
						time.Sleep(30 * time.Millisecond)
						continue
					}
					c = nc
					ids = append(ids, c.ID())
					continue
				}
				p := fmt.Sprintf("M:%d:%06d", idx, seq)
				if err := c.Send([]byte(p), true); err == nil {
					sent[p] = true
					seq++
				}
				_ = c.Send(filler, false) // droppable load
				time.Sleep(2 * time.Millisecond)
			}
			dr := drainAndClose(c, 15*time.Second)
			for _, nc := range dr.chain {
				ids = append(ids, nc.ID())
			}
			results[idx] = result{sent: sent, ids: ids, drain: dr}
		}(idx, proxy)
	}
	wg.Wait()

	// Give the last retransmissions-in-flight a moment, then drain the
	// server gracefully.
	want := 0
	for _, r := range results {
		want += len(r.sent)
	}
	settle := time.Now().Add(5 * time.Second)
	for got.len() < want && time.Now().Before(settle) {
		time.Sleep(50 * time.Millisecond)
	}
	srv.Close()
	// The leak checks below must see the middleboxes torn down too.
	for _, p := range proxies {
		p.Close()
	}

	// Invariant 1: marked delivery.
	missing := 0
	for idx, r := range results {
		for p := range r.sent {
			if !got.has(p) {
				missing++
				if missing <= 5 {
					t.Errorf("client %d: marked payload %q never delivered", idx, p)
				}
			}
		}
	}
	if missing > 5 {
		t.Errorf("... and %d more undelivered marked payloads", missing-5)
	}
	if missing > 0 {
		// Tell a delivery-queue drop at the sink from a harness that gave up
		// draining before the transport finished.
		var txDrops uint64
		for _, ss := range srv.Stats().Shards {
			txDrops += ss.TxDrops
		}
		for idx, r := range results {
			t.Errorf("client %d: conns %v; sink dropped %d deliveries on them, shard TxDrops %d; "+
				"drain hit its 15 s bound: %v (InFlight %d, QueuedPackets %d)",
				idx, r.ids, got.dropped(r.ids), txDrops, r.drain.timedOut, r.drain.inFlight, r.drain.queued)
		}
	}
	if want == 0 {
		t.Fatal("soak sent no marked payloads; the harness is broken")
	}

	// Invariants 2 and 3, per side (client and server machines trace the
	// same ConnIDs, so the exactly-once check is per collector).
	allowed := map[string]bool{}
	for _, r := range trace.Reasons() {
		allowed[r] = true
	}
	for side, col := range map[string]*collector{"client": clientCol, "server": serverCol} {
		deaths := map[uint32]int{}
		for _, ev := range col.events() {
			if ev.Reason != "" && ev.Type != trace.TxError && !allowed[ev.Reason] {
				t.Errorf("%s: event %v carries unregistered reason %q", side, ev.Type, ev.Reason)
			}
			if ev.Type == trace.ConnState && ev.To == "dead" {
				deaths[ev.ConnID]++
				if ev.Reason == "" {
					t.Errorf("%s: conn %d died without a typed reason", side, ev.ConnID)
				}
			}
		}
		for id, n := range deaths {
			if n != 1 {
				t.Errorf("%s: conn %d recorded %d dead transitions, want exactly 1", side, id, n)
			}
		}
		if len(deaths) == 0 {
			t.Errorf("%s: no connection deaths traced; the soak exercised nothing", side)
		}
	}

	// Invariant 4a: goroutines return to baseline (timers and loops wind
	// down asynchronously).
	gDeadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baselineGoroutines+2 && time.Now().Before(gDeadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baselineGoroutines+2 {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutine leak: %d now vs %d at baseline\n%s",
			n, baselineGoroutines, buf[:runtime.Stack(buf, true)])
	}

	// Invariant 4b: every pooled packet went back.
	pDeadline := time.Now().Add(5 * time.Second)
	for packet.PoolOutstanding() != baselinePool && time.Now().Before(pDeadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if n := packet.PoolOutstanding(); n != baselinePool {
		t.Errorf("packet pool leak: %d outstanding vs %d at baseline", n, baselinePool)
	}
}
