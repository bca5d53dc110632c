// Package serve is the multi-connection server engine for IQ-RUDP — the
// one acceptor, behind iqrudp.Listen and iqrudp.ListenServer. It runs N
// shards, each owning a slice of the connection table keyed by the wire
// ConnID, each (on Linux) reading and writing its own SO_REUSEPORT-bound
// socket with batched recvmmsg/sendmmsg syscalls and pooled receive
// buffers. The design borrows QUIC's connection-ID demultiplexing: a
// connection is identified by the ConnID every packet carries, not by its
// source address, so a client whose NAT rebinds (new source port) keeps its
// connection — the engine migrates the peer address and reaps the stale
// address entry.
//
// Demultiplexing rules (shard = ConnID mod N):
//
//   - Non-SYN packets are routed to the ConnID's home shard. A known ConnID
//     seen from a new source address migrates the connection to that
//     address. Unknown ConnIDs are counted and dropped.
//   - SYNs for a known ConnID from the same address re-drive the handshake
//     (retransmitted SYN); from a different address they are refused with
//     RST (ConnID collision).
//   - SYNs for a new ConnID fall back to address keying: if the source
//     address already hosts another connection, that predecessor is a
//     zombie (the client restarted from the same port) and is evicted
//     abortively before the new connection is admitted.
//   - When the accept queue is full, excess SYNs are refused with RST
//     instead of silently dropped, so clients fail fast rather than
//     retrying into a black hole.
//
// Shutdown is a graceful drain: Close FINs every connection concurrently
// and waits a bounded DrainTimeout for pipelines to empty before tearing
// the sockets down.
//
// Per-shard counters (receive batches and packets, transmit batches, drops)
// plus engine totals (connections, accepted, refused, migrations) are
// exposed via Stats and, as lazily-evaluated gauges named serve.conns,
// serve.refused, serve.shard.rx_batch, ..., via Gauges — feed them to
// metricsexp.Exporter.AddGauge. The per-connection machines trace through
// core.Config.Tracer exactly as under udpwire, so JSONL traces remain
// readable by cmd/iqstat.
package serve

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/guard"
	"github.com/cercs/iqrudp/internal/hist"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/udpwire"
	"github.com/cercs/iqrudp/internal/uio"
	"github.com/cercs/iqrudp/internal/wheel"
)

// Errors, shared with the socket driver so callers handle one vocabulary.
var (
	ErrClosed  = udpwire.ErrClosed
	ErrTimeout = udpwire.ErrTimeout
)

// Options tunes the engine. The zero value selects sensible defaults.
type Options struct {
	// Shards is the number of demux shards (and, on Linux, SO_REUSEPORT
	// sockets). Default: GOMAXPROCS, clamped to [1, 64].
	Shards int

	// Backlog is the accept-queue capacity; SYNs beyond it are refused
	// with RST. Default 128.
	Backlog int

	// DrainTimeout bounds the graceful drain in Close: every connection
	// gets at most this long to flush pending data and complete its FIN
	// exchange. Default 5s.
	DrainTimeout time.Duration

	// FlightEvents sizes each accepted connection's always-on flight-
	// recorder ring (trace events kept for the postmortem black box) and
	// enables its per-connection histogram set. Default 64; -1 disables the
	// recorder, histograms and the per-shard distribution histograms.
	FlightEvents int

	// NoOffload disables UDP GSO/GRO segmentation offload on the engine's
	// sockets even when the kernel supports it — the A/B knob for the
	// bench matrix and for triaging offload-suspect behavior.
	NoOffload bool

	// AlwaysValidate requires every handshake to present a valid address-
	// validation cookie: each first SYN is answered statelessly with RETRY
	// and connection state is only allocated when the echoed cookie
	// verifies. Off by default — validation then engages under load (a SYN
	// rate above 1024/s, Backlog pressure, or the governor's brownout).
	AlwaysValidate bool

	// MemLimit is the resource governor's byte budget across the engine's
	// elastic memory consumers (per-connection overhead, send backlogs,
	// reassembly, out-of-order buffers). Crossing 70/85/95% of it raises
	// the brownout level: shed unmarked ingress, clamp advertised windows
	// on new connections, refuse new connections. Default 256 MiB; negative
	// disables the governor.
	MemLimit int64
}

// Engine constants.
const (
	// ioBatch is the number of datagrams moved per recvmmsg/sendmmsg call
	// on the Linux fast path (also the transmit coalescing bound on the
	// portable path).
	ioBatch = 32

	// sockBufBytes is the per-socket read and write buffer request (subject
	// to the kernel's rmem_max/wmem_max).
	sockBufBytes = 4 << 20

	// flightRecordCap bounds how many abnormal-close flight records the
	// engine retains (oldest evicted first).
	flightRecordCap = 32

	// synRateLimit is the engine-wide SYNs-per-second threshold above which
	// stateless cookie validation engages.
	synRateLimit = 1024

	// synPrefixRate caps un-cookied SYNs per source /24 (IPv4) or /48
	// (IPv6) per second; prefixes beyond it are challenged with RETRY
	// instead of admitted, so one flooding subnet cannot monopolise
	// handshake capacity.
	synPrefixRate = 4096

	// cookieLifetime bounds address-validation cookie validity and sets the
	// signing-secret rotation period.
	cookieLifetime = 15 * time.Second

	// rstRate caps refusal RSTs per shard per second so the refusal path
	// cannot be used as a reflection amplifier; refusals beyond it are
	// counted but unanswered.
	rstRate = 100
)

func (o *Options) sanitize() {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.Shards > 64 {
		o.Shards = 64
	}
	if o.Backlog <= 0 {
		o.Backlog = 128
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	switch {
	case o.FlightEvents == 0:
		o.FlightEvents = 64
	case o.FlightEvents < 0:
		o.FlightEvents = 0
	}
	switch {
	case o.MemLimit == 0:
		o.MemLimit = 256 << 20
	case o.MemLimit < 0:
		o.MemLimit = 0
	}
}

// Server is the sharded multi-connection engine. Accepted connections are
// ordinary *udpwire.Conn values — the full Send/Recv/Metrics/threshold API.
type Server struct {
	cfg core.Config
	opt Options

	socks   []*net.UDPConn
	shards  []*shard
	rxPool  *uio.BufPool // receive buffers, shared by every shard's batcher
	offload uio.Offload  // kernel segmentation-offload support probed at bind
	accept  chan *udpwire.Conn

	drainCh   chan struct{} // closed when Close begins: no new admissions
	closed    chan struct{} // closed when teardown completes
	closeOnce sync.Once

	accepted    atomic.Uint64
	refused     atomic.Uint64
	migrations  atomic.Uint64
	resumes     atomic.Uint64 // SYNs carrying a valid resume token
	stray       atomic.Uint64
	sockBufErrs atomic.Uint64 // SetReadBuffer/SetWriteBuffer failures at bind

	// Survivability (see harden.go and internal/guard).
	cookies       *guard.CookieSource  // address-validation cookie mint
	ledger        *guard.Ledger        // engine-wide elastic-memory ledger (nil = governor off)
	gov           *guard.Governor      // brownout ladder over the ledger
	synLimiter    *guard.PrefixLimiter // per-source-prefix SYN damping
	synMeter      rateMeter            // engine-wide SYN rate, cookie-mode trigger
	retrySent     atomic.Uint64        // stateless RETRY challenges emitted
	cookieRejects atomic.Uint64        // presented cookies that failed verification
	evictDenied   atomic.Uint64        // evictions refused for lack of path proof
	synLimited    atomic.Uint64        // SYNs challenged by the prefix limiter
	rstSuppressed atomic.Uint64        // refusal RSTs suppressed by the rate cap
	ampCapped     atomic.Uint64        // packets suppressed by the anti-amplification gate

	// Observability retention (see obs.go): merged histograms of closed
	// connections and the bounded flight-record ring.
	obsMu       sync.Mutex
	archive     []hist.Snapshot
	flights     []*core.FlightRecord
	flightCap   int // records retained: flightRecordCap
	flightTotal uint64
}

// Listen binds laddr ("host:port") and starts the engine. cfg configures
// every accepted connection (LossTolerance, Tracer, ...); opt tunes the
// engine itself.
func Listen(laddr string, cfg core.Config, opt Options) (*Server, error) {
	opt.sanitize()
	socks, err := listenShardSockets(laddr, opt.Shards)
	if err != nil {
		return nil, err
	}
	offload := uio.ProbeOffload()
	if opt.NoOffload {
		offload = uio.Offload{}
	}
	srv := newServer(cfg, opt, socks, offload)
	for _, sock := range socks {
		// The kernel clamps granted sizes to rmem_max/wmem_max silently; an
		// outright failure is counted so an engine running on default socket
		// buffers shows up in Stats/serve.sockbuf.errors instead of only as
		// mysterious loss under load.
		if err := sock.SetReadBuffer(sockBufBytes); err != nil {
			srv.sockBufErrs.Add(1)
		}
		if err := sock.SetWriteBuffer(sockBufBytes); err != nil {
			srv.sockBufErrs.Add(1)
		}
	}
	for i := range socks {
		sh := srv.shards[i]
		rb, err := uio.NewRxBatcher(socks[i], srv.rxPool, ioBatch)
		if err == nil {
			if offload.GRO {
				// Best effort: a socket that refuses UDP_GRO just stays on
				// the one-datagram-per-slot path.
				rb.EnableGRO()
			}
			var tb *uio.TxBatcher
			tb, err = uio.NewTxBatcher(socks[i], ioBatch)
			if err == nil {
				if opt.NoOffload {
					tb.SetGSO(false)
				}
				go sh.readLoop(rb)
				go sh.txLoop(tb)
				continue
			}
		}
		for _, s := range socks {
			s.Close()
		}
		srv.closeWheels()
		return nil, fmt.Errorf("serve: shard %d: %w", i, err)
	}
	return srv, nil
}

// newServer builds the engine's tables and shards over already-bound
// sockets (opt sanitized) without starting any I/O loop.
func newServer(cfg core.Config, opt Options, socks []*net.UDPConn, offload uio.Offload) *Server {
	// With GRO the kernel coalesces a burst of same-flow datagrams into one
	// super-datagram per recvmmsg slot, so receive buffers must hold a full
	// coalesced train (64 KiB) rather than one MTU-sized packet.
	bufSize := rxBufSize(cfg)
	if offload.GRO {
		bufSize = uio.GROBufSize
	}
	srv := &Server{
		cfg:        cfg,
		opt:        opt,
		socks:      socks,
		rxPool:     uio.NewBufPool(bufSize),
		offload:    offload,
		shards:     make([]*shard, opt.Shards),
		accept:     make(chan *udpwire.Conn, opt.Backlog),
		drainCh:    make(chan struct{}),
		closed:     make(chan struct{}),
		cookies:    guard.NewCookieSource(cookieLifetime),
		flightCap:  flightRecordCap,
		synLimiter: guard.NewPrefixLimiter(synPrefixRate, 4096),
	}
	if opt.MemLimit > 0 {
		srv.ledger = &guard.Ledger{}
		srv.gov = guard.NewGovernor(srv.ledger, opt.MemLimit)
	}
	// The transmit queue holds the datagrams a few receive batches provoke
	// across every shard sharing a socket; enqueueTx blocks rather than
	// drop when it is full.
	txq := 4 * ioBatch * len(srv.shards)
	for i := range srv.shards {
		sh := &shard{
			srv:       srv,
			idx:       i,
			sock:      socks[i%len(socks)],
			wh:        wheel.New(0),
			byID:      make(map[uint32]connEntry),
			byAddr:    make(map[netip.AddrPort]uint32),
			rstBucket: guard.NewTokenBucket(rstRate, rstRate),
			txq:       make(chan uio.Msg, txq),
			txDone:    make(chan struct{}),
			txFree:    make([][]byte, 0, txq+ioBatch),
		}
		if opt.FlightEvents > 0 {
			sh.rxBatchH = hist.NewBatch(hist.MetricRxBatch)
			sh.dispatchH = hist.NewLatency(hist.MetricDispatch)
			sh.wheelLateH = hist.NewLatency(hist.MetricWheelLateness)
			sh.wh.SetLatenessHist(sh.wheelLateH)
		}
		srv.shards[i] = sh
	}
	// Each shard routes transmissions through the shard that owns its
	// socket's I/O loops (itself on Linux; shard 0 in the single-socket
	// fallback where len(socks) < Shards).
	for i := range srv.shards {
		srv.shards[i].io = srv.shards[i%len(socks)]
	}
	return srv
}

// closeWheels stops every shard's timer goroutine.
func (srv *Server) closeWheels() {
	for _, sh := range srv.shards {
		if sh != nil && sh.wh != nil {
			sh.wh.Close()
		}
	}
}

// rxBufSize sizes the pooled receive buffers: at least one MSS-sized
// payload plus headroom for headers, attribute blocks and EACK extents.
func rxBufSize(cfg core.Config) int {
	n := cfg.MSS + 1024
	if n < 4096 {
		n = 4096
	}
	return n
}

// Accept blocks until a new connection's handshake has begun, the timeout
// elapses (0 = no timeout), or the server closes. The connection may still
// be completing its handshake; Recv (or Messages) as usual.
func (srv *Server) Accept(timeout time.Duration) (*udpwire.Conn, error) {
	var tc <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout) //iqlint:ignore timeafterloop -- per-call accept deadline blocking on channel receive, not a protocol timer
		defer t.Stop()
		tc = t.C
	}
	select {
	case c := <-srv.accept:
		return c, nil
	case <-tc:
		return nil, ErrTimeout
	case <-srv.drainCh:
		return nil, ErrClosed
	}
}

// Addr returns the engine's bound address.
func (srv *Server) Addr() net.Addr { return srv.socks[0].LocalAddr() }

// draining reports whether Close has begun.
func (srv *Server) draining() bool {
	select {
	case <-srv.drainCh:
		return true
	default:
		return false
	}
}

// Close gracefully drains the engine: new SYNs are refused with RST, every
// connection is closed concurrently (pending data flushes, then the FIN
// exchange), and after at most DrainTimeout the sockets are torn down.
func (srv *Server) Close() error {
	srv.closeOnce.Do(func() {
		close(srv.drainCh)
		var conns []*udpwire.Conn
		for _, sh := range srv.shards {
			sh.mu.RLock()
			for _, e := range sh.byID {
				conns = append(conns, e.c)
			}
			sh.mu.RUnlock()
		}
		var wg sync.WaitGroup
		for _, c := range conns {
			wg.Add(1)
			go func(c *udpwire.Conn) {
				defer wg.Done()
				c.CloseWithin(srv.opt.DrainTimeout)
			}(c)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		backstop := time.NewTimer(srv.opt.DrainTimeout + time.Second) //iqlint:ignore timeafterloop -- one-shot drain backstop; Close blocks on channel receive
		defer backstop.Stop()
		select {
		case <-done:
		case <-backstop.C:
			// CloseWithin bounds each conn; this is a backstop only.
		}
		close(srv.closed)
		for _, sock := range srv.socks {
			sock.Close()
		}
		// After the drain no connection needs another timer: stop the
		// per-shard wheel goroutines.
		srv.closeWheels()
	})
	return nil
}

// Conns returns the current connection count across all shards.
func (srv *Server) Conns() int {
	n := 0
	for _, sh := range srv.shards {
		sh.mu.RLock()
		n += len(sh.byID)
		sh.mu.RUnlock()
	}
	return n
}

// ShardStats is one shard's I/O counters. Only socket-owning shards (all of
// them on Linux, shard 0 in the portable fallback) accumulate rx/tx counts.
type ShardStats struct {
	Conns      int    // connections homed on this shard
	RxPackets  uint64 // datagrams received
	RxBatches  uint64 // recvmmsg calls that returned at least one datagram
	RxErrors   uint64 // undecodable datagrams
	RxBytes    uint64 // wire bytes received
	TxPackets  uint64 // datagrams transmitted
	TxBatches  uint64 // sendmmsg flushes
	TxBytes    uint64 // wire bytes transmitted
	TxDrops    uint64 // datagrams the kernel refused (the transmit queue blocks rather than drop)
	TimerArms  uint64 // timing-wheel (re)arms on this shard's wheel
	TimerFires uint64 // timing-wheel callback dispatches
}

// Stats is a point-in-time snapshot of the engine.
type Stats struct {
	Conns       int         // live connections
	Accepted    uint64      // connections admitted since start
	Refused     uint64      // SYNs refused with RST (backlog full, collision, draining)
	Migrations  uint64      // peer-address rebinds absorbed
	Resumes     uint64      // session resumptions (SYNs naming a dead predecessor)
	Stray       uint64      // non-SYN packets for unknown ConnIDs
	SockBufErrs uint64      // SetReadBuffer/SetWriteBuffer failures at bind
	Offload     uio.Offload // kernel GSO/GRO support probed at bind

	// Survivability counters (see harden.go).
	RetrySent     uint64 // stateless RETRY challenges emitted
	CookieRejects uint64 // presented address-validation cookies that failed
	EvictDenied   uint64 // evictions refused for lack of path proof
	SynLimited    uint64 // SYNs challenged by the per-prefix limiter
	RstSuppressed uint64 // refusal RSTs suppressed by the rate cap
	AmpCapped     uint64 // packets suppressed by the anti-amplification gate
	BrownoutLevel int    // current governor brownout level (0–3)
	MemBytes      int64  // ledger balance across elastic memory classes

	Shards []ShardStats
}

// Stats snapshots the engine's counters.
func (srv *Server) Stats() Stats {
	st := Stats{
		Accepted:    srv.accepted.Load(),
		Refused:     srv.refused.Load(),
		Migrations:  srv.migrations.Load(),
		Resumes:     srv.resumes.Load(),
		Stray:       srv.stray.Load(),
		SockBufErrs: srv.sockBufErrs.Load(),
		Offload:     srv.offload,

		RetrySent:     srv.retrySent.Load(),
		CookieRejects: srv.cookieRejects.Load(),
		EvictDenied:   srv.evictDenied.Load(),
		SynLimited:    srv.synLimited.Load(),
		RstSuppressed: srv.rstSuppressed.Load(),
		AmpCapped:     srv.ampCapped.Load(),
		BrownoutLevel: srv.gov.Level(),
		MemBytes:      srv.ledger.Total(),

		Shards: make([]ShardStats, len(srv.shards)),
	}
	for i, sh := range srv.shards {
		sh.mu.RLock()
		conns := len(sh.byID)
		sh.mu.RUnlock()
		ws := sh.wh.Stats()
		st.Shards[i] = ShardStats{
			Conns:      conns,
			RxPackets:  sh.rxPackets.Load(),
			RxBatches:  sh.rxBatches.Load(),
			RxErrors:   sh.rxErrors.Load(),
			RxBytes:    sh.rxBytes.Load(),
			TxPackets:  sh.txPackets.Load(),
			TxBatches:  sh.txBatches.Load(),
			TxBytes:    sh.txBytes.Load(),
			TxDrops:    sh.txDrops.Load(),
			TimerArms:  ws.Arms,
			TimerFires: ws.Fires,
		}
		st.Conns += conns
	}
	return st
}

// Gauges returns lazily-evaluated engine gauges keyed by metric name
// (serve.conns, serve.refused, serve.shard.rx_batch, per-shard variants),
// ready for metricsexp.Exporter.AddGauge.
func (srv *Server) Gauges() map[string]func() float64 {
	g := map[string]func() float64{
		"serve.conns":      func() float64 { return float64(srv.Conns()) },
		"serve.accepted":   func() float64 { return float64(srv.accepted.Load()) },
		"serve.refused":    func() float64 { return float64(srv.refused.Load()) },
		"serve.migrations": func() float64 { return float64(srv.migrations.Load()) },
		"serve.resumes":    func() float64 { return float64(srv.resumes.Load()) },
		// Socket buffer-sizing failures at bind: nonzero means the engine is
		// running on default kernel buffers.
		"serve.sockbuf.errors": func() float64 { return float64(srv.sockBufErrs.Load()) },
		// Survivability: stateless handshake validation, anti-amplification
		// and the resource governor (see harden.go and DESIGN.md §18).
		"serve.retry.sent":     func() float64 { return float64(srv.retrySent.Load()) },
		"serve.cookie.rejects": func() float64 { return float64(srv.cookieRejects.Load()) },
		"serve.evict.denied":   func() float64 { return float64(srv.evictDenied.Load()) },
		"serve.syn.limited":    func() float64 { return float64(srv.synLimited.Load()) },
		"serve.rst.suppressed": func() float64 { return float64(srv.rstSuppressed.Load()) },
		"serve.amp.capped":     func() float64 { return float64(srv.ampCapped.Load()) },
		"serve.brownout.level": func() float64 { return float64(srv.gov.Level()) },
		"serve.mem.bytes":      func() float64 { return float64(srv.ledger.Total()) },
		"serve.shard.rx_batch": func() float64 {
			var pkts, batches uint64
			for _, sh := range srv.shards {
				pkts += sh.rxPackets.Load()
				batches += sh.rxBatches.Load()
			}
			if batches == 0 {
				return 0
			}
			return float64(pkts) / float64(batches)
		},
		// Receive-buffer freelist traffic: a rising miss count in steady
		// state means buffers are leaking or the pool is undersized.
		"serve.pool.hit":  func() float64 { h, _ := srv.rxPool.Stats(); return float64(h) },
		"serve.pool.miss": func() float64 { _, m := srv.rxPool.Stats(); return float64(m) },
		// Transmit flushes (sendmmsg calls / portable batch drains).
		"serve.tx.flushes": func() float64 {
			var flushes uint64
			for _, sh := range srv.shards {
				flushes += sh.txBatches.Load()
			}
			return float64(flushes)
		},
		// Cumulative wire bytes (rx+tx) per live connection: the per-conn
		// traffic share a capacity planner sizes buffers against.
		"serve.bytes_per_conn": func() float64 {
			var bytes uint64
			for _, sh := range srv.shards {
				bytes += sh.rxBytes.Load() + sh.txBytes.Load()
			}
			conns := srv.Conns()
			if conns == 0 {
				return 0
			}
			return float64(bytes) / float64(conns)
		},
		// Timing-wheel traffic across shards: arms per fire >> 1 means most
		// timers are re-armed before expiry (the healthy steady state).
		"serve.timer.arms": func() float64 {
			var arms uint64
			for _, sh := range srv.shards {
				arms += sh.wh.Stats().Arms
			}
			return float64(arms)
		},
		"serve.timer.fires": func() float64 {
			var fires uint64
			for _, sh := range srv.shards {
				fires += sh.wh.Stats().Fires
			}
			return float64(fires)
		},
		// Process-wide decoded-packet freelist (internal/packet pool).
		"packet.pool.hit":  func() float64 { h, _ := packet.PoolStats(); return float64(h) },
		"packet.pool.miss": func() float64 { _, m := packet.PoolStats(); return float64(m) },
	}
	for i, sh := range srv.shards {
		sh := sh
		g[fmt.Sprintf("serve.shard%d.rx_packets", i)] = func() float64 { return float64(sh.rxPackets.Load()) }
		g[fmt.Sprintf("serve.shard%d.rx_batch", i)] = func() float64 {
			b := sh.rxBatches.Load()
			if b == 0 {
				return 0
			}
			return float64(sh.rxPackets.Load()) / float64(b)
		}
	}
	return g
}
