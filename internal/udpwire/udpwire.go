// Package udpwire drives the sans-I/O IQ-RUDP machine over real UDP sockets
// with goroutines. A dialed connection owns a connected socket and a reader
// loop feeding each kernel batch into the machine; an accepted connection
// shares the sockets of the serve engine (internal/serve), the one
// acceptor, which creates it with NewAccepted and feeds it packets. Both
// kinds run a hierarchical-timing-wheel timer adapter with reusable handles
// (see wheeltimer.go) and a buffered delivery queue toward the application.
// It is the production driver; the simulator (internal/netem +
// internal/endpoint) is the reproducible one.
//
// Concurrency model: one mutex serialises every machine interaction (reader,
// timers, application sends). A delivery is pushed onto the receive queue,
// without blocking, while that lock is held, so messages reach the
// application in the order the machine produced them whichever goroutine
// drove it. Threshold callbacks also run under the lock and must not call
// blocking Conn methods.
package udpwire

import (
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"github.com/cercs/iqrudp/internal/attr"
	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/trace"
	"github.com/cercs/iqrudp/internal/uio"
	"github.com/cercs/iqrudp/internal/wheel"
)

// Conn is an IQ-RUDP connection over a UDP socket. Dialed connections own a
// connected socket; accepted connections share the serve engine's sockets
// and transmit through the sendTo hook, which enqueues onto a shard's
// batched writer.
type Conn struct {
	mu    sync.Mutex
	m     *core.Machine
	sock  *net.UDPConn
	peer  *net.UDPAddr
	epoch time.Time

	ownSocket   bool                                    // Close closes the socket (dialed conns)
	dialAddr    string                                  // dialed conns: the dial target, for Resume
	dialCfg     core.Config                             // dialed conns: the dial config, for Resume
	resumedFrom uint32                                  // predecessor ConnID when this conn was resumed
	sockBufErrs uint64                                  // dialed conns: SetReadBuffer/SetWriteBuffer failures
	local       net.Addr                                // accepted conns: the shared socket's address
	sendTo      func(b []byte, peer *net.UDPAddr) error // accepted conns: shared-socket writer
	txScratch   []byte                                  // accepted conns: encode buffer lent to sendTo; guarded by mu
	onDetach    func(c *Conn)                           // accepted conns: demux-table removal
	detachOnce  sync.Once

	msgs        chan core.Message
	established chan struct{}
	estOnce     sync.Once
	closed      chan struct{}
	closeOnce   sync.Once

	dropped uint64 // deliveries discarded because the queue was full; guarded by mu

	// Dialed-connection TX ring. Emit stages encoded datagrams into the
	// ring's reused slot buffers; flushTxLocked hands the staged prefix to
	// the batched writer (sendmmsg on Linux) at the end of the machine
	// interaction, before the connection lock is released. The ring is
	// allocated at the first emission and each slot buffer at its first
	// use, sized for a full datagram (see txBufSize), so neither grows by
	// append. All fields are guarded by mu.
	txb       *uio.TxBatcher
	txRing    []uio.Msg // staged datagrams, txN of them; B are the slot buffers
	txN       int
	txBufSize int // slot and txScratch capacity: a full-MSS DATA datagram
	txFlushes uint64

	// Dialed-connection RX batcher (recvmmsg on Linux): readLoop drains a
	// whole kernel batch and applies it as one receive run (HandleRun), so
	// in-order data in the batch is acknowledged once and the responses
	// leave as one batched transmit. Owned by readLoop; not guarded by mu.
	rxb *uio.RxBatcher

	// Timing-wheel timer backend (see wheeltimer.go): the wheel driving
	// this connection's machine timers, the inline handles and the freelist
	// of spent ones awaiting reuse (backed by wtFreeBuf). wh is set at
	// construction; the rest is guarded by mu.
	wh        *wheel.Wheel
	wtFree    []*wtimer
	wtFreeBuf [connTimers]*wtimer
	wts       [connTimers]wtimer
}

// txRingSize bounds the staged datagrams per flush: one machine interaction
// rarely emits more than a window burst, and an overful ring flushes early.
const txRingSize = 32

// txHeadroom is the encode-buffer room beyond one MSS of payload: the
// header with every optional field, the checksum and a small attribute
// block. A larger datagram gets a buffer of its own size.
const txHeadroom = 64

// rxBatch is the dialed-connection receive batch: large enough to absorb an
// ack burst for a window of data in one syscall.
const rxBatch = 16

// env adapts the socket world to core.Env. All methods are invoked with
// c.mu held.
type env struct{ c *Conn }

func (e env) Now() time.Duration { return time.Since(e.c.epoch) }

func (e env) Emit(p *packet.Packet) {
	c := e.c
	if c.peer == nil {
		return // passive side before the first SYN: nothing to address
	}
	if c.sendTo != nil {
		// Shared-socket acceptor path: the writer borrows the buffer for the
		// call only (a writer that queues copies it), so one encode buffer
		// serves every datagram of the connection.
		b, err := packet.AppendEncode(c.txBuf(c.txScratch), p)
		if err != nil {
			return // structurally impossible for machine-built packets
		}
		c.txScratch = b
		if err := c.sendTo(b, c.peer); err != nil {
			c.m.NoteTxError(1, err)
		}
		return
	}
	c.stageTx(p)
}

// txBuf returns buf emptied, allocating it on first use with room for a
// full-MSS DATA datagram, so an encode buffer is not regrown by append as
// larger packets follow the small handshake ones.
func (c *Conn) txBuf(buf []byte) []byte {
	if cap(buf) == 0 {
		return make([]byte, 0, c.txBufSize)
	}
	return buf[:0]
}

// stageTx encodes p into the next TX ring slot, reusing the slot's buffer.
// Called with mu held; a full ring flushes immediately.
//
//iqlint:borrow
func (c *Conn) stageTx(p *packet.Packet) {
	if c.txRing == nil {
		c.txRing = make([]uio.Msg, txRingSize)
	}
	slot := &c.txRing[c.txN]
	b, err := packet.AppendEncode(c.txBuf(slot.B), p)
	if err != nil {
		return // structurally impossible for machine-built packets
	}
	slot.B = b
	c.txN++
	if c.txN >= txRingSize {
		c.flushTxLocked()
	}
}

// flushTxLocked writes every staged datagram through the batched writer in
// one call (writev/sendmmsg on Linux, a write loop elsewhere). Called with
// mu held at the end of every machine interaction that can emit, so packets
// never linger past their lock section. Transmit failures are reported to
// the machine (Metrics.TxErrors plus a tx_error trace event) — Emit itself
// has no error path, and without this a dead socket would be silent.
func (c *Conn) flushTxLocked() {
	if c.txN == 0 {
		return
	}
	n := c.txN
	c.txN = 0
	sent, err := c.txb.Send(c.txRing[:n])
	c.txFlushes++
	if sent < n {
		c.m.NoteTxError(uint64(n-sent), err)
	}
}

// Deliver pushes msg onto the receive queue. It runs with mu held, so the
// reader, the timer goroutine and (for accepted conns) every shard read loop
// enqueue in the order the machine delivered; the push never blocks.
func (e env) Deliver(msg core.Message) {
	select {
	case e.c.msgs <- msg:
	default:
		// Queue full: drop-newest keeps the connection live, at a price.
		// The machine already acknowledged the message — a marked one
		// too — so the sender will not resend it and is never told: the
		// application loses it silently, and only the count shows it. A
		// delivery queue that advertises its free room as the receive
		// window (a ROADMAP item) would back-pressure the sender instead.
		e.c.dropped++
	}
}

// newConn wires a connection around an existing machine-less state. wh
// drives the machine's timers: the process-wide default wheel for dialed
// connections, the shard's wheel for the serve engine's.
func newConn(cfg core.Config, sock *net.UDPConn, peer *net.UDPAddr, wh *wheel.Wheel) *Conn {
	c := &Conn{
		sock:        sock,
		peer:        peer,
		epoch:       time.Now(),
		msgs:        make(chan core.Message, 1024),
		established: make(chan struct{}),
		closed:      make(chan struct{}),
		wh:          wh,
		txBufSize:   cfg.MSS + txHeadroom,
	}
	c.initTimers()
	c.m = core.NewMachine(cfg, env{c})
	signal := c.signal // one method value serves both hooks
	c.m.OnEstablished(signal)
	c.m.OnClosed(signal)
	return c
}

// signal is the machine's OnEstablished and OnClosed hook: it closes the
// channel matching the machine's new state. Called with mu held.
func (c *Conn) signal() {
	if c.m.CloseReason() != "" {
		c.closeOnce.Do(func() { close(c.closed) })
	} else if c.m.Established() {
		c.estOnce.Do(func() { close(c.established) })
	}
}

// NewAccepted builds the passive side of a connection for the serve
// engine, which demultiplexes shared sockets across shards: wh is the
// shard's timing wheel, which drives the connection's machine timers so
// timer dispatch stays shard-local; local is the shared socket's bound
// address; sendTo transmits an encoded packet to a peer (a non-nil error is
// counted into the machine's TxErrors metric and traced as tx_error, so a
// dead shared socket or a stopped transmit loop is never silent); and
// onDetach (optional) is invoked once when the connection closes so the
// engine can drop it from its demux tables. sendTo borrows b only for the
// duration of the call: the connection encodes its next datagram into the
// same buffer, so a writer that queues must copy. The returned connection
// is passively open: feed it the peer's SYN (and everything after) via
// HandleIncoming or HandleRun.
func NewAccepted(wh *wheel.Wheel, cfg core.Config, local net.Addr, peer *net.UDPAddr, sendTo func(b []byte, peer *net.UDPAddr) error, onDetach func(c *Conn)) *Conn {
	c := newConn(cfg, nil, peer, wh)
	c.local = local
	c.sendTo = sendTo
	c.onDetach = onDetach
	c.mu.Lock()
	c.m.StartServer()
	c.mu.Unlock()
	return c
}

// Dial opens an IQ-RUDP connection to raddr ("host:port") and blocks until
// the handshake completes or timeout elapses (0 means 10 s). When
// cfg.ConnID is zero a random nonzero connection ID is chosen so that
// ConnID-demultiplexing servers (the serve engine) can tell dialers apart.
func Dial(raddr string, cfg core.Config, timeout time.Duration) (*Conn, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	ua, err := net.ResolveUDPAddr("udp", raddr)
	if err != nil {
		return nil, err
	}
	sock, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	if cfg.ConnID == 0 {
		for cfg.ConnID == 0 {
			cfg.ConnID = rand.Uint32()
		}
	}
	bufErrs := sizeSockBufs(sock, cfg)
	tb, err := uio.NewTxBatcher(sock, txRingSize)
	if err != nil {
		sock.Close()
		return nil, &OpError{Op: "dial", Addr: raddr, Err: err}
	}
	// Receive buffers mirror the serve engine's sizing: one MSS-sized payload
	// plus header/attribute headroom. Both ends of an IQ-RUDP connection are
	// expected to run comparable MSS configurations.
	rxLen := cfg.MSS + 1024
	if rxLen < 4096 {
		rxLen = 4096
	}
	rb, err := uio.NewConnectedRxBatcher(sock, uio.NewBufPool(rxLen), rxBatch)
	if err != nil {
		sock.Close()
		return nil, &OpError{Op: "dial", Addr: raddr, Err: err}
	}
	c := newConn(cfg, sock, ua, DefaultWheel())
	c.ownSocket = true
	c.dialAddr = raddr
	c.dialCfg = cfg
	c.sockBufErrs = bufErrs
	c.txb, c.rxb = tb, rb
	go c.readLoop()
	c.mu.Lock()
	c.m.StartClient()
	c.flushTxLocked()
	c.mu.Unlock()
	deadline := time.NewTimer(timeout) //iqlint:ignore timeafterloop -- one-shot dial deadline; the goroutine blocks on channel receive, which a wheel callback cannot serve
	defer deadline.Stop()
	select {
	case <-c.established:
		return c, nil
	case <-c.closed:
		// Died before establishment: RST from the server (refused) or a
		// socket failure underneath the dial. Tear resources down, then
		// surface the machine's recorded reason as a typed error.
		c.Close()
		err := c.Err()
		if err == ErrClosed {
			err = ErrRefused // pre-establishment death with no richer reason
		}
		return nil, &OpError{Op: "dial", Addr: raddr, Err: err}
	case <-deadline.C:
		c.abortWith(trace.ReasonHandshakeTimeout)
		return nil, &OpError{Op: "dial", Addr: raddr, Err: ErrHandshakeTimeout}
	}
}

// sizeSockBufs sets a dialed socket's receive and send buffers to
// RecvWindow × (MSS + 1 KiB), clamped to [256 KiB, 4 MiB], and returns how
// many of the two settings failed. The peer may keep a whole advertised
// window in flight, and every packet of it provokes an ACK that lands in
// the receive buffer; at the kernel's default (208 KiB) a busy dialer
// overflows and loses the ACKs of a 512-packet window. Below the floor the
// default already suffices; above the ceiling rmem_max/wmem_max clamp
// anyway.
func sizeSockBufs(sock *net.UDPConn, cfg core.Config) uint64 {
	n := min(max(int(cfg.RecvWindow)*(cfg.MSS+1024), 256<<10), 4<<20)
	var errs uint64
	if err := sock.SetReadBuffer(n); err != nil {
		errs++
	}
	if err := sock.SetWriteBuffer(n); err != nil {
		errs++
	}
	return errs
}

// readLoop decodes incoming datagrams into the machine (dialed conns). Each
// kernel batch (recvmmsg on Linux, one datagram elsewhere) is applied under a
// single lock acquisition, and one packet is recycled across iterations: the
// machine only borrows it for the duration of HandlePacket, so the loop runs
// allocation-free in steady state.
func (c *Conn) readLoop() {
	var p packet.Packet
	for {
		msgs, err := c.rxb.Recv()
		if err != nil {
			// The socket died under the connection (or Close tore it down,
			// in which case the machine already recorded its reason).
			c.abortWith(trace.ReasonSockErr)
			return
		}
		c.HandleRun(msgs, &p)
		c.rxb.Release(msgs)
	}
}

// HandleRun decodes msgs into p and applies them to the machine as one
// receive run (core.Machine.BeginRun) in one lock section: in-order data is
// acknowledged once for the whole run, and everything the run provokes
// leaves in a single flush of the TX path at the end. Dialed connections
// feed it each kernel batch; acceptors feed it the datagrams of a batch
// that belong to this connection. p is recycled across the run — the
// machine only borrows it per packet — and msgs are not retained. It
// returns how many datagrams failed to decode.
//
//iqlint:borrow
func (c *Conn) HandleRun(msgs []uio.Msg, p *packet.Packet) (bad int) {
	c.mu.Lock()
	select {
	case <-c.closed:
		c.mu.Unlock()
		return 0
	default:
	}
	id := c.m.ConnID()
	c.m.BeginRun()
	for _, msg := range msgs {
		if err := packet.DecodeInto(p, msg.B, p.Payload); err != nil {
			bad++ // corrupt or foreign datagram
			continue
		}
		if id != 0 && p.ConnID != 0 && p.ConnID != id {
			continue // a different connection's packet (e.g. a predecessor
			// from the same port being FINed by the server)
		}
		c.m.HandlePacket(p)
	}
	c.m.EndRun()
	c.flushTxLocked()
	c.mu.Unlock()
	return bad
}

// HandleIncoming feeds one decoded packet into the connection outside any
// receive run, so a DATA packet is acknowledged at once; the serve engine
// calls it for packets it decoded itself (the admitting SYN, a packet
// routed on its own) and HandleRun for a run of raw datagrams. Safe for
// concurrent use (the connection lock serialises the machine).
func (c *Conn) HandleIncoming(p *packet.Packet) { c.handlePacket(p) }

// ID returns the wire connection ID (zero on the passive side until the
// initiator's SYN has been handled).
func (c *Conn) ID() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.ConnID()
}

// SetPeer rebinds the connection to a migrated peer address (same ConnID
// seen from a new source address) and returns the previous address.
// Subsequent transmissions go to the new address.
func (c *Conn) SetPeer(addr *net.UDPAddr) *net.UDPAddr {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.peer
	c.peer = addr
	return old
}

// handlePacket feeds one packet through the machine.
//
//iqlint:borrow
func (c *Conn) handlePacket(p *packet.Packet) {
	c.mu.Lock()
	select {
	case <-c.closed:
		c.mu.Unlock()
		return
	default:
	}
	c.m.HandlePacket(p)
	c.flushTxLocked()
	c.mu.Unlock()
}

// Send transmits one message (marked = must-deliver). Like SendMsg it keeps
// data, without copying it, until the peer acknowledges it.
func (c *Conn) Send(data []byte, marked bool) error {
	return c.SendMsg(data, marked, nil)
}

// SendMsg transmits one message with a quality-attribute list — the
// CMwritev_attr path carrying ADAPT_* coordination attributes. The
// transport keeps data, without copying it, until the peer acknowledges
// it (retransmissions are sent from it), so the caller must not modify or
// reuse data after the call; see core.Machine.SendMsg.
func (c *Conn) SendMsg(data []byte, marked bool, attrs *attr.List) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	err := c.m.SendMsg(data, marked, attrs)
	c.flushTxLocked()
	return err
}

// Recv returns the next delivered message, blocking until one arrives, the
// timeout elapses (0 = no timeout), or the connection closes.
func (c *Conn) Recv(timeout time.Duration) (core.Message, error) {
	var tc <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout) //iqlint:ignore timeafterloop -- per-call receive deadline blocking on channel receive, not a protocol timer
		defer t.Stop()
		tc = t.C
	}
	select {
	case msg := <-c.msgs:
		return msg, nil
	case <-tc:
		return core.Message{}, ErrTimeout
	case <-c.closed:
		// Drain anything already queued before reporting closure, then
		// surface the typed close reason (ErrClosed for an orderly shutdown,
		// ErrPeerDead / ErrRefused / … otherwise).
		select {
		case msg := <-c.msgs:
			return msg, nil
		default:
			return core.Message{}, c.Err()
		}
	}
}

// RegisterThresholds installs error-ratio callbacks; they run on the
// connection's timer goroutine with the connection lock held, so they must
// not call blocking Conn methods (returning an AdaptationReport is the
// intended interaction).
func (c *Conn) RegisterThresholds(upper, lower float64, onUpper, onLower core.ThresholdCallback) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m.RegisterThresholds(upper, lower, onUpper, onLower)
}

// Report describes an application adaptation to the transport.
func (c *Conn) Report(rep *core.AdaptationReport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m.Report(rep)
	c.flushTxLocked()
}

// SetLossTolerance updates this endpoint's receiver loss tolerance.
func (c *Conn) SetLossTolerance(tol float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m.SetLossTolerance(tol)
}

// QueuedPackets returns segmented packets awaiting first transmission —
// the send backlog an application should pace against.
func (c *Conn) QueuedPackets() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.QueuedPackets()
}

// CanSend reports whether window space is currently free.
func (c *Conn) CanSend() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.CanSend()
}

// Metrics snapshots the transport's measurements.
func (c *Conn) Metrics() core.Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Metrics()
}

// State reports the machine's connection phase ("established", "dead", ...).
func (c *Conn) State() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.State()
}

// Hists returns the histogram set this connection records into (nil when
// Config.Hists was not set). The histograms themselves are lock-free.
func (c *Conn) Hists() *core.Hists {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Hists()
}

// FlightRecord returns the connection's black box: the trace-event ring,
// final metrics and histogram summaries snapshotted when it closed
// abnormally. Nil while the connection is alive, after a clean close, or
// when Config.FlightEvents was zero. The record's Peer field is stamped
// with the current peer address.
func (c *Conn) FlightRecord() *core.FlightRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.m.FlightRecord()
	if rec != nil && rec.Peer == "" && c.peer != nil {
		rec.Peer = c.peer.String()
	}
	return rec
}

// Registry returns the connection's quality-attribute registry.
func (c *Conn) Registry() *attr.Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Registry()
}

// TxFlushes counts batched transmit flushes on a dialed connection (zero on
// accepted connections, which transmit through their acceptor's writer).
func (c *Conn) TxFlushes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.txFlushes
}

// SockBufErrs counts the socket-buffer sizing requests that failed when a
// dialed connection was set up (zero on accepted connections, whose
// acceptor sizes the shared sockets): nonzero means the connection runs on
// the kernel's default buffers.
func (c *Conn) SockBufErrs() uint64 { return c.sockBufErrs }

// DroppedDeliveries counts messages discarded because the application did
// not drain the receive queue. Each had already been acknowledged to the
// sender, marked messages included, so the sender will not resend it: a
// nonzero count means the application lost data the transport delivered.
func (c *Conn) DroppedDeliveries() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// LocalAddr returns the socket's local address.
func (c *Conn) LocalAddr() net.Addr {
	if c.local != nil {
		return c.local
	}
	return c.sock.LocalAddr()
}

// RemoteAddr returns the peer address (the current one, after migration).
func (c *Conn) RemoteAddr() net.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peer
}

// Close shuts the connection down gracefully: pending outgoing data drains
// and the FIN handshake completes before the socket is torn down, bounded by
// a five-second linger. The machine's OnClosed hook fires the closed signal
// when the drain finishes; an unresponsive peer hits the linger cap.
func (c *Conn) Close() error { return c.CloseWithin(5 * time.Second) }

// CloseWithin is Close with an explicit linger bound: the graceful drain
// (pending data, then the FIN exchange) is given at most linger before the
// connection is torn down anyway. The serve engine uses it to bound a
// whole-server drain.
func (c *Conn) CloseWithin(linger time.Duration) error {
	if linger <= 0 {
		linger = time.Nanosecond
	}
	c.mu.Lock()
	c.m.Close()
	c.flushTxLocked()
	c.mu.Unlock()
	lingerT := time.NewTimer(linger) //iqlint:ignore timeafterloop -- one-shot close linger; the caller blocks on channel receive
	defer lingerT.Stop()
	select {
	case <-c.closed:
	case <-lingerT.C:
		// The graceful drain outlived its bound: force the machine dead with
		// a typed reason (timers are gated on c.closed, so without this the
		// machine would be frozen mid-FIN with no recorded close reason).
		c.mu.Lock()
		c.m.AbortWith(trace.ReasonFinTimeout)
		c.mu.Unlock()
		c.closeOnce.Do(func() { close(c.closed) })
	}
	if c.ownSocket {
		c.sock.Close()
	}
	if c.onDetach != nil {
		c.detachOnce.Do(func() { c.onDetach(c) })
	}
	return nil
}

// Abort tears the connection down immediately without any wire traffic —
// no FIN, no drain. The serve engine uses it to evict a zombie connection
// whose peer address has been taken over by a new dialer: FINing the old
// connection would spray packets at the new one.
func (c *Conn) Abort() { c.abortWith(trace.ReasonAborted) }

// AbortWith is Abort recording an explicit close reason (one of the
// trace.Reason* close constants), so the cause an acceptor observed — e.g.
// a resumed successor superseding this connection — surfaces through Err
// and the trace stream.
func (c *Conn) AbortWith(reason string) { c.abortWith(reason) }

func (c *Conn) abortWith(reason string) {
	c.mu.Lock()
	c.m.AbortWith(reason)
	c.mu.Unlock()
	c.closeOnce.Do(func() { close(c.closed) })
	if c.ownSocket {
		c.sock.Close()
	}
	if c.onDetach != nil {
		c.detachOnce.Do(func() { c.onDetach(c) })
	}
}

// Closed reports whether the connection has shut down.
func (c *Conn) Closed() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

// Handshaked reports whether the handshake has completed. It never takes
// the connection lock, so it is safe from contexts that already hold it —
// the serve engine's anti-amplification gate calls it from inside the
// machine's Emit path.
func (c *Conn) Handshaked() bool {
	select {
	case <-c.established:
		return true
	default:
		return false
	}
}
