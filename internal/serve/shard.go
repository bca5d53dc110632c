package serve

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cercs/iqrudp/internal/guard"
	"github.com/cercs/iqrudp/internal/hist"
	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/trace"
	"github.com/cercs/iqrudp/internal/udpwire"
	"github.com/cercs/iqrudp/internal/uio"
	"github.com/cercs/iqrudp/internal/wheel"
)

// shard owns one slice of the connection table: every connection whose
// ConnID mod Shards equals idx lives here. On Linux each shard also owns a
// SO_REUSEPORT socket with its own read and transmit loops; in the portable
// fallback all shards delegate I/O to the socket-owning shard via io.
type shard struct {
	srv  *Server
	idx  int
	sock *net.UDPConn
	io   *shard // shard running the loops for sock (itself when socket-owning)

	// wh drives every timer of every connection homed on this shard: one
	// timing-wheel goroutine per shard instead of a runtime timer per arm,
	// so timer dispatch (and the machine work it triggers) stays
	// shard-local. Closed by Server.Close after the drain completes.
	wh *wheel.Wheel

	mu     sync.RWMutex
	byID   map[uint32]connEntry
	byAddr map[netip.AddrPort]uint32 // source address -> ConnID, for SYN-time collision checks

	// rstBucket caps outbound RST refusals so a spoofed flood cannot turn
	// the engine into a reflector; suppressed refusals are still counted.
	rstBucket *guard.TokenBucket

	// Transmit path (socket-owning shards): enqueueTx copies each datagram
	// into a buffer from txFree and queues it on txq; txLoop sends batches
	// and returns the buffers to txFree. txDone is closed when txLoop exits,
	// releasing any enqueuer still waiting for queue space.
	txq    chan uio.Msg
	txDone chan struct{}
	txMu   sync.Mutex
	txFree [][]byte // at most cap(txq) + ioBatch idle buffers; guarded by txMu

	rxPackets atomic.Uint64
	rxBatches atomic.Uint64
	rxErrors  atomic.Uint64
	rxBytes   atomic.Uint64
	txPackets atomic.Uint64
	txBatches atomic.Uint64
	txBytes   atomic.Uint64
	txDrops   atomic.Uint64

	// Distribution metrics (nil when Options.FlightEvents disables
	// observability): datagrams per batched read, decode+route latency of
	// one batch, and how late the shard's wheel dispatches its timers.
	// Only socket-owning shards record rx metrics; every shard's wheel
	// records lateness.
	rxBatchH   *hist.Hist
	dispatchH  *hist.Hist
	wheelLateH *hist.Hist
}

// connEntry is one row of a shard's ConnID table: the connection, the peer
// address it is keyed under in byAddr (compared against every datagram's
// source without taking the connection's lock), and its anti-amplification
// gate while the peer is unvalidated — admitted without a cookie and not yet
// through its handshake; route credits the gate per datagram and clears it
// once the handshake proves return routability.
type connEntry struct {
	c    *udpwire.Conn
	peer netip.AddrPort
	gate *ampGate
}

// homeShard routes a ConnID to its owning shard.
func (srv *Server) homeShard(id uint32) *shard {
	return srv.shards[int(id)%len(srv.shards)]
}

// readLoop pulls batches of datagrams off the socket, cuts each batch into
// receive runs (see runLen) and routes every run to its ConnID's home
// shard. Buffers come from rb's pool; packet.DecodeInto copies the payload
// out, so the batch's buffers are released as soon as every datagram has
// been parsed and routed. One pooled Packet is recycled across all
// datagrams: routeRun — and the machine under it — only borrows the packet
// for the duration of the call (see the Env.Emit / Machine.HandlePacket
// ownership contract in core).
func (sh *shard) readLoop(rb *uio.RxBatcher) {
	p := packet.Get()
	defer packet.Put(p)
	for {
		msgs, err := rb.Recv()
		if err != nil {
			return // socket closed
		}
		if len(msgs) == 0 {
			continue
		}
		sh.rxBatches.Add(1)
		sh.rxPackets.Add(uint64(len(msgs)))
		var bytes uint64
		for _, m := range msgs {
			bytes += uint64(len(m.B))
		}
		sh.rxBytes.Add(bytes)
		var began time.Time
		if sh.rxBatchH != nil {
			sh.rxBatchH.Record(int64(len(msgs)))
			began = time.Now()
		}
		for i := 0; i < len(msgs); {
			run := msgs[i : i+runLen(msgs[i:])]
			id, _ := packet.PeekConnID(run[0].B)
			if bad := sh.srv.homeShard(id).routeRun(id, run, p); bad > 0 {
				sh.rxErrors.Add(uint64(bad))
			}
			i += len(run)
		}
		if sh.dispatchH != nil {
			sh.dispatchH.RecordDur(time.Since(began))
		}
		rb.Release(msgs)
	}
}

// runLen returns how many leading datagrams of msgs form one receive run:
// consecutive datagrams from one source carrying one ConnID, none of them a
// SYN. A SYN, or a datagram too short to carry a header, is a run of one.
// The header fields are peeked unverified; a datagram whose checksum fails
// is counted when its run is decoded.
func runLen(msgs []uio.Msg) int {
	id, _ := packet.PeekConnID(msgs[0].B)
	if typ, ok := packet.PeekType(msgs[0].B); !ok || typ == packet.SYN {
		return 1
	}
	n := 1
	for ; n < len(msgs) && msgs[n].AddrPort == msgs[0].AddrPort; n++ {
		next, _ := packet.PeekConnID(msgs[n].B)
		if typ, ok := packet.PeekType(msgs[n].B); !ok || typ == packet.SYN || next != id {
			break
		}
	}
	return n
}

// routeRun applies one receive run (see runLen) for ConnID id on its home
// shard and returns how many of its datagrams failed to decode. A run for a known
// connection takes one table lookup: its datagrams credit the connection's
// anti-amplification gate one by one, a new source migrates the
// connection, and the whole run is applied under one Conn.mu section, so
// its in-order data is acknowledged once. SYNs and datagrams for unknown
// ConnIDs are decoded and demultiplexed one at a time by route.
//
//iqlint:borrow
func (sh *shard) routeRun(id uint32, run []uio.Msg, p *packet.Packet) (bad int) {
	sh.mu.RLock()
	e, ok := sh.byID[id]
	sh.mu.RUnlock()
	if typ, _ := packet.PeekType(run[0].B); !ok || typ == packet.SYN {
		for _, m := range run {
			if err := packet.DecodeInto(p, m.B, p.Payload); err != nil {
				bad++
				continue
			}
			sh.route(p, m.AddrPort)
		}
		return bad
	}
	if g := e.gate; g != nil {
		for _, m := range run {
			g.credit(len(m.B))
		}
		sh.promoteGate(id, g)
	}
	if from := run[0].AddrPort; e.peer != from {
		sh.migrate(id, e.c, from)
	}
	return e.c.HandleRun(run, p)
}

// promoteGate drops connection id's anti-amplification gate from the table
// once the peer's handshake has completed and the gate latched open.
func (sh *shard) promoteGate(id uint32, g *ampGate) {
	if !g.promote() {
		return
	}
	sh.mu.Lock()
	if cur, ok := sh.byID[id]; ok && cur.gate == g {
		cur.gate = nil
		sh.byID[id] = cur
	}
	sh.mu.Unlock()
}

// route applies the demux rules to one inbound packet on its home shard.
//
//iqlint:borrow
func (sh *shard) route(p *packet.Packet, from netip.AddrPort) {
	sh.mu.RLock()
	e, ok := sh.byID[p.ConnID]
	sh.mu.RUnlock()

	if g := e.gate; g != nil {
		// Every datagram from the unvalidated peer buys it 3x response
		// budget.
		g.credit(p.WireSize())
		sh.promoteGate(p.ConnID, g)
	}

	if ok {
		if e.peer != from {
			if p.Type == packet.SYN {
				// Another host picked an in-use ConnID: refuse the newcomer
				// rather than hijack the established connection.
				sh.refuse(p, from)
				return
			}
			sh.migrate(p.ConnID, e.c, from)
		}
		e.c.HandleIncoming(p)
		return
	}

	if p.Type != packet.SYN {
		sh.srv.stray.Add(1)
		return
	}
	sh.acceptSyn(p, from)
}

// migrate rebinds an established connection to a new peer address (NAT
// rebind / source-port change) and reaps the stale address entry. The
// connection's peer changes under the table lock, so the table and the
// connection agree even when two read loops see the move at once.
func (sh *shard) migrate(id uint32, c *udpwire.Conn, to netip.AddrPort) {
	sh.mu.Lock()
	e, ok := sh.byID[id]
	if !ok || e.c != c || e.peer == to {
		sh.mu.Unlock()
		return // closed meanwhile, or already moved by another read loop
	}
	if cur, ok := sh.byAddr[e.peer]; ok && cur == id {
		delete(sh.byAddr, e.peer)
	}
	e.peer = to
	sh.byID[id] = e
	sh.byAddr[to] = id
	c.SetPeer(net.UDPAddrFromAddrPort(to))
	sh.mu.Unlock()
	sh.srv.migrations.Add(1)
}

// acceptSyn admits a new connection, applying stateless address validation
// (cookie challenge under load), per-prefix SYN rate limits, governor
// brownouts, address-key fallback (a SYN has no established ConnID entry
// yet), validated zombie eviction, backpressure and the drain gate.
//
//iqlint:borrow
func (sh *shard) acceptSyn(p *packet.Packet, from netip.AddrPort) {
	srv := sh.srv
	if srv.draining() {
		sh.refuse(p, from)
		return
	}

	now := time.Now()
	// The cookie, the prefix limiter and the new connection take the
	// source as a *net.UDPAddr: one allocation per SYN, none per datagram.
	raddr := net.UDPAddrFromAddrPort(from)

	// Peel the optional cookie block off the SYN payload and verify it
	// against the rotating secret. A cookie binds (source address, proposed
	// ConnID), so a valid one proves this 4-tuple completed a RETRY round
	// trip — the peer owns its source address.
	cookie, rest := packet.SplitSynPayload(p.Payload)
	cookieOK := cookie != nil && srv.cookies.Verify(cookie, raddr, p.ConnID, now)
	if cookie != nil && !cookieOK {
		srv.cookieRejects.Add(1)
	}

	// Decide whether this SYN must present a cookie: global load triggers
	// (cookieMode) or its source prefix exceeding the per-prefix budget.
	// Cookie-holders skip the prefix limiter — their cookie already cost a
	// round trip, so they cannot be minted faster than line rate anyway —
	// which keeps legitimate clients reachable from a flooded /24.
	synRate := srv.synMeter.tick(now)
	needCookie := srv.cookieMode(synRate)
	if !cookieOK && !srv.synLimiter.Allow(raddr.IP, now) {
		srv.synLimited.Add(1)
		needCookie = true
	}

	// Resume: a SYN whose payload carries a resume token names a dead
	// predecessor connection (see packet.ParseResumeToken). The predecessor
	// usually dialed from a different source address (NAT rebind, restart),
	// so the address-key fallback below cannot find it — the token can.
	// Eviction is destructive, so it demands a validated source address:
	// an unvalidated token is answered with RETRY instead, never evicting.
	// Once validated, evict abortively and immediately: waiting out the
	// dead interval would leave a zombie holding buffers, and FINing it
	// would spray packets at an address that may now belong to someone else.
	if prevID, ok := packet.ParseResumeToken(rest); ok && prevID != p.ConnID {
		if !cookieOK {
			srv.evictDenied.Add(1)
			sh.sendRetry(p, raddr, trace.ReasonEvictDenied)
			return
		}
		home := srv.homeShard(prevID)
		home.mu.RLock()
		old := home.byID[prevID].c
		home.mu.RUnlock()
		if old != nil {
			old.AbortWith(trace.ReasonResumed)
		}
		srv.resumes.Add(1)
		if srv.cfg.Tracer != nil {
			srv.cfg.Tracer.Trace(trace.Event{
				Type:   trace.ConnResumed,
				ConnID: p.ConnID,
				Seq:    prevID,
			})
		}
	}

	// Stateless challenge: under load a cookie-less (or stale-cookied) SYN
	// is answered with RETRY and forgotten — no machine, no map entry, no
	// timer. The flood pays for our secret-keyed MAC; we hold nothing.
	if needCookie && !cookieOK {
		reason := ""
		if cookie != nil {
			reason = trace.ReasonBadCookie
		}
		sh.sendRetry(p, raddr, reason)
		return
	}

	// Deepest brownout: the ledger says memory is nearly gone, so stop
	// admitting entirely until established connections release buffers.
	if srv.gov.Level() >= 3 {
		sh.refuse(p, from)
		return
	}

	// Address-key fallback: if this source address already hosts a different
	// connection, the client restarted from the same port — its predecessor
	// is a zombie. Eviction again demands a validated source: a spoofer who
	// guesses an active 4-tuple must not be able to knock it down with one
	// forged SYN. Evict abortively (no FIN: the address now belongs to the
	// new connection) before admitting the successor.
	sh.mu.Lock()
	if oldID, ok := sh.byAddr[from]; ok && oldID != p.ConnID {
		if !cookieOK {
			sh.mu.Unlock()
			srv.evictDenied.Add(1)
			sh.sendRetry(p, raddr, trace.ReasonEvictDenied)
			return
		}
		if zombie, ok := sh.byID[oldID]; ok {
			delete(sh.byID, oldID)
			delete(sh.byAddr, from)
			sh.mu.Unlock()
			zombie.c.Abort()
			sh.mu.Lock()
		}
	}
	if _, ok := sh.byID[p.ConnID]; ok {
		// Raced with another packet admitting the same ConnID.
		sh.mu.Unlock()
		sh.route(p, from)
		return
	}

	io := sh.io
	send := io.sendTo
	var g *ampGate
	if !cookieOK {
		// Admitted without address validation (light load): cap bytes
		// toward this peer at 3x bytes received until its handshake
		// completes. The admitting SYN itself is the first credit.
		g = &ampGate{}
		g.credit(p.WireSize())
		send = sh.gatedSendTo(g, p.ConnID)
	}
	c := udpwire.NewAccepted(sh.wh, srv.connConfig(), io.sock.LocalAddr(), raddr,
		send, sh.detach)
	if g != nil {
		g.conn.Store(c)
	}
	sh.byID[p.ConnID] = connEntry{c: c, peer: from, gate: g}
	sh.byAddr[from] = p.ConnID
	sh.mu.Unlock()

	select {
	case sh.srv.accept <- c:
		srv.accepted.Add(1)
		srv.ledger.Add(guard.ClassConn, connOverhead)
		c.HandleIncoming(p)
	default:
		// Accept queue full: refuse with RST so the client fails fast
		// instead of retrying into a black hole.
		sh.mu.Lock()
		if cur, ok := sh.byID[p.ConnID]; ok && cur.c == c {
			delete(sh.byID, p.ConnID)
		}
		if id, ok := sh.byAddr[from]; ok && id == p.ConnID {
			delete(sh.byAddr, from)
		}
		sh.mu.Unlock()
		c.Abort()
		sh.refuse(p, from)
	}
}

// refuse sends an RST answering packet p to its source and counts the
// refusal.
//
//iqlint:borrow
func (sh *shard) refuse(p *packet.Packet, to netip.AddrPort) {
	sh.srv.refused.Add(1)
	if sh.rstBucket != nil && !sh.rstBucket.Allow(time.Now()) {
		// RST emission is rate-capped per shard so a spoofed flood cannot
		// use the engine as a reflector; the refusal is still counted above
		// and the suppression surfaced through Stats.
		sh.srv.rstSuppressed.Add(1)
		return
	}
	rst := &packet.Packet{
		Type:   packet.RST,
		ConnID: p.ConnID,
		Seq:    p.Ack,
		Ack:    p.Seq + 1,
	}
	if b, err := packet.Encode(rst); err == nil {
		// Best effort: a dropped RST just means the client times out instead
		// of failing fast, and the refusal itself is already counted.
		_ = sh.io.enqueueTx(uio.Msg{B: b, AddrPort: to})
	}
}

// detach removes a closed connection from the demux tables and archives
// its observability state (histogram samples, flight record).
func (sh *shard) detach(c *udpwire.Conn) {
	id := c.ID()
	if id == 0 {
		return
	}
	sh.mu.Lock()
	if e, ok := sh.byID[id]; ok && e.c == c {
		delete(sh.byID, id)
		if cur, ok := sh.byAddr[e.peer]; ok && cur == id {
			delete(sh.byAddr, e.peer)
		}
	}
	sh.mu.Unlock()
	sh.srv.ledger.Sub(guard.ClassConn, connOverhead)
	sh.srv.noteClosed(c)
}

// sendTo is an accepted connection's transmit hook (see udpwire.NewAccepted).
func (sh *shard) sendTo(b []byte, peer *net.UDPAddr) error {
	return sh.enqueueTx(uio.Msg{B: b, Addr: peer})
}

// enqueueTx copies m.B into a recycled buffer and queues the datagram for
// the shard's transmit loop. It blocks while the queue is full, so nothing
// is dropped before the kernel: the protocol machine would otherwise have
// to recover a discarded ACK or FINACK by retransmission timeout. Once the
// loop has stopped (server closed, socket gone) it returns net.ErrClosed,
// which the sending machine counts as a transmit error.
func (sh *shard) enqueueTx(m uio.Msg) error {
	m.B = append(sh.txBuf(), m.B...)
	select {
	case sh.txq <- m:
		return nil
	case <-sh.txDone:
		sh.recycleTx([]uio.Msg{m})
		return net.ErrClosed
	}
}

// txBuf returns an empty datagram buffer from the freelist (nil when it is
// empty; append then allocates one of the datagram's size).
func (sh *shard) txBuf() []byte {
	sh.txMu.Lock()
	defer sh.txMu.Unlock()
	n := len(sh.txFree)
	if n == 0 {
		return nil
	}
	b := sh.txFree[n-1]
	sh.txFree[n-1] = nil
	sh.txFree = sh.txFree[:n-1]
	return b
}

// recycleTx returns the buffers of sent (or abandoned) datagrams to the
// freelist; those beyond its bound are left to the garbage collector.
func (sh *shard) recycleTx(msgs []uio.Msg) {
	sh.txMu.Lock()
	for i := range msgs {
		if len(sh.txFree) < cap(sh.txFree) {
			sh.txFree = append(sh.txFree, msgs[i].B[:0])
		}
		msgs[i] = uio.Msg{}
	}
	sh.txMu.Unlock()
}

// txLoop coalesces queued datagrams into sendmmsg batches: block for the
// first message, then drain without blocking up to the batch bound. A
// datagram the kernel refuses is counted in txDrops; only a closed socket
// (or the server closing) ends the loop.
func (sh *shard) txLoop(tb *uio.TxBatcher) {
	defer close(sh.txDone)
	batch := make([]uio.Msg, 0, ioBatch)
	for {
		batch = batch[:0]
		select {
		case m := <-sh.txq:
			batch = append(batch, m)
		case <-sh.srv.closed:
			return
		}
	drain:
		for len(batch) < cap(batch) {
			select {
			case m := <-sh.txq:
				batch = append(batch, m)
			default:
				break drain
			}
		}
		sent, err := tb.Send(batch)
		sh.txBatches.Add(1)
		sh.txPackets.Add(uint64(sent))
		var bytes uint64
		for _, m := range batch[:sent] {
			bytes += uint64(len(m.B))
		}
		sh.txBytes.Add(bytes)
		if sent < len(batch) {
			sh.txDrops.Add(uint64(len(batch) - sent))
		}
		sh.recycleTx(batch)
		if errors.Is(err, net.ErrClosed) {
			return
		}
	}
}
