// Package chaoswire is a deterministic fault-injecting UDP middlebox for
// exercising IQ-RUDP's survivability machinery. A Proxy sits between one
// dialer and a server, forwarding datagrams in both directions while a
// seeded PRNG lane per direction decides, packet by packet, whether to
// drop, duplicate, reorder, corrupt, truncate or delay it. On top of the
// probabilistic lanes sit two scripted faults: a timed Blackhole that
// swallows everything (long enough ones trip the transport's dead-interval
// detector and force a Resume), and Rebind, which swaps the upstream
// socket so the server suddenly sees the same connection from a new source
// address — a NAT rebind, exercising the serve engine's migration path.
//
// Determinism: every probabilistic decision comes from rand/v2 PCG streams
// derived from Config.Seed, one per direction, consumed in packet-arrival
// order. For a single-connection exchange over loss-free loopback the fault
// pattern is reproducible run to run; under real concurrency arrival order
// — and therefore which packet a fault lands on — may shift, but the fault
// *rates* and the seeded decision sequence do not. Tests pin Seed and
// assert invariants (marked data delivered, typed close reasons, no leaks)
// rather than exact packet fates.
//
// Every injected fault is counted (Stats) and, when a Tracer is configured,
// emitted as a trace.FaultInjected event whose Reason names the fault and
// whose ConnID is parsed best-effort from the datagram header — the same
// stream the protocol machines trace into, so one JSONL file interleaves
// protocol decisions with the faults that provoked them (cmd/iqstat
// understands both).
package chaoswire

import (
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/trace"
)

// Faults is one direction's fault probabilities. All are per-datagram and
// mutually exclusive (a single roll selects at most one), so their sum must
// stay at or below 1.
type Faults struct {
	Drop     float64 // swallow the datagram
	Dup      float64 // forward it twice
	Reorder  float64 // hold it until the next datagram has passed
	Corrupt  float64 // flip one payload byte (CRC catches it at the receiver)
	Truncate float64 // forward a prefix only (decode fails at the receiver)
	Delay    float64 // forward after a random pause up to MaxDelay

	// MaxDelay bounds the Delay fault's pause (default 30ms).
	MaxDelay time.Duration
}

// sum returns the total fault probability.
func (f Faults) sum() float64 {
	return f.Drop + f.Dup + f.Reorder + f.Corrupt + f.Truncate + f.Delay
}

// Config parameterises a Proxy.
type Config struct {
	// Seed drives every probabilistic decision. The same seed and packet
	// arrival order reproduce the same fault pattern.
	Seed uint64

	// Up faults apply to client→server datagrams, Down to server→client.
	Up, Down Faults

	// Latency, when positive, delays every forwarded datagram by this much
	// in each direction — a base one-way path latency underneath the fault
	// lanes, so loss-recovery mechanisms race a realistic round trip
	// instead of a loopback one. Deferring faults (Reorder, Delay) stack on
	// top of it.
	Latency time.Duration

	// Tracer, when non-nil, receives a FaultInjected event per fault.
	Tracer trace.Tracer
}

// Stats counts the proxy's activity. Forwarded counts datagrams actually
// written onward (duplicates count twice, delayed packets once on release).
type Stats struct {
	Forwarded  uint64
	Drops      uint64
	Dups       uint64
	Reorders   uint64
	Corrupts   uint64
	Truncates  uint64
	Delays     uint64
	Blackholed uint64
	Rebinds    uint64
}

// lane is one direction's seeded fault stream plus reorder hold slot.
type lane struct {
	mu   sync.Mutex
	rng  *rand.Rand
	cfg  Faults
	held []byte // reorder hold: released after the next datagram passes
}

// Proxy is the middlebox. One client dials Addr; the proxy relays to the
// target from a connected upstream socket (swapped by Rebind).
type Proxy struct {
	front  *net.UDPConn // client-facing socket
	target *net.UDPAddr
	cfg    Config
	epoch  time.Time

	up, down lane

	mu       sync.Mutex
	client   *net.UDPAddr // last client source address (set by first datagram)
	upstream *net.UDPConn // current upstream socket; swapped on Rebind
	closed   bool

	blackholeUntil atomic.Int64 // unixnano; 0 = clear

	forwarded  atomic.Uint64
	drops      atomic.Uint64
	dups       atomic.Uint64
	reorders   atomic.Uint64
	corrupts   atomic.Uint64
	truncates  atomic.Uint64
	delays     atomic.Uint64
	blackholed atomic.Uint64
	rebinds    atomic.Uint64

	delayed atomic.Int64 // delay-fault datagrams scheduled but not yet released
}

// New starts a proxy relaying to target ("host:port"). Clients dial
// p.Addr() instead of the target.
func New(target string, cfg Config) (*Proxy, error) {
	ta, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return nil, err
	}
	front, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	up, err := net.DialUDP("udp", nil, ta)
	if err != nil {
		front.Close()
		return nil, err
	}
	if cfg.Up.MaxDelay <= 0 {
		cfg.Up.MaxDelay = 30 * time.Millisecond
	}
	if cfg.Down.MaxDelay <= 0 {
		cfg.Down.MaxDelay = 30 * time.Millisecond
	}
	p := &Proxy{
		front:    front,
		target:   ta,
		cfg:      cfg,
		epoch:    time.Now(),
		upstream: up,
	}
	// Distinct PCG streams per direction: decisions in one direction never
	// perturb the other's sequence.
	p.up.rng = rand.New(rand.NewPCG(cfg.Seed, 0x75))
	p.up.cfg = cfg.Up
	p.down.rng = rand.New(rand.NewPCG(cfg.Seed, 0xd0))
	p.down.cfg = cfg.Down
	go p.frontLoop()
	go p.upstreamLoop(up)
	return p, nil
}

// Addr returns the client-facing address ("127.0.0.1:port") to dial.
func (p *Proxy) Addr() string { return p.front.LocalAddr().String() }

// Blackhole swallows every datagram in both directions for d — long enough
// ones outlast the transport's DeadInterval and force a resume.
func (p *Proxy) Blackhole(d time.Duration) {
	p.blackholeUntil.Store(time.Now().Add(d).UnixNano())
	p.traceFault(trace.ReasonBlackhole, nil)
}

// blackholed reports whether a scripted blackhole is in force.
func (p *Proxy) inBlackhole() bool {
	u := p.blackholeUntil.Load()
	return u != 0 && time.Now().UnixNano() < u
}

// Rebind swaps the upstream socket for a fresh one: the server sees the
// connection's subsequent packets from a new source address, like a NAT
// dropping and re-establishing its binding.
func (p *Proxy) Rebind() error {
	na, err := net.DialUDP("udp", nil, p.target)
	if err != nil {
		return err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		na.Close()
		return net.ErrClosed
	}
	old := p.upstream
	p.upstream = na
	p.mu.Unlock()
	old.Close() // its upstreamLoop exits on the read error
	go p.upstreamLoop(na)
	p.rebinds.Add(1)
	p.traceFault(trace.ReasonRebind, nil)
	return nil
}

// Stats snapshots the fault counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Forwarded:  p.forwarded.Load(),
		Drops:      p.drops.Load(),
		Dups:       p.dups.Load(),
		Reorders:   p.reorders.Load(),
		Corrupts:   p.corrupts.Load(),
		Truncates:  p.truncates.Load(),
		Delays:     p.delays.Load(),
		Blackholed: p.blackholed.Load(),
		Rebinds:    p.rebinds.Load(),
	}
}

// Close tears both sockets down.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	up := p.upstream
	p.mu.Unlock()
	p.front.Close()
	return up.Close()
}

// frontLoop relays client→server.
func (p *Proxy) frontLoop() {
	buf := make([]byte, 65536)
	for {
		n, ca, err := p.front.ReadFromUDP(buf)
		if err != nil {
			return
		}
		p.mu.Lock()
		p.client = ca
		p.mu.Unlock()
		p.process(&p.up, buf[:n], p.sendUp)
	}
}

// upstreamLoop relays server→client for one upstream-socket generation;
// Rebind closes the socket, ending the loop.
func (p *Proxy) upstreamLoop(sock *net.UDPConn) {
	buf := make([]byte, 65536)
	for {
		n, err := sock.Read(buf)
		if err != nil {
			return
		}
		p.process(&p.down, buf[:n], p.sendDown)
	}
}

// sendUp writes one datagram toward the server via the current upstream
// socket (post-Rebind packets leave from the new source address).
func (p *Proxy) sendUp(b []byte) {
	p.mu.Lock()
	sock := p.upstream
	closed := p.closed
	p.mu.Unlock()
	if !closed {
		// Best effort: the middlebox is itself a lossy network element, and
		// the transports under test treat any loss here as wire loss.
		_, _ = sock.Write(b) //iqlint:ignore errdrop -- fault injector: a failed relay write IS the fault
	}
}

// sendDown writes one datagram toward the client.
func (p *Proxy) sendDown(b []byte) {
	p.mu.Lock()
	client := p.client
	closed := p.closed
	p.mu.Unlock()
	if client != nil && !closed {
		_, _ = p.front.WriteToUDP(b, client) //iqlint:ignore errdrop -- fault injector: a failed relay write IS the fault
	}
}

// process applies the lane's fault decision to one datagram and forwards
// the survivors via send. b is only valid for the duration of the call —
// faults that defer transmission (reorder, delay) copy it.
func (p *Proxy) process(l *lane, b []byte, send func([]byte)) {
	if p.inBlackhole() {
		p.blackholed.Add(1)
		p.traceFault(trace.ReasonBlackhole, b)
		return
	}
	if lat := p.cfg.Latency; lat > 0 {
		// Emulated path latency: every transmit defers by the base one-way
		// delay. The deferred write needs its own copy (b is lent only for
		// this call), and the post-Close guard in the underlying send keeps
		// late timers harmless.
		inner := send
		send = func(d []byte) {
			cp := append([]byte(nil), d...)
			time.AfterFunc(lat, func() { inner(cp) })
		}
	}

	l.mu.Lock()
	roll := l.rng.Float64()
	c := l.cfg
	var release []byte // reorder hold to flush after this datagram
	fault := ""
	var delay time.Duration
	// Cumulative probability bands; a band whose side-condition fails
	// (reorder while already holding, corrupt/truncate on a degenerate
	// datagram) forwards the packet clean rather than leaking the roll
	// into the next band.
	d1 := c.Drop
	d2 := d1 + c.Dup
	d3 := d2 + c.Reorder
	d4 := d3 + c.Corrupt
	d5 := d4 + c.Truncate
	d6 := d5 + c.Delay
	switch {
	case roll < d1:
		fault = trace.ReasonDrop
	case roll < d2:
		fault = trace.ReasonDup
	case roll < d3:
		if l.held == nil {
			fault = trace.ReasonReorder
			l.held = append([]byte(nil), b...)
		}
	case roll < d4:
		if len(b) > 0 {
			fault = trace.ReasonCorrupt
		}
	case roll < d5:
		if len(b) > 1 {
			fault = trace.ReasonTruncate
		}
	case roll < d6:
		fault = trace.ReasonDelay
		delay = time.Duration(1 + l.rng.Int64N(int64(c.MaxDelay)))
	}
	if fault != trace.ReasonReorder && l.held != nil {
		release = l.held
		l.held = nil
	}
	if fault == trace.ReasonCorrupt {
		// Flip one byte in place: the datagram CRC catches it downstream.
		i := l.rng.IntN(len(b))
		b[i] ^= 0xff
	}
	if fault == trace.ReasonTruncate {
		b = b[:1+l.rng.IntN(len(b)-1)]
	}
	l.mu.Unlock()

	switch fault {
	case trace.ReasonDrop:
		p.drops.Add(1)
		p.traceFault(fault, b)
	case trace.ReasonDup:
		p.dups.Add(1)
		p.traceFault(fault, b)
		send(b)
		send(b)
		p.forwarded.Add(2)
	case trace.ReasonReorder:
		p.reorders.Add(1)
		p.traceFault(fault, b)
		// Held; forwarded when the next datagram passes.
	case trace.ReasonDelay:
		p.delays.Add(1)
		p.traceFault(fault, b)
		cp := append([]byte(nil), b...)
		p.delayed.Add(1)
		time.AfterFunc(delay, func() {
			send(cp)
			p.forwarded.Add(1)
			p.delayed.Add(-1)
		})
	default:
		if fault != "" { // corrupt / truncate: forward the damaged datagram
			switch fault {
			case trace.ReasonCorrupt:
				p.corrupts.Add(1)
			case trace.ReasonTruncate:
				p.truncates.Add(1)
			}
			p.traceFault(fault, b)
		}
		send(b)
		p.forwarded.Add(1)
	}
	if release != nil {
		send(release)
		p.forwarded.Add(1)
	}
}

// traceFault emits a FaultInjected event; b (may be nil for scripted
// faults) supplies Size and, when the header parses, the ConnID.
func (p *Proxy) traceFault(reason string, b []byte) {
	if p.cfg.Tracer == nil {
		return
	}
	ev := trace.Event{
		Time:   time.Since(p.epoch),
		Type:   trace.FaultInjected,
		Size:   len(b),
		Reason: reason,
	}
	if id, ok := packet.PeekConnID(b); ok {
		ev.ConnID = id
	}
	p.cfg.Tracer.Trace(ev)
}
