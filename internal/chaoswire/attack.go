package chaoswire

import (
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cercs/iqrudp/internal/attr"
	"github.com/cercs/iqrudp/internal/packet"
)

// This file is chaoswire's hostile half: where Proxy models a *faulty*
// network (loss, reorder, corruption), Attacker models a *malicious* one —
// spoofed-source SYN floods, cookie replay and malformed-datagram blasts
// aimed straight at a serve engine. Loopback stands in for address spoofing:
// each attack source binds its own 127.x.y.1 address in a distinct /24, so
// the engine sees traffic from many unrelated prefixes without raw sockets.

// AttackKind selects the traffic pattern an Attacker generates.
type AttackKind int

const (
	// SynFlood blasts cookie-less SYNs with pseudorandom ConnIDs from every
	// source. Against a validating engine none of them may allocate state.
	SynFlood AttackKind = iota
	// CookieReplay first obtains one genuine RETRY cookie, then replays it
	// from every source under foreign ConnIDs — a stolen token must be
	// worthless off its minted (address, ConnID) binding.
	CookieReplay
	// Garbage sends undecodable datagrams: random bytes, truncated and
	// bit-flipped headers. Exercises the decode path's rejection, not the
	// handshake.
	Garbage
)

// String names the attack kind as iqload's -attack flag spells it.
func (k AttackKind) String() string {
	switch k {
	case SynFlood:
		return "synflood"
	case CookieReplay:
		return "replay"
	case Garbage:
		return "garbage"
	}
	return "unknown"
}

// ParseAttackKind maps an -attack flag value to its AttackKind.
func ParseAttackKind(s string) (AttackKind, error) {
	switch s {
	case "synflood":
		return SynFlood, nil
	case "replay":
		return CookieReplay, nil
	case "garbage":
		return Garbage, nil
	}
	return 0, fmt.Errorf("chaoswire: unknown attack kind %q (want synflood, replay or garbage)", s)
}

// AttackConfig parameterises an Attacker.
type AttackConfig struct {
	Kind AttackKind

	// Rate is the aggregate datagram rate across all sources (default
	// 10000/s), split evenly among them.
	Rate int

	// Sources is how many distinct loopback source addresses (each in its
	// own /24) the attack fires from (default 8).
	Sources int

	// Seed drives the PRNG behind ConnIDs, payload sizes and garbage bytes;
	// 0 picks a fixed default so runs are reproducible.
	Seed uint64
}

// AttackStats is what the attack observed — enough for a test (or iqload's
// summary table) to check the engine's side of the amplification ledger
// without asking the engine.
type AttackStats struct {
	Sent      uint64 // attack datagrams sent
	SentBytes uint64 // attack bytes sent
	Rcvd      uint64 // response datagrams received across attack sources
	RcvdBytes uint64 // response bytes received across attack sources
}

// Attacker generates one attack traffic pattern against a server address.
// Every source socket also drains and counts responses, so RcvdBytes is the
// engine's total reflected volume toward the attacker.
type Attacker struct {
	cfg    AttackConfig
	dst    *net.UDPAddr
	socks  []*net.UDPConn
	cookie []byte // CookieReplay: the genuine cookie being replayed

	sent      atomic.Uint64
	sentBytes atomic.Uint64
	rcvd      atomic.Uint64
	rcvdBytes atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewAttacker binds the attack sources and, for CookieReplay, performs the
// one legitimate RETRY round trip that yields the cookie to replay. The
// attack does not fire until Start.
func NewAttacker(dst string, cfg AttackConfig) (*Attacker, error) {
	ua, err := net.ResolveUDPAddr("udp", dst)
	if err != nil {
		return nil, err
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 10000
	}
	if cfg.Sources <= 0 {
		cfg.Sources = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x1abacc
	}
	a := &Attacker{cfg: cfg, dst: ua, stop: make(chan struct{})}
	for i := 0; i < cfg.Sources; i++ {
		// One source per /24: 127.1.<i>.1. The engine's per-prefix SYN
		// limiter sees unrelated prefixes, as a distributed flood would
		// present.
		laddr := &net.UDPAddr{IP: net.IPv4(127, 1, byte(i), 1)}
		sock, err := net.ListenUDP("udp", laddr)
		if err != nil {
			a.Close()
			return nil, fmt.Errorf("chaoswire: bind attack source %v: %w", laddr.IP, err)
		}
		a.socks = append(a.socks, sock)
	}
	if cfg.Kind == CookieReplay {
		if a.cookie, err = a.fetchCookie(); err != nil {
			a.Close()
			return nil, err
		}
	}
	return a, nil
}

// fetchCookie performs the honest half of a replay attack: one SYN from the
// first source, answered by RETRY, yields a cookie minted for that source.
func (a *Attacker) fetchCookie() ([]byte, error) {
	sock := a.socks[0]
	syn := forgeSyn(0x5EED, 1, nil)
	b, err := packet.Encode(&syn)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 2048)
	for try := 0; try < 5; try++ {
		if _, err := sock.WriteToUDP(b, a.dst); err != nil {
			return nil, err
		}
		if err := sock.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			return nil, err
		}
		n, _, err := sock.ReadFromUDP(buf)
		if err != nil {
			continue
		}
		p, err := packet.Decode(buf[:n])
		if err != nil || p.Type != packet.RETRY || len(p.Payload) == 0 {
			continue
		}
		return append([]byte(nil), p.Payload...), nil
	}
	return nil, fmt.Errorf("chaoswire: no RETRY cookie after 5 tries (is the server validating?)")
}

// Start launches the attack: one sender and one response-draining reader
// per source. Stop ends it and returns the stats.
func (a *Attacker) Start() {
	perSource := a.cfg.Rate / len(a.socks)
	if perSource <= 0 {
		perSource = 1
	}
	for i, sock := range a.socks {
		a.wg.Add(2)
		go a.sendLoop(i, sock, perSource)
		go a.drainLoop(sock)
	}
}

// sendLoop paces one source at rate datagrams/s against the wall clock —
// each wakeup sends however many datagrams the elapsed time calls for, so
// sleep overshoot is made up rather than accumulated as rate shortfall.
func (a *Attacker) sendLoop(idx int, sock *net.UDPConn, rate int) {
	defer a.wg.Done()
	rng := rand.New(rand.NewPCG(a.cfg.Seed, uint64(idx)))
	buf := make([]byte, 0, 2048)
	start := time.Now()
	var sent int64
	for {
		select {
		case <-a.stop:
			return
		default:
		}
		target := int64(time.Since(start).Seconds() * float64(rate))
		for ; sent < target; sent++ {
			buf = a.forge(buf[:0], rng)
			n, err := sock.WriteToUDP(buf, a.dst)
			if err != nil {
				return // socket closed by Stop
			}
			a.sent.Add(1)
			a.sentBytes.Add(uint64(n))
		}
		time.Sleep(time.Millisecond)
	}
}

// synAttrs is the handshake attribute block a dialer's SYN carries; shared
// read-only by every forged SYN.
var synAttrs = attr.NewList(attr.Attr{Name: attr.LossTolerance, Value: attr.Float(0)})

// forgeSyn builds a SYN shaped like a dialer's — ack block and handshake
// attributes — so it clears the engine's packet.MinSynSize floor and costs
// the attacker what a legitimate SYN costs.
func forgeSyn(connID, seq uint32, payload []byte) packet.Packet {
	return packet.Packet{
		Type: packet.SYN, Flags: packet.FlagAck, ConnID: connID, Seq: seq, Wnd: 64,
		Attrs: synAttrs, Payload: payload,
	}
}

// forge builds one attack datagram into b.
func (a *Attacker) forge(b []byte, rng *rand.Rand) []byte {
	switch a.cfg.Kind {
	case SynFlood:
		p := forgeSyn(rng.Uint32()|1, rng.Uint32(), nil) // nonzero ConnID
		b, _ = packet.AppendEncode(b, &p)
		return b
	case CookieReplay:
		// A foreign ConnID: off the cookie's binding.
		p := forgeSyn(rng.Uint32()|1, rng.Uint32(), packet.AppendCookieBlock(nil, a.cookie))
		b, _ = packet.AppendEncode(b, &p)
		return b
	default: // Garbage
		n := rng.IntN(256)
		for len(b) < n {
			b = append(b, byte(rng.Uint32()))
		}
		return b
	}
}

// drainLoop reads and counts whatever the engine sends back at one source,
// so the attack's view of reflected volume is complete.
func (a *Attacker) drainLoop(sock *net.UDPConn) {
	defer a.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, _, err := sock.ReadFromUDP(buf)
		if err != nil {
			return // socket closed by Stop
		}
		a.rcvd.Add(1)
		a.rcvdBytes.Add(uint64(n))
	}
}

// Stop halts the attack, closes every source and returns the final stats.
func (a *Attacker) Stop() AttackStats {
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	a.Close()
	a.wg.Wait()
	return a.Stats()
}

// Stats snapshots the attack counters; valid during and after the attack.
func (a *Attacker) Stats() AttackStats {
	return AttackStats{
		Sent:      a.sent.Load(),
		SentBytes: a.sentBytes.Load(),
		Rcvd:      a.rcvd.Load(),
		RcvdBytes: a.rcvdBytes.Load(),
	}
}

// Close releases the attack sources without waiting for loops to notice.
func (a *Attacker) Close() {
	for _, s := range a.socks {
		s.Close()
	}
}
