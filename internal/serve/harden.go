package serve

import (
	"errors"
	"net"
	"sync/atomic"
	"time"

	"github.com/cercs/iqrudp/internal/packet"
	"github.com/cercs/iqrudp/internal/trace"
	"github.com/cercs/iqrudp/internal/udpwire"
	"github.com/cercs/iqrudp/internal/uio"
)

// Hostile-network survivability: the serve-engine half of the guard
// package's toolkit (DESIGN.md §18). Three mechanisms cooperate here:
//
//   - cookieMode decides when handshakes must present an address-validation
//     cookie; acceptSyn (shard.go) answers cookie-less SYNs statelessly
//     with RETRY via sendRetry, so a spoofed flood allocates nothing.
//   - ampGate bounds bytes toward a peer that was admitted without a
//     cookie (light load): until its handshake completes — which proves
//     return routability against the random ISN — the engine sends it at
//     most three times the bytes received from it, QUIC's 3x rule.
//   - connOverhead charges admissions to the governor's ledger so
//     connection count participates in the brownout ladder alongside the
//     byte classes the machines account themselves.

// connOverhead approximates one admitted connection's fixed footprint —
// machine, congestion/RTT state, maps, timers, socket bookkeeping — charged
// to guard.ClassConn at admission and released at detach.
const connOverhead = 32 << 10

// errAmpCapped reports a transmission suppressed by the anti-amplification
// gate; it surfaces through the machine's NoteTxError accounting.
var errAmpCapped = errors.New("serve: anti-amplification budget exhausted")

// ampGate enforces the 3x anti-amplification limit for one not-yet-
// validated peer. It sits in the connection's transmit path, which runs
// under the connection lock — so everything here is lock-free: credit from
// the rx path, debit from the tx path, a one-way validated latch.
type ampGate struct {
	conn      atomic.Pointer[udpwire.Conn]
	validated atomic.Bool
	budget    atomic.Int64 // bytes the engine may still send pre-validation
}

// credit grants 3x the received bytes, called from the rx path on every
// datagram attributed to this peer.
func (g *ampGate) credit(n int) { g.budget.Add(3 * int64(n)) }

// promote latches the gate open once the peer's handshake has completed
// (the final leg proved return routability), reporting whether it is open.
func (g *ampGate) promote() bool {
	if g.validated.Load() {
		return true
	}
	if c := g.conn.Load(); c != nil && c.Handshaked() {
		g.validated.Store(true)
		return true
	}
	return false
}

// gatedSendTo wraps the shard's transmit hook with g's budget: packets to a
// not-yet-validated peer beyond 3x the bytes it has sent are suppressed and
// counted. connID only labels the trace event.
func (sh *shard) gatedSendTo(g *ampGate, connID uint32) func([]byte, *net.UDPAddr) error {
	srv := sh.srv
	io := sh.io
	return func(b []byte, raddr *net.UDPAddr) error {
		if !g.promote() {
			if g.budget.Add(-int64(len(b))) < 0 {
				g.budget.Add(int64(len(b))) // restore; nothing was sent
				srv.ampCapped.Add(1)
				if srv.cfg.Tracer != nil {
					srv.cfg.Tracer.Trace(trace.Event{
						Type: trace.AmpCapped, ConnID: connID, Size: len(b),
					})
				}
				return errAmpCapped
			}
		}
		return io.sendTo(b, raddr)
	}
}

// rateMeter counts events in coarse one-second windows — cheap enough for
// the SYN path, accurate enough for a load trigger.
type rateMeter struct {
	windowStart atomic.Int64 // window start, unix nanoseconds
	count       atomic.Int64
}

// tick records one event and returns the running count in the current
// window (≈ events in the last second).
func (rm *rateMeter) tick(now time.Time) int64 {
	ns := now.UnixNano()
	ws := rm.windowStart.Load()
	if ns-ws >= int64(time.Second) {
		if rm.windowStart.CompareAndSwap(ws, ns) {
			rm.count.Store(0)
		}
	}
	return rm.count.Add(1)
}

// cookieMode reports whether handshakes must currently present a valid
// address-validation cookie: always when configured, otherwise under load —
// a SYN rate above the threshold, an accept backlog past half capacity, or
// any governor brownout.
func (srv *Server) cookieMode(synRate int64) bool {
	if srv.opt.AlwaysValidate {
		return true
	}
	if synRate > synRateLimit {
		return true
	}
	if len(srv.accept) > srv.opt.Backlog/2 {
		return true
	}
	return srv.gov.Level() >= 1
}

// sendRetry answers a SYN statelessly with a RETRY challenge carrying a
// fresh cookie over (source address, proposed ConnID). No connection state
// is created; the initiator echoes the cookie in its next SYN (the machine
// handles this transparently, costing legitimate dialers one round trip).
// A RETRY is the 14-byte fixed header, the cookie and the checksum (39
// bytes), and route answers no SYN smaller than packet.MinSynSize (40), so
// the reflected amplitude stays below 1x — well under the 3x budget — by
// construction. TestRetryAmplification pins the ratio.
//
//iqlint:borrow
func (sh *shard) sendRetry(p *packet.Packet, raddr *net.UDPAddr, reason string) {
	srv := sh.srv
	cookie := srv.cookies.Mint(raddr, p.ConnID, time.Now())
	b, err := packet.Encode(&packet.Packet{
		Type:    packet.RETRY,
		ConnID:  p.ConnID,
		Payload: cookie,
	})
	if err == nil {
		_ = sh.io.enqueueTx(uio.Msg{B: b, Addr: raddr})
	}
	srv.retrySent.Add(1)
	if srv.cfg.Tracer != nil {
		srv.cfg.Tracer.Trace(trace.Event{
			Type: trace.RetrySent, ConnID: p.ConnID, Size: len(cookie), Reason: reason,
		})
	}
}
