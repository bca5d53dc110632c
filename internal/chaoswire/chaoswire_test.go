package chaoswire

import (
	"math/rand/v2"
	"net"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/trace"
)

// newLaneProxy builds a Proxy shell with seeded lanes but no sockets, for
// exercising the fault pipeline directly.
func newLaneProxy(seed uint64, f Faults) *Proxy {
	if f.MaxDelay <= 0 {
		f.MaxDelay = time.Millisecond
	}
	p := &Proxy{epoch: time.Now()}
	p.up.rng = rand.New(rand.NewPCG(seed, 0x75))
	p.up.cfg = f
	p.down.rng = rand.New(rand.NewPCG(seed, 0xd0))
	p.down.cfg = f
	return p
}

// run feeds n synthetic datagrams through the up lane and returns the
// stats once every delayed datagram has been released.
func runLane(p *Proxy, n int) Stats {
	buf := make([]byte, 64)
	for i := 0; i < n; i++ {
		for j := range buf {
			buf[j] = byte(i + j)
		}
		p.process(&p.up, buf, func([]byte) {})
	}
	// Delay releases are AfterFunc-driven; every one was scheduled above, so
	// once none is outstanding the counters are final.
	deadline := time.Now().Add(2 * time.Second)
	for p.delayed.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return p.Stats()
}

// TestDeterministicLanes: the same seed must produce the identical fault
// pattern; a different seed must not.
func TestDeterministicLanes(t *testing.T) {
	f := Faults{Drop: 0.1, Dup: 0.1, Reorder: 0.1, Corrupt: 0.1, Truncate: 0.1, Delay: 0.1}
	a := runLane(newLaneProxy(7, f), 2000)
	b := runLane(newLaneProxy(7, f), 2000)
	if a != b {
		t.Fatalf("same seed diverged:\n  a=%+v\n  b=%+v", a, b)
	}
	if a.Drops == 0 || a.Dups == 0 || a.Reorders == 0 || a.Corrupts == 0 || a.Truncates == 0 || a.Delays == 0 {
		t.Fatalf("some fault kind never fired over 2000 datagrams: %+v", a)
	}
	c := runLane(newLaneProxy(8, f), 2000)
	if a == c {
		t.Fatalf("different seeds produced identical stats (suspicious): %+v", a)
	}
}

// TestBlackholeSwallowsEverything: during a blackhole nothing is forwarded.
func TestBlackholeSwallowsEverything(t *testing.T) {
	p := newLaneProxy(1, Faults{})
	p.Blackhole(time.Hour)
	sent := 0
	for i := 0; i < 50; i++ {
		p.process(&p.up, []byte("x"), func([]byte) { sent++ })
	}
	if sent != 0 {
		t.Fatalf("blackhole leaked %d datagrams", sent)
	}
	if got := p.Stats().Blackholed; got != 50 {
		t.Fatalf("Blackholed = %d, want 50", got)
	}
}

// TestProxyRelaysOverSockets: a clean proxy (no faults) relays both
// directions between a real client and a UDP echo server.
func TestProxyRelaysOverSockets(t *testing.T) {
	echo, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	go func() {
		buf := make([]byte, 2048)
		for {
			n, a, err := echo.ReadFromUDP(buf)
			if err != nil {
				return
			}
			echo.WriteToUDP(buf[:n], a) //iqlint:ignore errdrop -- test echo responder, best effort
		}
	}()

	p, err := New(echo.LocalAddr().String(), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	cli, err := net.Dial("udp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.SetDeadline(time.Now().Add(5 * time.Second)) //iqlint:ignore errdrop -- test socket, deadline best effort
	if _, err := cli.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := cli.Read(buf)
	if err != nil {
		t.Fatalf("echo through proxy: %v", err)
	}
	if string(buf[:n]) != "ping" {
		t.Fatalf("echoed %q, want %q", buf[:n], "ping")
	}

	// Rebind gives the relay a fresh upstream source address; traffic keeps
	// flowing.
	if err := p.Rebind(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if n, err = cli.Read(buf); err != nil || string(buf[:n]) != "pong" {
		t.Fatalf("echo after rebind: %q, %v", buf[:n], err)
	}
	if got := p.Stats().Rebinds; got != 1 {
		t.Fatalf("Rebinds = %d, want 1", got)
	}
}

// TestFaultTracing: injected faults surface as FaultInjected events with a
// registered Reason.
func TestFaultTracing(t *testing.T) {
	var got []trace.Event
	tr := traceFunc(func(ev trace.Event) { got = append(got, ev) })
	p := newLaneProxy(1, Faults{Drop: 1})
	p.cfg.Tracer = tr
	p.process(&p.up, []byte("abcdef"), func([]byte) { t.Fatal("dropped datagram was forwarded") })
	if len(got) != 1 {
		t.Fatalf("traced %d events, want 1", len(got))
	}
	if got[0].Type != trace.FaultInjected || got[0].Reason != trace.ReasonDrop || got[0].Size != 6 {
		t.Fatalf("bad event: %+v", got[0])
	}
	allowed := map[string]bool{}
	for _, r := range trace.Reasons() {
		allowed[r] = true
	}
	if !allowed[got[0].Reason] {
		t.Fatalf("fault reason %q is not in the registered vocabulary", got[0].Reason)
	}
}

type traceFunc func(trace.Event)

func (f traceFunc) Trace(ev trace.Event) { f(ev) }
