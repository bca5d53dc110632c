package udpwire_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/trace"
	"github.com/cercs/iqrudp/internal/udpwire"
)

// The driver invokes the Tracer from the reader goroutine and from timer
// goroutines; one sink may additionally be shared by both directions of a
// loopback pair. This test drives that worst case with every shipped sink
// attached at once — it is the repository's race-detector smoke for the
// observability path (see the Makefile's race-smoke target).
func TestTracedLoopbackAllSinks(t *testing.T) {
	ring := trace.NewRing(1024)
	counters := trace.NewCounters()
	var buf bytes.Buffer // JSONL serialises internally; shared Writer is fine
	jl := trace.NewJSONL(&buf)
	tracer := trace.Multi(ring, jl, counters)

	cfg := core.DefaultConfig()
	cfg.Tracer = tracer
	_, cli, srv := pair(t, cfg, cfg)

	const n = 100
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			cli.Send(make([]byte, 600), i%2 == 0)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			srv.Send(make([]byte, 600), true)
		}
	}()
	recv := func(c *udpwire.Conn) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if _, err := c.Recv(5 * time.Second); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
		}
	}
	wg.Add(2)
	go recv(cli)
	go recv(srv)
	wg.Wait()

	if counters.Count(trace.PacketSent) < 2*n {
		t.Fatalf("counters saw %d sends, want at least %d", counters.Count(trace.PacketSent), 2*n)
	}
	if ring.Total() == 0 {
		t.Fatal("ring captured nothing")
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Timers keep tracing between Close and the counter read, so the
	// counters may run ahead of the flushed JSONL — never behind it.
	if uint64(len(events)) < 2*n || uint64(len(events)) > counters.Total() {
		t.Fatalf("JSONL has %d events, counters saw %d", len(events), counters.Total())
	}
	// Both endpoints of one connection share its negotiated id, so the
	// merged stream must agree on a single ConnID.
	conns := map[uint32]bool{}
	for _, ev := range events {
		conns[ev.ConnID] = true
	}
	if len(conns) != 1 {
		t.Fatalf("trace covers %d connection ids, want the one shared id", len(conns))
	}
}
