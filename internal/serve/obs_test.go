package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/hist"
	"github.com/cercs/iqrudp/internal/trace"
	"github.com/cercs/iqrudp/internal/udpwire"
)

// TestServeObservability exercises the engine's whole observability path:
// per-connection histograms feed HistSnapshots, an abnormally-killed
// connection leaves a retained flight record, and Introspect assembles a
// JSON-serialisable document reflecting both.
func TestServeObservability(t *testing.T) {
	srv := startServer(t, Options{Shards: 2, DrainTimeout: 2 * time.Second})

	cc, err := udpwire.Dial(srv.Addr().String(), testConfig(), 5*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cc.Close()
	sc, err := srv.Accept(5 * time.Second)
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}

	if err := cc.Send([]byte("ping"), true); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, err := sc.Recv(5 * time.Second); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if err := sc.Send([]byte("pong"), true); err != nil {
		t.Fatalf("server Send: %v", err)
	}
	if _, err := cc.Recv(5 * time.Second); err != nil {
		t.Fatalf("client Recv: %v", err)
	}

	// Accepted connections get their own histogram set by default.
	if sc.Hists() == nil {
		t.Fatal("accepted conn has no histograms")
	}
	snaps := srv.HistSnapshots()
	byName := map[string]hist.Snapshot{}
	for _, s := range snaps {
		byName[s.Name] = s
	}
	if s, ok := byName[hist.MetricRxBatch]; !ok || s.Count == 0 {
		t.Fatalf("no rx-batch samples: %+v", byName)
	}
	if s, ok := byName[hist.MetricDispatch]; !ok || s.Count == 0 {
		t.Fatalf("no dispatch samples: %+v", byName)
	}
	if s, ok := byName[hist.MetricDelivery]; !ok || s.Count == 0 {
		t.Fatalf("no delivery samples (marked msg was delivered): %+v", byName)
	}

	doc := srv.Introspect()
	if doc.ConnsTotal != 1 || len(doc.Conns) != 1 {
		t.Fatalf("introspection conns: %+v", doc)
	}
	if doc.Conns[0].State != "established" || doc.Conns[0].Peer == "" {
		t.Fatalf("introspection conn entry: %+v", doc.Conns[0])
	}
	if len(doc.Shards) != 2 {
		t.Fatalf("introspection shards: %+v", doc.Shards)
	}

	// Kill the server-side connection abnormally; detach must archive its
	// histograms and retain the flight record.
	sc.AbortWith(trace.ReasonPeerDead)
	deadline := time.Now().Add(5 * time.Second)
	for {
		rs, total := srv.FlightRecords()
		if total == 1 && len(rs) == 1 {
			rec := rs[0]
			if rec.CloseReason != trace.ReasonPeerDead {
				t.Fatalf("flight record reason = %q", rec.CloseReason)
			}
			if rec.Peer == "" || len(rec.Events) == 0 {
				t.Fatalf("flight record incomplete: peer=%q events=%d", rec.Peer, len(rec.Events))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight record never retained: total=%d", total)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The dead connection's samples must survive in the archive.
	byName = map[string]hist.Snapshot{}
	for _, s := range srv.HistSnapshots() {
		byName[s.Name] = s
	}
	if s, ok := byName[hist.MetricDelivery]; !ok || s.Count == 0 {
		t.Fatal("archived delivery samples lost after detach")
	}

	doc = srv.Introspect()
	if doc.FlightTotal != 1 || len(doc.FlightRecords) != 1 {
		t.Fatalf("introspection flight records: total=%d len=%d", doc.FlightTotal, len(doc.FlightRecords))
	}
	if _, err := json.Marshal(doc); err != nil {
		t.Fatalf("introspection not JSON-serialisable: %v", err)
	}
}

// TestObservabilityDisabled checks the -1 opt-outs: no per-conn hists, no
// flight records, no shard histograms.
func TestObservabilityDisabled(t *testing.T) {
	srv := startServer(t, Options{
		Shards: 1, DrainTimeout: 2 * time.Second,
		FlightEvents: -1,
	})
	cc, err := udpwire.Dial(srv.Addr().String(), testConfig(), 5*time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cc.Close()
	sc, err := srv.Accept(5 * time.Second)
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	if sc.Hists() != nil {
		t.Fatal("histograms allocated despite FlightEvents=-1")
	}
	if snaps := srv.HistSnapshots(); len(snaps) != 0 {
		t.Fatalf("unexpected histogram sources: %+v", snaps)
	}
	sc.AbortWith(trace.ReasonPeerDead)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Conns() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if rs, total := srv.FlightRecords(); total != 0 || len(rs) != 0 {
		t.Fatalf("flight record retained despite disable: total=%d", total)
	}
}

// TestFlightRecordLRU bounds retention: with the cap lowered to 2, killing
// three connections keeps the two newest records but counts all three.
func TestFlightRecordLRU(t *testing.T) {
	srv := startServer(t, Options{Shards: 1, DrainTimeout: 2 * time.Second})
	srv.obsMu.Lock()
	srv.flightCap = 2
	srv.obsMu.Unlock()
	var ids []uint32
	for i := 0; i < 3; i++ {
		cc, err := udpwire.Dial(srv.Addr().String(), testConfig(), 5*time.Second)
		if err != nil {
			t.Fatalf("Dial %d: %v", i, err)
		}
		defer cc.Close()
		sc, err := srv.Accept(5 * time.Second)
		if err != nil {
			t.Fatalf("Accept %d: %v", i, err)
		}
		// Round-trip once so the handshake is fully established.
		if err := cc.Send([]byte("x"), true); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		if _, err := sc.Recv(5 * time.Second); err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		ids = append(ids, sc.ID())
		sc.AbortWith(trace.ReasonPeerDead)
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if _, total := srv.FlightRecords(); total == uint64(i+1) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	rs, total := srv.FlightRecords()
	if total != 3 || len(rs) != 2 {
		t.Fatalf("retention: total=%d len=%d, want 3/2", total, len(rs))
	}
	if rs[0].ConnID != ids[1] || rs[1].ConnID != ids[2] {
		t.Fatalf("retained %d,%d; want newest two %d,%d", rs[0].ConnID, rs[1].ConnID, ids[1], ids[2])
	}
}

// TestHistSnapshotsWhileConnsClose scrapes HistSnapshots in a loop while
// connections cycle, so closes fold into the archive during scrapes. Every
// snapshot a scrape returns must be self-consistent — its bucket counts sum
// to its Count — and under -race the scrape must not read archive counters
// a concurrent close is writing.
func TestHistSnapshotsWhileConnsClose(t *testing.T) {
	srv := startServer(t, Options{Shards: 1, DrainTimeout: time.Second})
	go func() {
		for {
			c, err := srv.Accept(0)
			if err != nil {
				return
			}
			go func() {
				for {
					if _, err := c.Recv(0); err != nil {
						break
					}
				}
				c.Close()
			}()
		}
	}()
	stop := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		var err error
		for n := 0; ; n++ {
			select {
			case <-stop:
				if n == 0 {
					err = errors.New("no scrape ran")
				}
				scraped <- err
				return
			default:
			}
			for _, s := range srv.HistSnapshots() {
				var sum uint64
				for _, c := range s.Counts {
					sum += c
				}
				if sum != s.Count && err == nil {
					err = fmt.Errorf("%s: buckets sum to %d, Count %d", s.Name, sum, s.Count)
				}
			}
		}
	}()
	addr, cfg := srv.Addr().String(), testConfig()
	for i := 0; i < 40; i++ {
		c, err := udpwire.Dial(addr, cfg, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send([]byte("ping"), true); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	for i := 0; srv.Conns() > 0 && i < 500; i++ {
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
}
