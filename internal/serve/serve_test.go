package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/core"
	"github.com/cercs/iqrudp/internal/udpwire"
)

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.MSS = 1200
	return cfg
}

// startServer spins up an engine on loopback and cleans it up with the test.
func startServer(t *testing.T, opt Options) *Server {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", testConfig(), opt)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestServeRoundTrip(t *testing.T) {
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
		t.Fatalf("client Send: %v", err)
	}
	msg, err := sc.Recv(5 * time.Second)
	if err != nil {
		t.Fatalf("server Recv: %v", err)
	}
	if string(msg.Data) != "ping" || !msg.Marked {
		t.Fatalf("server got %q marked=%v", msg.Data, msg.Marked)
	}

	if err := sc.Send([]byte("pong"), true); err != nil {
		t.Fatalf("server Send: %v", err)
	}
	msg, err = cc.Recv(5 * time.Second)
	if err != nil {
		t.Fatalf("client Recv: %v", err)
	}
	if string(msg.Data) != "pong" {
		t.Fatalf("client got %q", msg.Data)
	}

	st := srv.Stats()
	if st.Accepted != 1 || st.Conns != 1 {
		t.Fatalf("stats = %+v, want 1 accepted / 1 live", st)
	}
	var rx uint64
	for _, sh := range st.Shards {
		rx += sh.RxPackets
	}
	if rx == 0 {
		t.Fatalf("no shard recorded received packets: %+v", st.Shards)
	}
}

func TestServeManyConns(t *testing.T) {
	const conns, msgsPer = 20, 5
	srv := startServer(t, Options{Shards: 4, Backlog: conns, DrainTimeout: 2 * time.Second})

	// Echo server: every accepted conn's messages bounce back.
	go func() {
		for {
			c, err := srv.Accept(0)
			if err != nil {
				return
			}
			go func(c *udpwire.Conn) {
				for {
					msg, err := c.Recv(0)
					if err != nil {
						return
					}
					c.Send(msg.Data, msg.Marked)
				}
			}(c)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cc, err := udpwire.Dial(srv.Addr().String(), testConfig(), 10*time.Second)
			if err != nil {
				errs <- fmt.Errorf("conn %d dial: %w", i, err)
				return
			}
			defer cc.Close()
			for j := 0; j < msgsPer; j++ {
				want := fmt.Sprintf("conn %d msg %d", i, j)
				if err := cc.Send([]byte(want), true); err != nil {
					errs <- fmt.Errorf("conn %d send: %w", i, err)
					return
				}
				msg, err := cc.Recv(10 * time.Second)
				if err != nil {
					errs <- fmt.Errorf("conn %d recv: %w", i, err)
					return
				}
				if string(msg.Data) != want {
					errs <- fmt.Errorf("conn %d got %q want %q", i, msg.Data, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := srv.Stats().Accepted; got != conns {
		t.Fatalf("accepted = %d, want %d", got, conns)
	}
}

func TestServeGauges(t *testing.T) {
	srv := startServer(t, Options{Shards: 2})
	g := srv.Gauges()
	for _, name := range []string{
		"serve.conns", "serve.accepted", "serve.refused",
		"serve.migrations", "serve.shard.rx_batch",
		"serve.shard0.rx_batch", "serve.shard1.rx_packets",
	} {
		fn, ok := g[name]
		if !ok {
			t.Fatalf("missing gauge %q", name)
		}
		fn() // must not panic on a fresh engine
	}
}

func TestOptionsSanitize(t *testing.T) {
	var o Options
	o.sanitize()
	if o.Shards < 1 || o.Backlog != 128 || o.DrainTimeout != 5*time.Second ||
		o.FlightEvents != 64 || o.MemLimit != 256<<20 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	o = Options{Shards: 1000, FlightEvents: -1, MemLimit: -1}
	o.sanitize()
	if o.Shards != 64 || o.FlightEvents != 0 || o.MemLimit != 0 {
		t.Fatalf("clamps not applied: %+v", o)
	}
}
