package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/stats"
	"github.com/cercs/iqrudp/internal/udpwire"
	"github.com/cercs/iqrudp/internal/uio"
)

// The many-connection throughput benchmark behind `make bench-server`,
// gated on BENCH_SERVER_JSON so ordinary test runs skip it: a shards ×
// GOMAXPROCS × conns matrix over the serve engine, each cell recording
// sustained delivered msgs/sec, latency percentiles, wire bytes per
// connection and timing-wheel arms/sec, plus one cell with segmentation
// offload forced off so the GSO/GRO delta is visible in the same document.
//
// The same loopback workload drives every cell: N concurrent dialers
// sending marked, timestamped messages under backpressure.

// benchCell is one matrix point: the workload shape plus what it measured.
type benchCell struct {
	GOMAXPROCS      int     `json:"gomaxprocs"`
	Shards          int     `json:"shards"`
	Conns           int     `json:"conns"`
	Offload         bool    `json:"offload"` // engine-side GSO/GRO enabled (and kernel-supported)
	MsgsPerSec      float64 `json:"msgs_per_sec"`
	P50Ms           float64 `json:"p50_ms"`
	P99Ms           float64 `json:"p99_ms"`
	BytesPerConn    float64 `json:"bytes_per_conn"`     // wire bytes (rx+tx) per connection over the window
	TimerArmsPerSec float64 `json:"timer_arms_per_sec"` // timing-wheel (re)arms/sec across shards
}

type benchReport struct {
	MsgBytes    int         `json:"msg_bytes"`
	WindowSec   float64     `json:"window_sec"`
	HostCPUs    int         `json:"host_cpus"`
	Offload     uio.Offload `json:"offload"` // kernel capability probe
	Matrix      []benchCell `json:"matrix"`
	GeneratedAt string      `json:"generated_at"`
	Note        string      `json:"note,omitempty"`
}

func TestServerEngineBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_SERVER_JSON")
	if path == "" {
		t.Skip("set BENCH_SERVER_JSON=<output path> to run the engine benchmark")
	}
	const (
		conns    = 200
		msgBytes = 256
		warmup   = 500 * time.Millisecond
		window   = 2 * time.Second
	)
	rep := benchReport{
		MsgBytes:    msgBytes,
		WindowSec:   window.Seconds(),
		HostCPUs:    runtime.NumCPU(),
		Offload:     uio.ProbeOffload(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}

	// The matrix: scale shards with GOMAXPROCS, hold the workload fixed
	// where possible, and include a no-offload twin of one cell so the
	// GSO/GRO delta shows in the same run. GOMAXPROCS above the physical
	// core count measures scheduling behavior only — host_cpus tells the
	// reader how many cells had real parallelism available.
	type point struct {
		procs, shards, conns int
		noOffload            bool
	}
	points := []point{
		{procs: 1, shards: 1, conns: 64},
		{procs: 1, shards: 2, conns: conns},
		{procs: 1, shards: 2, conns: conns, noOffload: true},
		{procs: 2, shards: 2, conns: conns},
		{procs: 4, shards: 4, conns: conns},
	}
	off := rep.Offload
	for _, pt := range points {
		prev := runtime.GOMAXPROCS(pt.procs)
		cell := benchEngine(t, pt.conns, msgBytes, warmup, window, Options{
			Shards: pt.shards, Backlog: pt.conns + 16,
			DrainTimeout: time.Second, NoOffload: pt.noOffload,
		})
		runtime.GOMAXPROCS(prev)
		cell.GOMAXPROCS = pt.procs
		cell.Shards = pt.shards
		cell.Conns = pt.conns
		cell.Offload = !pt.noOffload && (off.GSO || off.GRO)
		rep.Matrix = append(rep.Matrix, cell)
		t.Logf("cell p%d s%d c%d offload=%v: %.0f msgs/s p99 %.2fms %.0f B/conn %.0f arms/s",
			pt.procs, pt.shards, pt.conns, cell.Offload,
			cell.MsgsPerSec, cell.P99Ms, cell.BytesPerConn, cell.TimerArmsPerSec)
	}

	if runtime.NumCPU() == 1 {
		rep.Note = "single-CPU host: the in-process load generator shares the core " +
			"with the engine, so delivered msgs/sec is CPU-bound in every cell and " +
			"GOMAXPROCS>1 rows measure scheduling, not parallel speedup; the " +
			"offload=false twin isolates the GSO/GRO syscall-batching delta"
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("-> %s", path)
}

// benchEngine measures the engine's sustained delivered msgs/sec, latency
// percentiles, wire bytes per connection and timer arms/sec.
func benchEngine(t *testing.T, conns, msgBytes int, warmup, window time.Duration, opt Options) benchCell {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", testConfig(), opt)
	if err != nil {
		t.Fatalf("serve.Listen: %v", err)
	}
	defer srv.Close()
	addr := srv.Addr().String()

	var (
		delivered atomic.Uint64
		latMu     sync.Mutex
		lat       stats.Sample
		measuring atomic.Bool
		acceptMu  sync.Mutex
		accepted  []*udpwire.Conn
	)
	go func() {
		for {
			c, err := srv.Accept(0)
			if err != nil {
				return
			}
			acceptMu.Lock()
			accepted = append(accepted, c)
			acceptMu.Unlock()
			go func(c *udpwire.Conn) {
				for {
					msg, err := c.Recv(0)
					if err != nil {
						return
					}
					if !measuring.Load() {
						continue
					}
					delivered.Add(1)
					if len(msg.Data) >= 8 {
						sent := int64(binary.BigEndian.Uint64(msg.Data))
						latMu.Lock()
						lat.Add(float64(time.Now().UnixNano()-sent) / 1e6)
						latMu.Unlock()
					}
				}
			}(c)
		}
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var dialFailures atomic.Uint64
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Stagger the handshake burst: connection setup is not what we
			// measure.
			time.Sleep(time.Duration(i) * 2 * time.Millisecond)
			var c *udpwire.Conn
			for attempt := 0; attempt < 5; attempt++ {
				var err error
				c, err = udpwire.Dial(addr, testConfig(), 10*time.Second)
				if err == nil {
					break
				}
				c = nil
				time.Sleep(50 * time.Millisecond)
			}
			if c == nil {
				dialFailures.Add(1)
				return
			}
			// Abortive teardown: the measurement window is over by then,
			// and 200 graceful FIN exchanges against a torn-down peer would
			// serialise minutes of linger.
			defer c.Abort()
			payload := make([]byte, msgBytes)
			for {
				select {
				case <-stop:
					return
				default:
				}
				binary.BigEndian.PutUint64(payload, uint64(time.Now().UnixNano()))
				if err := c.Send(payload, true); err != nil {
					return
				}
				// Backpressure bounds the client-side queue; the threshold
				// sets how hard the offered load leans on the server.
				for c.QueuedPackets() > benchBackpressure() {
					select {
					case <-stop:
						return
					default:
						time.Sleep(200 * time.Microsecond)
					}
				}
			}
		}(i)
	}

	time.Sleep(warmup)
	statsBefore := srv.Stats()
	measuring.Store(true)
	before := delivered.Load()
	time.Sleep(window)
	count := delivered.Load() - before
	measuring.Store(false)
	statsAfter := srv.Stats()
	close(stop)
	wg.Wait()
	acceptMu.Lock()
	for _, c := range accepted {
		c.Abort()
	}
	acceptMu.Unlock()

	if n := dialFailures.Load(); n > 0 {
		t.Logf("%d/%d dials failed", n, conns)
	}
	cell := benchCell{MsgsPerSec: float64(count) / window.Seconds()}
	latMu.Lock()
	if lat.N() > 0 {
		cell.P50Ms = lat.Quantile(0.5)
		cell.P99Ms = lat.Quantile(0.99)
	}
	latMu.Unlock()

	var bytes, arms uint64
	for i, ss := range statsAfter.Shards {
		bytes += ss.RxBytes + ss.TxBytes
		arms += ss.TimerArms
		if i < len(statsBefore.Shards) {
			prev := statsBefore.Shards[i]
			bytes -= prev.RxBytes + prev.TxBytes
			arms -= prev.TimerArms
		}
	}
	if live := conns - int(dialFailures.Load()); live > 0 {
		cell.BytesPerConn = float64(bytes) / float64(live)
	}
	cell.TimerArmsPerSec = float64(arms) / window.Seconds()
	return cell
}

// benchBackpressure is the client-side queue bound (BENCH_BACKPRESSURE
// overrides; default 512 packets).
func benchBackpressure() int { return benchEnvInt("BENCH_BACKPRESSURE", 512) }

func benchEnvInt(key string, def int) int {
	if v := os.Getenv(key); v != "" {
		var n int
		if _, err := fmt.Sscanf(v, "%d", &n); err == nil && n > 0 {
			return n
		}
	}
	return def
}
