package hist

import (
	"sync/atomic"
	"time"
)

// The histogram metric names form a closed vocabulary, like the trace
// Reason*/Kind* constants: the Prometheus series name, the expvar key, the
// flight-record summary name and the introspection JSON all match by exact
// string, so a misspelled name silently forks the series. Each name is
// declared once here as a Metric* constant; the tracekeys analyzer
// (internal/analysis/tracekeys) harvests this set and rejects raw string
// literals at use sites.
const (
	// MetricRTT is the per-sample round-trip time (core, sender side).
	MetricRTT = "rtt_seconds"
	// MetricDelivery is send→deliver latency of marked messages (core,
	// receiver side; sender timestamp, so meaningful when clocks agree —
	// exact under the simulator, skew-bounded over real sockets).
	MetricDelivery = "delivery_latency_seconds"
	// MetricAckDelay is the send→acknowledgement delay per packet (core,
	// sender side; single clock, includes retransmission waits).
	MetricAckDelay = "ack_delay_seconds"
	// MetricBacklog is the send-backlog depth sampled at each SendMsg
	// (core, sender side; packets queued but not yet transmitted).
	MetricBacklog = "send_backlog_packets"
	// MetricRxBatch is the datagrams-per-batched-read distribution
	// (serve, per shard).
	MetricRxBatch = "rx_batch_size"
	// MetricDispatch is the decode+route latency of one receive batch
	// (serve, per shard).
	MetricDispatch = "dispatch_latency_seconds"
	// MetricFecRepair is the hole-open→reconstruction latency of packets
	// recovered by the FEC repair layer (core, receiver side; single clock:
	// measured from the repair group's first out-of-order arrival).
	MetricFecRepair = "fec_repair_latency_seconds"
	// MetricWheelLateness is how far past its deadline each timing-wheel
	// callback was dispatched (serve, per shard; bounded by ~2 wheel ticks
	// plus scheduler noise when healthy).
	MetricWheelLateness = "wheel_lateness_seconds"
)

// Metrics lists every registered histogram metric name.
func Metrics() []string {
	return []string{
		MetricRTT,
		MetricDelivery,
		MetricAckDelay,
		MetricBacklog,
		MetricRxBatch,
		MetricDispatch,
		MetricFecRepair,
		MetricWheelLateness,
	}
}

// Standard maximums. Latencies saturate at one minute (anything beyond is
// a pathology the overflow bucket records); depth/batch maxima comfortably
// exceed the transport's configured ceilings.
const (
	maxLatency = uint64(time.Minute)
	maxDepth   = 1 << 20
	maxBatch   = 1 << 12
)

// LatencyBuckets and DepthBuckets are the counters a standard latency or
// depth histogram holds, for owners that allocate the counters together
// with their histograms (see InitLatency).
const (
	LatencyBuckets = 271 // buckets(maxLatency)
	DepthBuckets   = 146 // buckets(maxDepth)
)

// InitLatency makes h, the zero Hist, the histogram NewLatency(name)
// returns, recording into counts[:LatencyBuckets]; it returns the rest of
// counts.
func (h *Hist) InitLatency(name string, counts []atomic.Uint64) []atomic.Uint64 {
	return h.init(name, Seconds, maxLatency, counts)
}

// InitDepth is InitLatency for NewDepth, taking DepthBuckets counters.
func (h *Hist) InitDepth(name string, counts []atomic.Uint64) []atomic.Uint64 {
	return h.init(name, Count, maxDepth, counts)
}

// NewLatency returns a Seconds histogram for one of the latency metrics.
func NewLatency(name string) *Hist { return New(name, Seconds, maxLatency) }

// NewDepth returns a Count histogram for queue-depth metrics.
func NewDepth(name string) *Hist { return New(name, Count, maxDepth) }

// NewBatch returns a Count histogram for batch-size metrics.
func NewBatch(name string) *Hist { return New(name, Count, maxBatch) }
