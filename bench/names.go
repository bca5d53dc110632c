package main

// metric is one named number the benchmark prints. The two tables below are
// the benchmark's vocabulary: BENCHMARK.json lists exactly these names (a
// test holds the two in step), and a later change names its claim from them.
type metric struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// On lists the workloads the metric is defined on; nil means all four.
	// Elsewhere the table leaves it blank, and the one-line JSON result —
	// which must carry every name on every run — carries 0.
	On []string
}

func (m metric) on(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	lossy    = []string{"lossy_paced"}
	churn    = []string{"churn_guarded"}
	notChurn = []string{"bulk_small", "bulk_large", "lossy_paced"}
)

// endToEnd are the metrics a user of the transport sees, each defined (and
// never 0) on every workload, each with the bound a later change must hold.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "goodput_msgs_per_s", Unit: "msgs/s", Better: "higher", Bound: 0.22},
	{Name: "goodput_MBps", Unit: "MB/s", Better: "higher", Bound: 0.22},
	{Name: "cpu_us_per_msg", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_msg", Unit: "allocs", Better: "lower", Bound: 0.10},
	{Name: "wire_efficiency", Unit: "ratio", Better: "higher", Bound: 0.03},
	{Name: "sink_rss_mb", Unit: "MB", Better: "lower", Bound: 0.12},
	{Name: "delivery_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
}

// appView are the rest of what the application sees: metrics that are
// defined on some workloads only, or are 0 on a correct run, and so cannot
// be gated. They are printed with the end-to-end table.
var appView = []metric{
	{Name: "delivery_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "unmarked_delivered_ratio", Unit: "ratio", Better: "higher", On: lossy},
	{Name: "conn_cycles_per_s", Unit: "conns/s", Better: "higher", On: churn},
	{Name: "conn_setup_p50_ms", Unit: "ms", Better: "lower", On: churn},
	{Name: "failed_ops_ratio", Unit: "ratio", Better: "lower"},
}

// perLayer is BENCHMARK.json's per_layer list: appView, then each layer's
// own numbers.
var perLayer = append(append([]metric(nil), appView...), layers...)

// layers are each layer's own numbers: counters read from public stats
// during the untraced run, trace.* self times from the traced driver, loop.*
// from call loops.
var layers = []metric{
	// serve
	{Name: "serve.cpu_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "serve.allocs_per_msg", Unit: "allocs", Better: "lower"},
	{Name: "serve.cpu_busy_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "serve.rx_batch_mean", Unit: "pkts", Better: "higher"},
	{Name: "serve.tx_batch_mean", Unit: "pkts", Better: "higher"},
	{Name: "serve.tx_drops", Unit: "count", Better: "lower"},
	{Name: "serve.rx_errors", Unit: "count", Better: "lower"},
	{Name: "serve.dispatch_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.residual_us_per_msg", Unit: "us", Better: "lower", On: notChurn},
	{Name: "serve.accepted", Unit: "count", Better: "higher"},
	{Name: "serve.refused", Unit: "count", Better: "lower"},
	{Name: "serve.retry_sent", Unit: "count", Better: "lower"},
	{Name: "serve.cookie_rejects", Unit: "count", Better: "lower"},
	{Name: "serve.mem_bytes_peak", Unit: "bytes", Better: "lower"},
	{Name: "serve.accept_wait_p50_us", Unit: "us", Better: "lower", On: churn},
	{Name: "serve.timer_arms_per_msg", Unit: "count", Better: "lower"},
	{Name: "serve.timer_fires_per_msg", Unit: "count", Better: "lower"},

	// udpwire (the dialed side: this process)
	{Name: "udpwire.cpu_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "udpwire.allocs_per_msg", Unit: "allocs", Better: "lower"},
	{Name: "udpwire.tx_flushes_per_msg", Unit: "count", Better: "lower", On: notChurn},
	{Name: "udpwire.dropped_deliveries", Unit: "count", Better: "lower"},
	{Name: "udpwire.dial_p50_ms", Unit: "ms", Better: "lower", On: churn},
	{Name: "udpwire.close_p50_ms", Unit: "ms", Better: "lower", On: churn},

	// core
	{Name: "core.pkts_per_msg", Unit: "pkts", Better: "lower"},
	{Name: "core.retransmit_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.skipped_pkts", Unit: "count", Better: "lower"},
	{Name: "core.eack_clips", Unit: "count", Better: "lower"},
	{Name: "core.srtt_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cwnd_mean", Unit: "pkts", Better: "higher"},
	{Name: "core.ack_delay_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.send_backlog_p99", Unit: "pkts", Better: "lower"},
	{Name: "core.window_rescales", Unit: "count", Better: "lower"},
	{Name: "core.threshold_callbacks", Unit: "count", Better: "lower", On: lossy},
	{Name: "trace.core.send_ns_per_msg", Unit: "ns", Better: "lower", On: notChurn},
	{Name: "trace.core.handle_ns_per_pkt", Unit: "ns", Better: "lower", On: notChurn},
	{Name: "trace.core.timer_ns_per_fire", Unit: "ns", Better: "lower", On: notChurn},

	// packet
	{Name: "trace.packet.encode_ns_per_pkt", Unit: "ns", Better: "lower", On: notChurn},
	{Name: "trace.packet.decode_ns_per_pkt", Unit: "ns", Better: "lower", On: notChurn},
	{Name: "packet.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "loop.packet.ackvec_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "loop.packet.encode_allocs", Unit: "allocs", Better: "lower"},

	// uio
	{Name: "trace.uio.tx_ns_per_pkt", Unit: "ns", Better: "lower", On: notChurn},
	{Name: "trace.uio.rx_ns_per_pkt", Unit: "ns", Better: "lower", On: notChurn},
	{Name: "trace.uio.tx_batch_mean", Unit: "pkts", Better: "higher", On: notChurn},
	{Name: "loop.uio.mmsg_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "loop.uio.gso_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "uio.offload_gso", Unit: "count", Better: "higher"},
	{Name: "uio.offload_gro", Unit: "count", Better: "higher"},

	// wheel
	{Name: "wheel.lateness_p99_us", Unit: "us", Better: "lower"},
	{Name: "trace.wheel.arm_ns", Unit: "ns", Better: "lower", On: notChurn},
	{Name: "loop.wheel.arm_stop_ns", Unit: "ns", Better: "lower"},
	{Name: "loop.wheel.fire_ns", Unit: "ns", Better: "lower"},
	{Name: "loop.wheel.cascade_ns", Unit: "ns", Better: "lower"},

	// fec
	{Name: "fec.repairs_per_kpkt", Unit: "count", Better: "lower"},
	{Name: "fec.recovery_yield", Unit: "ratio", Better: "higher"},
	{Name: "fec.recovered_marked", Unit: "count", Better: "higher"},
	{Name: "fec.repair_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loop.fec.add_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "loop.fec.reconstruct_ns", Unit: "ns", Better: "lower"},

	// guard
	{Name: "loop.guard.mint_ns", Unit: "ns", Better: "lower"},
	{Name: "loop.guard.verify_ns", Unit: "ns", Better: "lower"},
	{Name: "loop.guard.ledger_add_ns", Unit: "ns", Better: "lower"},
	{Name: "loop.guard.prefix_allow_ns", Unit: "ns", Better: "lower"},

	// hist / trace
	{Name: "loop.hist.record_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.tax_ratio", Unit: "ratio", Better: "higher", On: []string{"bulk_small"}},

	// chaoswire (fixture, not a target)
	{Name: "chaos.drops", Unit: "count", Better: "lower", On: lossy},
	{Name: "chaos.forwarded", Unit: "count", Better: "higher", On: lossy},
	{Name: "chaos.drop_ratio", Unit: "ratio", Better: "lower", On: lossy},

	// the generator itself (validity of the run)
	{Name: "gen.lateness_p99_ms", Unit: "ms", Better: "lower", On: lossy},
	{Name: "gen.cpu_share", Unit: "ratio", Better: "lower"},

	// tracing
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.span_count", Unit: "count", Better: "higher"},
	{Name: "trace.server_us_per_msg", Unit: "us", Better: "lower", On: notChurn},
}
