package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/cercs/iqrudp/bench/loops"
	"github.com/cercs/iqrudp/bench/measure"
	"github.com/cercs/iqrudp/bench/tracedrv"
)

// values maps metric names to what a run measured.
type values map[string]float64

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// appValues are the numbers a user of the transport sees, from one
// untraced out-of-process run.
func appValues(r *runResult, v verdict) values {
	s, g := &r.sink, &r.gen
	delivered := float64(s.Window.Delivered())
	rate := measure.MedianRate(s.Buckets, r.seconds)
	// CPU of both processes in each second of the window, per message
	// delivered in that second; the tickers of the two start within a
	// millisecond of each other.
	cpu := make([]float64, 0, len(s.CPUSeconds))
	for i := 0; i < len(s.CPUSeconds) && i < len(g.CPUSeconds); i++ {
		cpu = append(cpu, (s.CPUSeconds[i]+g.CPUSeconds[i])/1e3)
	}
	return values{
		"setup_s":                  measure.Median(r.setupS), // over the run's set-ups
		"goodput_msgs_per_s":       rate,
		"goodput_MBps":             rate * float64(r.spec.MsgBytes) / 1e6,
		"cpu_us_per_msg":           measure.MedianRatio(cpu, s.Buckets),
		"allocs_per_msg":           ratio(float64(s.Proc.Mallocs+g.Proc.Mallocs), delivered),
		"wire_efficiency":          ratio(float64(s.Window.Bytes), float64(s.RxBytes+s.TxBytes)),
		"sink_rss_mb":              measure.Median(s.RSSMB),
		"delivery_p50_ms":          s.LatencyMs.P50,
		"delivery_p99_ms":          s.LatencyMs.P99,
		"unmarked_delivered_ratio": ratio(float64(s.Window.Unmarked), float64(g.SentUnmarked)),
		"conn_cycles_per_s":        measure.MedianRate(g.Cycles, r.seconds),
		"conn_setup_p50_ms":        g.DialMs.P50,
		"failed_ops_ratio":         ratio(float64(v.failed), float64(v.attempted)),
	}
}

// counterValues are the per-layer numbers the same run yields from public
// counters on both sides.
func counterValues(r *runResult, h *host) values {
	s, g := &r.sink, &r.gen
	delivered := float64(s.Window.Delivered())
	sinkCPU, genCPU := float64(s.Proc.CPU), float64(g.Proc.CPU)
	return values{
		"serve.cpu_us_per_msg":      ratio(sinkCPU/1e3, delivered),
		"serve.allocs_per_msg":      ratio(float64(s.Proc.Mallocs), delivered),
		"serve.cpu_busy_ratio":      ratio(sinkCPU/1e9, s.WindowSec*float64(h.SinkProcs)),
		"serve.rss_peak_mb":         s.PeakRSSMB,
		"serve.rx_batch_mean":       ratio(float64(s.RxPackets), float64(s.RxBatches)),
		"serve.tx_batch_mean":       ratio(float64(s.TxPackets), float64(s.TxBatches)),
		"serve.tx_drops":            float64(s.TxDrops),
		"serve.rx_errors":           float64(s.RxErrors),
		"serve.dispatch_p99_us":     s.DispatchP99 * 1e6,
		"serve.accepted":            float64(s.Accepted),
		"serve.refused":             float64(s.Refused),
		"serve.retry_sent":          float64(s.RetrySent),
		"serve.cookie_rejects":      float64(s.CookieRejects),
		"serve.mem_bytes_peak":      float64(s.MemPeak),
		"serve.accept_wait_p50_us":  s.AcceptWait.P50,
		"serve.timer_arms_per_msg":  ratio(float64(s.TimerArms), delivered),
		"serve.timer_fires_per_msg": ratio(float64(s.TimerFires), delivered),

		"udpwire.cpu_us_per_msg":     ratio(genCPU/1e3, delivered),
		"udpwire.allocs_per_msg":     ratio(float64(g.Proc.Mallocs), delivered),
		"udpwire.tx_flushes_per_msg": ratio(float64(g.TxFlushes), delivered),
		"udpwire.dropped_deliveries": float64(g.DroppedDeliveries),
		"udpwire.dial_p50_ms":        g.DialMs.P50,
		"udpwire.close_p50_ms":       g.CloseMs.P50,

		// Every datagram either way at the sink's sockets, per message.
		"core.pkts_per_msg":        ratio(float64(s.RxPackets+s.TxPackets), delivered),
		"core.retransmit_ratio":    ratio(float64(g.Core.Retransmits), float64(g.Core.SentPackets)),
		"core.skipped_pkts":        float64(g.Core.SkippedPackets),
		"core.eack_clips":          float64(g.Core.EackClips),
		"core.srtt_ms":             g.SRTTms,
		"core.cwnd_mean":           g.CwndMean,
		"core.ack_delay_p50_us":    g.AckDelayP50us,
		"core.send_backlog_p99":    g.BacklogP99,
		"core.window_rescales":     float64(g.Core.WindowRescales),
		"core.threshold_callbacks": float64(g.Callbacks),

		"packet.pool_hit_ratio": ratio(float64(s.PoolHits), float64(s.PoolHits+s.PoolMisses)),
		"uio.offload_gso":       b2f(s.OffloadGSO),
		"uio.offload_gro":       b2f(s.OffloadGRO),
		"wheel.lateness_p99_us": s.WheelLateP99 * 1e6,

		"fec.repairs_per_kpkt":      1000 * ratio(float64(g.Core.FecRepairsSent), float64(g.Core.SentPackets)),
		"fec.recovery_yield":        ratio(float64(s.FecRecovered), float64(s.FecRepairsRecv)),
		"fec.recovered_marked":      float64(s.FecRecoveredMkd),
		"fec.repair_latency_p50_ms": s.FecRepairP50 * 1e3,

		"chaos.drops":     float64(g.Chaos.Drops),
		"chaos.forwarded": float64(g.Chaos.Forwarded),
		"chaos.drop_ratio": ratio(float64(g.Chaos.Drops),
			float64(g.Chaos.Drops+g.Chaos.Forwarded)),

		"gen.lateness_p99_ms": g.LatenessMs.P99,
		"gen.cpu_share":       ratio(genCPU, genCPU+sinkCPU),
	}
}

// traceValues are the trace.* numbers: self time per span name from the
// traced driver run, its cost against the untraced twin, and what is left of
// the sink's measured CPU per message once the server side's traced self
// times are taken out.
func traceValues(spans []tracedrv.Span, traced, plain tracedrv.Result, serveCPUus float64) values {
	agg := tracedrv.Aggregate(spans)
	both := func(n tracedrv.Name) (selfNs, count float64) {
		for _, a := range agg[n] {
			selfNs += float64(a.SelfNs)
			count += float64(a.Count)
		}
		return
	}
	per := func(n tracedrv.Name) float64 { return ratio(both(n)) }
	pkts := float64(traced.TxPackets[0] + traced.TxPackets[1])
	txSelf, _ := both(tracedrv.UioTx)
	rxSelf, _ := both(tracedrv.UioRx)
	sendSelf, _ := both(tracedrv.CoreSend)
	var serverNs float64
	for _, bySide := range agg {
		serverNs += float64(bySide[tracedrv.Server].SelfNs)
	}
	delivered := float64(traced.Tally.Delivered())
	v := values{
		"trace.core.send_ns_per_msg":     ratio(sendSelf, float64(traced.Sent)),
		"trace.core.handle_ns_per_pkt":   per(tracedrv.CoreHandle),
		"trace.core.timer_ns_per_fire":   per(tracedrv.CoreTimer),
		"trace.packet.encode_ns_per_pkt": per(tracedrv.PacketEncode),
		"trace.packet.decode_ns_per_pkt": per(tracedrv.PacketDecode),
		"trace.uio.tx_ns_per_pkt":        ratio(txSelf, pkts),
		"trace.uio.rx_ns_per_pkt":        ratio(rxSelf, pkts),
		"trace.uio.tx_batch_mean":        ratio(pkts, float64(traced.TxFlushes[0]+traced.TxFlushes[1])),
		"trace.wheel.arm_ns":             per(tracedrv.WheelArm),
		"trace.span_count":               float64(len(spans)),
		"trace.overhead_ratio": ratio(
			ratio(delivered, traced.Busy.Seconds()),
			ratio(float64(plain.Tally.Delivered()), plain.Busy.Seconds())),
		"trace.server_us_per_msg": ratio(serverNs/1e3, delivered),
	}
	v["serve.residual_us_per_msg"] = serveCPUus - v["trace.server_us_per_msg"]
	return v
}

// loopValues renames the call loops' results to their metric names.
func loopValues(res map[string]loops.Result) values {
	v := values{}
	for name, r := range res {
		if strings.HasSuffix(name, "_allocs") {
			v["loop."+name] = r.Allocs
		} else {
			v["loop."+name] = r.Ns
		}
	}
	return v
}

// result is the one-line JSON object a run ends with.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted uint64              `json:"attempted"`
	Failed    uint64              `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine builds the JSON result over exactly the metrics in defs.
func resultLine(defs []metric, workload string, v values, vd verdict) result {
	res := result{
		Correct: vd.correct(), Attempted: vd.attempted, Failed: vd.failed,
		Metrics: make(map[string]measured, len(defs)),
	}
	for _, m := range defs {
		val := v[m.Name]
		if !m.on(workload) {
			val = 0
		}
		res.Metrics[m.Name] = measured{Value: val, Unit: m.Unit}
	}
	return res
}

// printTable writes the metrics in defs that are defined on workload, one
// per line, by name with value and unit.
func printTable(w io.Writer, defs []metric, workload string, v values) {
	for _, m := range defs {
		if !m.on(workload) {
			continue
		}
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", m.Name, v[m.Name], m.Unit)
	}
}

func printJSON(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
