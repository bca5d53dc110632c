package core

import (
	"github.com/cercs/iqrudp/internal/attr"
	"github.com/cercs/iqrudp/internal/stats"
	"github.com/cercs/iqrudp/internal/trace"
)

// measurement maintains the transport's periodic network-state measurement:
// per-period error ratio (detected losses over transmissions), its EWMA
// smoothing, and the delivery-rate estimate. At each period boundary it
// publishes the NET_* quality attributes and evaluates the application's
// registered threshold callbacks — the instrumented-transport half of the
// paper's architecture.
type measurement struct {
	m *Machine

	sent  uint64 // DATA transmissions this period
	lost  uint64 // losses detected this period
	bytes uint64 // acked bytes this period

	smoothedRatio *stats.EWMA
	raw           float64
	lastRate      float64
	running       bool
	tickFn        func() // cached onTick method value (no per-arm closure)
}

// lossRatioAlpha is the EWMA weight for smoothing the per-period error
// ratio.
const lossRatioAlpha = 0.5

func newMeasurement(m *Machine) *measurement {
	me := &measurement{m: m, smoothedRatio: stats.NewEWMA(lossRatioAlpha)}
	me.tickFn = me.onTick
	return me
}

func (me *measurement) onSend(n uint64)       { me.sent += n }
func (me *measurement) onLoss(n uint64)       { me.lost += n }
func (me *measurement) onAckedBytes(n uint64) { me.bytes += n }

func (me *measurement) smoothed() float64 { return me.smoothedRatio.Value() }
func (me *measurement) lastRaw() float64  { return me.raw }
func (me *measurement) rate() float64     { return me.lastRate }

// start begins the periodic loop; called when the connection establishes.
func (me *measurement) start() {
	if me.running {
		return
	}
	me.running = true
	me.arm()
}

func (me *measurement) stop() { me.running = false }

func (me *measurement) arm() {
	me.m.measTicker = me.m.env.After(me.m.cfg.MeasurementPeriod, me.tickFn)
}

// onTick is the cached period-boundary callback: close the period and
// re-arm while the loop is running.
func (me *measurement) onTick() {
	defer me.m.exit(me.m.enter())
	me.m.measTicker = nil
	if !me.running || me.m.state == stDead {
		return
	}
	me.tick()
	me.arm()
}

// tick closes a measurement period.
func (me *measurement) tick() {
	m := me.m
	if me.sent > 0 {
		r := float64(me.lost) / float64(me.sent)
		if r > 1 {
			r = 1
		}
		me.raw = r
		me.smoothedRatio.Add(r)
	} else if me.smoothedRatio.Initialized() {
		// Idle period: decay toward zero so stale congestion doesn't pin the
		// smoothed ratio high.
		me.raw = 0
		me.smoothedRatio.Add(0)
	}
	me.lastRate = float64(me.bytes) / m.cfg.MeasurementPeriod.Seconds()
	me.sent, me.lost, me.bytes = 0, 0, 0

	// Export network performance metrics as quality attributes (§2.1/§2.2).
	m.reg.Set(attr.NetLoss, attr.Float(me.smoothed()))
	m.reg.Set(attr.NetRTT, attr.Float(m.rtt.SRTT().Seconds()))
	m.reg.Set(attr.NetRate, attr.Float(me.lastRate))
	m.reg.Set(attr.NetCwnd, attr.Float(m.cc.Window()))
	m.reg.Set(attr.NetRetrans, attr.Int(int64(m.metrics.Retransmits)))

	if m.tr != nil {
		m.tr.Trace(trace.Event{
			Time: m.now, Type: trace.MeasurementPeriod, ConnID: m.connID,
			RawRatio: me.raw, ErrorRatio: me.smoothed(), RateBps: me.lastRate,
			SRTT: m.rtt.SRTT(), Cwnd: m.cc.Window(),
		})
	}

	m.fecAdapt()
	me.fireCallbacks()
}

// fireCallbacks evaluates the registered thresholds against the raw
// per-period error ratio — the "loss ratio within a measuring period" the
// paper's applications adapt on (the congestion controller uses the
// smoothed ratio instead). Every period ending above the upper threshold
// fires the upper callback; every period at or below the lower threshold
// fires the lower callback. At most one callback fires per period: when a
// period satisfies both thresholds (possible with misconfigured, e.g.
// equal, thresholds) the upper callback deterministically takes precedence
// — see the ThresholdCallback contract.
func (me *measurement) fireCallbacks() {
	m := me.m
	if m.onUpper == nil && m.onLower == nil {
		return
	}
	ratio := me.raw
	info := CallbackInfo{
		Now:        m.now,
		ErrorRatio: ratio,
		RawRatio:   me.raw,
		Smoothed:   me.smoothed(),
		RateBps:    me.lastRate,
		SRTT:       m.rtt.SRTT(),
		Cwnd:       m.cc.Window(),
	}
	// An upper threshold of zero normally means "not registered" (a ratio
	// is always ≥ 0); the equal-thresholds escape keeps the upper-first
	// precedence even for a misconfigured upper == lower == 0 pair.
	upperHit := m.onUpper != nil && ratio >= m.upperThresh &&
		(m.upperThresh > 0 || m.upperThresh == m.lowerThresh)
	switch {
	case upperHit:
		rep := m.onUpper(info)
		me.traceCallback(trace.ReasonUpper, rep)
		if rep != nil {
			m.coo.onReport(rep, info)
		}
	case m.onLower != nil && ratio <= m.lowerThresh:
		rep := m.onLower(info)
		me.traceCallback(trace.ReasonLower, rep)
		if rep != nil {
			m.coo.onReport(rep, info)
		}
	}
}

// traceCallback records a threshold-callback invocation and the adaptation
// it returned.
func (me *measurement) traceCallback(which string, rep *AdaptationReport) {
	m := me.m
	if m.tr == nil {
		return
	}
	ev := trace.Event{
		Time: m.now, Type: trace.ThresholdCallbackFired, ConnID: m.connID,
		RawRatio: me.raw, ErrorRatio: me.smoothed(), Reason: which, Kind: trace.KindNone,
	}
	if rep != nil {
		ev.Kind = rep.Kind.String()
		ev.Degree = rep.Degree
		ev.WhenFrames = rep.WhenFrames
	}
	m.tr.Trace(ev)
}
