package core

import (
	"math"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/attr"
	"github.com/cercs/iqrudp/internal/packet"
)

// nullEnv drives a machine with no wire and manually-run timers — enough to
// unit-test the coordination and measurement logic in isolation.
type nullEnv struct {
	now       time.Duration
	emitted   []*packet.Packet
	delivered []Message
	timers    []*nullTimer
}

type nullTimer struct {
	at      time.Duration
	fn      func()
	stopped bool
}

func (t *nullTimer) Stop() bool {
	was := !t.stopped
	t.stopped = true
	return was
}

func (e *nullEnv) Now() time.Duration { return e.now }
func (e *nullEnv) Emit(p *packet.Packet) {
	// The machine only lends the packet for the duration of the call (it
	// stages emissions in a reused scratch packet), so retain a copy.
	q := *p
	q.Payload = append([]byte(nil), p.Payload...)
	q.Eacks = append([]uint32(nil), p.Eacks...)
	e.emitted = append(e.emitted, &q)
}
func (e *nullEnv) Deliver(msg Message) { e.delivered = append(e.delivered, msg) }
func (e *nullEnv) After(d time.Duration, fn func()) Timer {
	t := &nullTimer{at: e.now + d, fn: fn}
	e.timers = append(e.timers, t)
	return t
}

// advance moves the clock and fires due timers in order.
func (e *nullEnv) advance(d time.Duration) {
	target := e.now + d
	for {
		var next *nullTimer
		for _, t := range e.timers {
			if t.stopped || t.at > target {
				continue
			}
			if next == nil || t.at < next.at {
				next = t
			}
		}
		if next == nil {
			break
		}
		e.now = next.at
		next.stopped = true
		next.fn()
	}
	e.now = target
}

// establishedMachine builds a machine forced into the established state.
func establishedMachine(cfg Config) (*Machine, *nullEnv) {
	env := &nullEnv{}
	m := NewMachine(cfg, env)
	m.initiator = true
	m.state = stSynSent
	m.HandlePacket(&packet.Packet{Type: packet.SYNACK, Flags: packet.FlagAck, Seq: 100, Ack: 2, Wnd: 64,
		Attrs: attr.NewList(attr.Attr{Name: attr.LossTolerance, Value: attr.Float(0.4)})})
	return m, env
}

func TestCoordinatorImmediateResolution(t *testing.T) {
	m, _ := establishedMachine(DefaultConfig())
	m.cc.cwnd = 10
	m.Report(&AdaptationReport{Kind: AdaptResolution, Degree: 0.3, FrameSize: 700, CondErrorRatio: math.NaN()})
	want := 10 / (1 - 0.3)
	if got := m.cc.Window(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("cwnd = %v, want %v", got, want)
	}
}

func TestCoordinatorFrameAboveMSSNoRescale(t *testing.T) {
	m, _ := establishedMachine(DefaultConfig())
	m.cc.cwnd = 10
	m.Report(&AdaptationReport{Kind: AdaptResolution, Degree: 0.3, FrameSize: 1400, CondErrorRatio: math.NaN()})
	if m.cc.Window() != 10 {
		t.Fatalf("cwnd = %v, want unchanged at MSS boundary", m.cc.Window())
	}
}

func TestCoordinatorReliabilityTogglesDiscard(t *testing.T) {
	m, _ := establishedMachine(DefaultConfig())
	if m.coo.discardUnmarked() {
		t.Fatal("discard active on a fresh machine")
	}
	m.Report(&AdaptationReport{Kind: AdaptReliability, Degree: 0.4, CondErrorRatio: math.NaN()})
	if !m.coo.discardUnmarked() {
		t.Fatal("discard not enabled")
	}
	m.Report(&AdaptationReport{Kind: AdaptReliability, Degree: 0, CondErrorRatio: math.NaN()})
	if m.coo.discardUnmarked() {
		t.Fatal("zero degree must cancel discarding")
	}
}

func TestCoordinatorUncoordinatedIgnoresEverything(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Coordinate = false
	m, _ := establishedMachine(cfg)
	m.cc.cwnd = 10
	m.Report(&AdaptationReport{Kind: AdaptResolution, Degree: 0.3, FrameSize: 700, CondErrorRatio: math.NaN()})
	m.Report(&AdaptationReport{Kind: AdaptReliability, Degree: 0.9, CondErrorRatio: math.NaN()})
	if m.cc.Window() != 10 || m.coo.discardUnmarked() {
		t.Fatal("uncoordinated machine re-adapted")
	}
	// Send-attr path equally inert.
	m.coo.onSendAttrs(attr.NewList(attr.Attr{Name: attr.AdaptPktSize, Value: attr.Float(0.5)}), 600)
	if m.cc.Window() != 10 {
		t.Fatal("uncoordinated machine honoured ADAPT_PKTSIZE")
	}
}

func TestCoordinatorSendAttrEnactment(t *testing.T) {
	m, _ := establishedMachine(DefaultConfig())
	m.cc.cwnd = 8
	// ADAPT_WHEN announces; nothing happens yet.
	m.coo.onSendAttrs(attr.NewList(attr.Attr{Name: attr.AdaptWhen, Value: attr.Int(20)}), 1400)
	if m.cc.Window() != 8 {
		t.Fatal("announcement must not change the window")
	}
	if _, left, ok := m.PendingAdaptation(); !ok || left != 20 {
		t.Fatalf("pending = %d/%v", left, ok)
	}
	// Enactment via ADAPT_PKTSIZE on a sub-MSS send.
	m.coo.onSendAttrs(attr.NewList(attr.Attr{Name: attr.AdaptPktSize, Value: attr.Float(0.25)}), 900)
	want := 8 / (1 - 0.25)
	if got := m.cc.Window(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("cwnd = %v, want %v", got, want)
	}
	if _, _, ok := m.PendingAdaptation(); ok {
		t.Fatal("pending not cleared by enactment")
	}
}

func TestCoordinatorAdaptCondFormula(t *testing.T) {
	m, _ := establishedMachine(DefaultConfig())
	m.cc.cwnd = 10
	// Pretend the transport currently measures a 10% smoothed ratio.
	m.meas.smoothedRatio.Add(0.1)
	// The application decided at 40% — the network has improved since.
	attrs := attr.NewList(
		attr.Attr{Name: attr.AdaptPktSize, Value: attr.Float(0.25)},
		attr.Attr{Name: attr.AdaptCond, Value: attr.Float(0.4)},
	)
	m.coo.onSendAttrs(attrs, 900)
	want := 10.0 * (1 / (1 - 0.25)) * ((1 - 0.1) / (1 - 0.4))
	if got := m.cc.Window(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("cwnd = %v, want %v (Eq. 1)", got, want)
	}
}

func TestCoordinatorRescaleFactorClamped(t *testing.T) {
	m, _ := establishedMachine(DefaultConfig())
	m.cc.cwnd = 10
	// Network "improved" from 99% loss to ~0: the raw factor would explode;
	// it must clamp at 4×.
	attrs := attr.NewList(
		attr.Attr{Name: attr.AdaptPktSize, Value: attr.Float(0.5)},
		attr.Attr{Name: attr.AdaptCond, Value: attr.Float(0.99)},
	)
	m.coo.onSendAttrs(attrs, 900)
	if got := m.cc.Window(); got != 40 {
		t.Fatalf("cwnd = %v, want clamp at 40 (4×)", got)
	}
}

func TestCoordinatorFrequencyNoChangeViaAttrs(t *testing.T) {
	m, _ := establishedMachine(DefaultConfig())
	m.cc.cwnd = 12
	m.coo.onSendAttrs(attr.NewList(attr.Attr{Name: attr.AdaptFreq, Value: attr.Float(0.5)}), 700)
	if m.cc.Window() != 12 {
		t.Fatal("ADAPT_FREQ must not touch the window")
	}
}

func TestMeasurementPeriodRawAndSmoothed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MeasurementPeriod = 100 * time.Millisecond
	m, env := establishedMachine(cfg)
	// Period 1: 10 sends, 5 losses → raw 0.5.
	m.meas.onSend(10)
	m.meas.onLoss(5)
	env.advance(110 * time.Millisecond)
	if m.meas.lastRaw() != 0.5 {
		t.Fatalf("raw = %v, want 0.5", m.meas.lastRaw())
	}
	if m.meas.smoothed() != 0.5 {
		t.Fatalf("smoothed = %v, want 0.5 (first sample)", m.meas.smoothed())
	}
	// Period 2: clean → raw 0, smoothed halves (alpha 0.5).
	m.meas.onSend(10)
	env.advance(100 * time.Millisecond)
	if m.meas.lastRaw() != 0 {
		t.Fatalf("raw = %v, want 0", m.meas.lastRaw())
	}
	if m.meas.smoothed() != 0.25 {
		t.Fatalf("smoothed = %v, want 0.25", m.meas.smoothed())
	}
}

func TestMeasurementCallbackOnRawRatio(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MeasurementPeriod = 100 * time.Millisecond
	m, env := establishedMachine(cfg)
	var upper, lower int
	m.RegisterThresholds(0.3, 0.01,
		func(info CallbackInfo) *AdaptationReport {
			upper++
			if info.ErrorRatio < 0.3 {
				t.Errorf("upper fired below threshold: %v", info.ErrorRatio)
			}
			return nil
		},
		func(info CallbackInfo) *AdaptationReport {
			lower++
			return nil
		})
	m.meas.onSend(10)
	m.meas.onLoss(4) // raw 0.4 ≥ upper
	env.advance(110 * time.Millisecond)
	if upper != 1 || lower != 0 {
		t.Fatalf("upper=%d lower=%d after lossy period", upper, lower)
	}
	m.meas.onSend(10) // clean period → raw 0 ≤ lower
	env.advance(100 * time.Millisecond)
	if lower != 1 {
		t.Fatalf("lower=%d after clean period", lower)
	}
}

func TestHandshakeToleranceParsing(t *testing.T) {
	m, _ := establishedMachine(DefaultConfig())
	if m.PeerTolerance() != 0.4 {
		t.Fatalf("peer tolerance = %v, want 0.4 from SYNACK attrs", m.PeerTolerance())
	}
	if !m.Established() {
		t.Fatal("not established")
	}
}

func TestWithinToleranceMath(t *testing.T) {
	m, _ := establishedMachine(DefaultConfig()) // peerTol 0.4
	m.relMsgsTotal = 10
	m.relMsgsDropped = 3
	if !m.withinTolerance(1) { // 4/10 = 0.4 ≤ 0.4
		t.Fatal("4 of 10 should fit a 0.4 tolerance")
	}
	m.relMsgsDropped = 4
	if m.withinTolerance(1) { // 5/10 > 0.4
		t.Fatal("5 of 10 must exceed a 0.4 tolerance")
	}
	m.peerTol = 0
	if m.withinTolerance(1) {
		t.Fatal("zero tolerance permits nothing")
	}
}
