package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func ev(t Type, seq uint32) Event {
	return Event{Time: time.Duration(seq) * time.Millisecond, Type: t, ConnID: 7, Seq: seq}
}

func TestTypeNamesRoundTrip(t *testing.T) {
	for ty := Type(0); ty < NumTypes; ty++ {
		name := ty.String()
		if name == "" || name == "unknown" {
			t.Fatalf("type %d has no name", ty)
		}
		back, ok := TypeByName(name)
		if !ok || back != ty {
			t.Fatalf("TypeByName(%q) = %v, %v", name, back, ok)
		}
	}
	if _, ok := TypeByName("nope"); ok {
		t.Fatal("unknown name resolved")
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	r := NewRing(4)
	for i := uint32(0); i < 10; i++ {
		r.Trace(ev(PacketSent, i))
	}
	if r.Total() != 10 || r.Dropped() != 6 || r.Cap() != 4 {
		t.Fatalf("total=%d dropped=%d cap=%d", r.Total(), r.Dropped(), r.Cap())
	}
	got := r.Events()
	if len(got) != 4 {
		t.Fatalf("events: %d", len(got))
	}
	for i, e := range got {
		if e.Seq != uint32(6+i) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, 6+i)
		}
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Trace(ev(PacketAcked, uint32(g*1000+i)))
				if i%100 == 0 {
					r.Events() // concurrent snapshots must be safe
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Total() != 8000 {
		t.Fatalf("total = %d", r.Total())
	}
	if got := len(r.Events()); got != 128 {
		t.Fatalf("snapshot size = %d", got)
	}
}

// TestRingTraceAllocs pins the flight recorder's steady state: once every
// slot has been written, tracing copies the event into the ring and
// allocates nothing.
func TestRingTraceAllocs(t *testing.T) {
	r := NewRing(64)
	e := ev(PacketReceived, 1)
	for i := 0; i < r.Cap(); i++ {
		r.Trace(e)
	}
	if n := testing.AllocsPerRun(1000, func() { r.Trace(e) }); n != 0 {
		t.Fatalf("Ring.Trace allocates %.1f per event, want 0", n)
	}
}

// TestRingAllocatesOnDemand: a ring that has seen a few events holds only
// the chunks those events filled, not its whole capacity.
func TestRingAllocatesOnDemand(t *testing.T) {
	r := NewRing(64)
	r.Trace(ev(PacketSent, 1))
	filled := 0
	for _, c := range r.chunks {
		if c != nil {
			filled++
		}
	}
	if filled != 1 {
		t.Fatalf("%d chunks allocated after one event, want 1", filled)
	}
	if got := r.Events(); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("events = %+v", got)
	}
}

func TestCountersAggregates(t *testing.T) {
	c := NewCounters()
	c.Trace(Event{Type: PacketSent, Size: 100})
	c.Trace(Event{Type: PacketRetransmitted, Size: 50})
	c.Trace(Event{Type: PacketAcked, Size: 100})
	c.Trace(Event{Type: CwndUpdate, Cwnd: 8, ErrorRatio: 0.1, SRTT: 30 * time.Millisecond})
	c.Trace(Event{Type: MeasurementPeriod, Cwnd: 9, RateBps: 1e6, SRTT: 31 * time.Millisecond})
	c.Trace(Event{Type: CoordinationDecision, Case: 2, Factor: 2})
	c.Trace(Event{Type: CoordinationDecision, Case: 1}) // no rescale

	s := c.Snapshot()
	if s.Counts[PacketSent] != 1 || s.Counts[CoordinationDecision] != 2 {
		t.Fatalf("counts wrong: %+v", s.Counts)
	}
	if s.SentBytes != 150 || s.AckedBytes != 100 {
		t.Fatalf("bytes wrong: %+v", s)
	}
	if s.Cwnd != 9 || s.RateBps != 1e6 || s.SRTT != 31*time.Millisecond {
		t.Fatalf("gauges wrong: %+v", s)
	}
	if s.Rescales != 1 {
		t.Fatalf("rescales = %d", s.Rescales)
	}
	if c.Count(PacketAcked) != 1 {
		t.Fatalf("Count: %d", c.Count(PacketAcked))
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := NewCounters()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Trace(Event{Type: PacketSent, Size: 1})
				if i%50 == 0 {
					c.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Count(PacketSent); got != 8000 {
		t.Fatalf("count = %d", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	want := []Event{
		{Time: 1500 * time.Microsecond, Type: ConnState, ConnID: 0x1001, From: "closed", To: "syn-sent"},
		{Time: 2 * time.Millisecond, Type: PacketSent, ConnID: 0x1001, Seq: 2, MsgID: 1, Size: 1400, Marked: true},
		{Time: 3 * time.Millisecond, Type: CwndUpdate, ConnID: 0x1001, PrevCwnd: 2, Cwnd: 3,
			ErrorRatio: 0.25, SRTT: 30 * time.Millisecond, Reason: "ack"},
		{Time: 4 * time.Millisecond, Type: CoordinationDecision, ConnID: 0x1001, Case: 3,
			Kind: "resolution", Degree: 0.5, Factor: 1.8, WhenFrames: 10, Reason: "adapt-cond"},
		{Time: 5 * time.Millisecond, Type: RTOFired, ConnID: 0x1001, Seq: 9, RTO: 200 * time.Millisecond},
	}
	for _, e := range want {
		j.Trace(e)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"time\":1,\"name\":\"packet_sent\",\"conn\":1}\nnot json\n")); err == nil {
		t.Fatal("expected error")
	}
	if _, err := ReadJSONL(strings.NewReader("{\"time\":1,\"name\":\"who_knows\",\"conn\":1}\n")); err == nil {
		t.Fatal("expected unknown-name error")
	}
}

func TestMultiFansOutAndElidesNil(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("empty Multi should be nil")
	}
	r := NewRing(8)
	if Multi(nil, r) != Tracer(r) {
		t.Fatal("single-sink Multi should unwrap")
	}
	c := NewCounters()
	m := Multi(r, c)
	m.Trace(ev(PacketSent, 1))
	if r.Total() != 1 || c.Count(PacketSent) != 1 {
		t.Fatal("fan-out failed")
	}
}

func BenchmarkRingTrace(b *testing.B) {
	r := NewRing(4096)
	e := Event{Type: PacketSent, ConnID: 1, Seq: 1, Size: 1400}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Trace(e)
	}
}

func BenchmarkCountersTrace(b *testing.B) {
	c := NewCounters()
	e := Event{Type: PacketSent, ConnID: 1, Seq: 1, Size: 1400}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Trace(e)
	}
}
