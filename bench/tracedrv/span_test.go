package tracedrv

import (
	"reflect"
	"testing"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []Span{
		// 0: root 0..100 with children 1, 4, 5, 6
		{Start: 0, End: 100, Parent: -1, Name: CoreHandle},
		// 1: child 10..40, itself parent of 2 and 3
		{Start: 10, End: 40, Parent: 0, Name: PacketEncode},
		// 2, 3: grandchildren, 3 overlapping 2 by 5
		{Start: 12, End: 20, Parent: 1, Name: WheelArm},
		{Start: 15, End: 30, Parent: 1, Name: WheelArm},
		// 4: overlaps the end of child 1 by 10 (30..50)
		{Start: 30, End: 50, Parent: 0, Name: AppDeliver},
		// 5: wholly inside child 4's interval: adds nothing to the union
		{Start: 35, End: 45, Parent: 0, Name: AppDeliver},
		// 6: overhangs the root's end by 20 (90..120): clipped to 90..100
		{Start: 90, End: 120, Parent: 0, Name: UioTx},
		// 7: another root, no children
		{Start: 200, End: 230, Parent: -1, Name: UioRx},
	}
	got := SelfTimes(spans)
	want := []int64{
		100 - (30 + 10 + 0 + 10), // children cover 10..50 and 90..100
		30 - 18,                  // grandchildren cover 12..30
		8, 15,
		20, 10,
		30,
		30,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}

	agg := Aggregate(spans)
	if a := agg[WheelArm][Client]; a.Count != 2 || a.SelfNs != 23 {
		t.Errorf("wheel.arm aggregate %+v, want 2 spans, 23 ns", a)
	}
	if a := agg[CoreHandle][Client]; a.Count != 1 || a.SelfNs != 50 {
		t.Errorf("core.handle aggregate %+v, want 1 span, 50 ns", a)
	}
}

func TestRecorderParentsFollowTheOpenSpanStack(t *testing.T) {
	r := NewRecorder(128)
	h := r.Begin(CoreHandle, Server, 9)
	e := r.Begin(PacketEncode, Server, 9)
	r.End(e)
	a := r.Begin(AppDeliver, Server, 9)
	r.End(a)
	r.End(h)
	next := r.Begin(UioTx, Client, 0)
	r.End(next)
	s := r.Spans()
	if len(s) != 4 {
		t.Fatalf("%d spans, want 4", len(s))
	}
	for i, want := range []int32{-1, h, h, -1} {
		if s[i].Parent != want {
			t.Errorf("span %d (%s) has parent %d, want %d", i, s[i].Name, s[i].Parent, want)
		}
		if s[i].End < s[i].Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	if s[1].Msg != 9 || s[1].Side != Server || s[3].Side != Client {
		t.Errorf("message id or side lost: %+v", s)
	}

	var off *Recorder // the untraced twin
	if id := off.Begin(CoreSend, Client, 1); id != -1 {
		t.Errorf("nil recorder began span %d", id)
	}
	off.End(-1)
	if off.Full() || off.Spans() != nil {
		t.Error("nil recorder reports spans")
	}
}

func TestRecorderStopsAtItsSlab(t *testing.T) {
	r := NewRecorder(70)
	for i := 0; i < 100; i++ {
		r.End(r.Begin(UioRx, Client, 0))
	}
	if !r.Full() || len(r.Spans()) != 70 {
		t.Fatalf("recorded %d spans into a slab of 70, full=%v", len(r.Spans()), r.Full())
	}
}
