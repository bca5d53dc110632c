// Package tracedrv is the benchmark's traced run: a driver owned by the
// benchmark that implements core.Env for a client and a server machine, so
// that every layer boundary — codec, batched socket I/O, timing wheel,
// protocol machine, application delivery — is a call the benchmark itself
// makes and can wrap in a span. Nothing inside the layers is instrumented.
package tracedrv

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Name identifies a span's layer boundary.
type Name uint8

// Span names. The prefix is the layer (this repo's package) charged with
// the span's self time.
const (
	CoreSend     Name = iota // Machine.SendMsg
	CoreHandle               // Machine.HandlePacket
	CoreTimer                // a machine timer callback
	PacketEncode             // packet.AppendEncode, inside Env.Emit
	PacketDecode             // packet.DecodeInto
	UioTx                    // TxBatcher.Send
	UioRx                    // RxBatcher.Recv + Release
	WheelArm                 // wheel Timer.Arm, inside Env.After
	AppDeliver               // Env.Deliver: the receive check
	Dial                     // churn: udpwire.Dial
	Accept                   // churn: Server.Accept
	Close                    // churn: Conn.Close
	numNames
)

var nameStrings = [numNames]string{
	"core.send", "core.handle", "core.timer", "packet.encode", "packet.decode",
	"uio.tx", "uio.rx", "wheel.arm", "app.deliver", "udpwire.dial", "serve.accept", "udpwire.close",
}

func (n Name) String() string { return nameStrings[n] }

// Side says which endpoint's work a span is.
type Side uint8

const (
	Client Side = iota // the dialed side
	Server             // the serve side: what serve.cpu_us_per_msg also pays for
)

// Span is one timed call. Times are nanoseconds since the recorder started.
type Span struct {
	Start, End int64
	Parent     int32 // index of the span that caused this one, -1 for a root
	Msg        uint32
	Name       Name
	Side       Side
}

// Recorder keeps spans in a preallocated slab. Begin/End are for the one
// goroutine that owns the driver loop (the open-span stack gives each span
// its parent); Add is for flat spans from any goroutine. A nil *Recorder
// records nothing, which is how the untraced twin runs the same code.
type Recorder struct {
	epoch time.Time
	spans []Span
	stack []int32
	mu    sync.Mutex // Add against Add and Full
}

// NewRecorder preallocates room for capacity spans.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{epoch: time.Now(), spans: make([]Span, 0, capacity), stack: make([]int32, 0, 16)}
}

// Full reports whether the slab has no room left; the driver stops a
// traced run there instead of growing the slab mid-measurement.
func (r *Recorder) Full() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans) >= cap(r.spans)-64
}

// Begin opens a span under the innermost open one and returns its index.
func (r *Recorder) Begin(n Name, side Side, msg uint32) int32 {
	if r == nil || len(r.spans) == cap(r.spans) {
		return -1
	}
	parent := int32(-1)
	if k := len(r.stack); k > 0 {
		parent = r.stack[k-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, Span{Parent: parent, Msg: msg, Name: n, Side: side})
	r.stack = append(r.stack, id)
	r.spans[id].Start = int64(time.Since(r.epoch))
	return id
}

// End closes the span Begin returned.
func (r *Recorder) End(id int32) {
	if id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
	r.stack = r.stack[:len(r.stack)-1]
}

// Add records a finished parentless span; safe from any goroutine.
func (r *Recorder) Add(n Name, side Side, msg uint32, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, Span{
			Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
			Parent: -1, Msg: msg, Name: n, Side: side,
		})
	}
	r.mu.Unlock()
}

// Spans returns the recorded spans in the order they began.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children may nest, overlap each
// other, or overhang the parent; covered time is the union of the child
// intervals clipped to the parent. spans must be ordered by Start within
// each parent, which recording order guarantees.
func SelfTimes(spans []Span) []int64 {
	self := make([]int64, len(spans))
	coveredTo := make([]int64, len(spans)) // end of the union so far, per parent
	for i, s := range spans {
		self[i] += s.End - s.Start
		coveredTo[i] = s.Start
		p := s.Parent
		if p < 0 {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < coveredTo[p] {
			lo = coveredTo[p]
		}
		if hi > spans[p].End {
			hi = spans[p].End
		}
		if hi > lo {
			self[p] -= hi - lo
			coveredTo[p] = hi
		}
	}
	return self
}

// Agg is one (name, side) row of a trace: how many spans and their summed
// self time.
type Agg struct {
	Count  uint64
	SelfNs int64
}

// Aggregate sums self time per span name and side.
func Aggregate(spans []Span) (byName [numNames][2]Agg) {
	for i, self := range SelfTimes(spans) {
		a := &byName[spans[i].Name][spans[i].Side]
		a.Count++
		a.SelfNs += self
	}
	return byName
}

// fileSpan is a span as written to the trace file.
type fileSpan struct {
	Name   string `json:"name"`
	Side   string `json:"side"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Msg    uint32 `json:"msg"`
}

// fileCap bounds the spans written out: a saturated run records millions,
// and the file is for reading a few round trips, not for re-deriving totals
// (the totals are in the file's "self" table, computed over every span).
const fileCap = 20000

// WriteFile writes the first fileCap spans and the whole run's self-time
// table to path as JSON.
func WriteFile(path, workload string, spans []Span) error {
	type row struct {
		Name   string `json:"name"`
		Side   string `json:"side"`
		Count  uint64 `json:"count"`
		SelfNs int64  `json:"self_ns"`
	}
	doc := struct {
		Workload string     `json:"workload"`
		Spans    int        `json:"spans_recorded"`
		Self     []row      `json:"self"`
		First    []fileSpan `json:"first_spans"`
	}{Workload: workload, Spans: len(spans)}
	sides := [2]string{"client", "server"}
	for n, bySide := range Aggregate(spans) {
		for sd, a := range bySide {
			if a.Count > 0 {
				doc.Self = append(doc.Self, row{Name(n).String(), sides[sd], a.Count, a.SelfNs})
			}
		}
	}
	n := len(spans)
	if n > fileCap {
		n = fileCap
	}
	for _, s := range spans[:n] {
		doc.First = append(doc.First, fileSpan{s.Name.String(), sides[s.Side], s.Start, s.End, s.Parent, s.Msg})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
