// Package workload defines the benchmark's four traffic mixes and everything
// both ends derive from the seed: which messages are marked, what each
// payload holds, when an open-loop message is due, and the receive-side
// check that a delivered stream is the generated one. It opens no sockets;
// the generator, the sink and the traced driver all replay the same Spec.
package workload

import (
	"encoding/binary"
	"math/rand/v2"
	"time"
)

// Loop says how a workload offers load.
type Loop uint8

const (
	// Closed sends the next message as soon as the send queue admits it, so
	// a slower system receives less load and the delivered rate is the result.
	Closed Loop = iota
	// Open sends on a fixed schedule regardless of completions, so the rate
	// is fixed and delivery latency (timed from the due instant) is the result.
	Open
	// Churn loops dial → MsgsPerCycle messages → graceful close.
	Churn
)

// Spec is one workload. Zero fields mean "off".
type Spec struct {
	Name string
	Why  string // why the workload exists; also BENCHMARK.json's "why"
	Loop Loop

	Conns    int // concurrent generator connections (never more than nproc)
	MsgBytes int // payload size, stamp included

	// Open loop: messages per second per connection.
	Rate float64
	// Share of messages sent unmarked, decided per message from the seed.
	Unmarked float64

	// Path faults, applied by an in-process chaoswire proxy per connection.
	Loss    float64       // per-direction drop probability
	Latency time.Duration // one-way

	// Transport settings shared by both ends.
	Tolerance float64 // sink's loss tolerance for unmarked traffic
	FECGroup  int

	// Sink engine settings.
	AlwaysValidate bool // every SYN takes the RETRY/cookie round trip

	// Churn: messages per connection cycle.
	MsgsPerCycle int

	// LatencyStride keeps one delivery-latency sample in this many messages,
	// so a multi-million-message window does not grow the sink's heap.
	LatencyStride int
}

// Backpressure is the send-queue depth above which a closed-loop sender
// waits, the same bound the repo's earlier serve benchmark used.
const Backpressure = 512

// Specs lists the workloads in reporting order.
func Specs() []Spec {
	return []Spec{
		{
			Name: "bulk_small", Loop: Closed, Conns: 2, MsgBytes: 64, LatencyStride: 64,
			Why: "smallest messages on a clean path: per-packet cost (codec, core, uio, demux, wheel re-arm) is nearly all the work",
		},
		{
			Name: "bulk_large", Loop: Closed, Conns: 2, MsgBytes: 16 << 10, LatencyStride: 4,
			Why: "16 KiB messages in 12 fragments: bytes, copies, reassembly and GSO/GRO trains dominate; per-message cost is amortised",
		},
		{
			Name: "lossy_paced", Loop: Open, Conns: 2, MsgBytes: 1200, Rate: 150, Unmarked: 0.5,
			Loss: 0.02, Latency: 10 * time.Millisecond, Tolerance: 0.3, FECGroup: 8, LatencyStride: 1,
			Why: "the paper's scenario: fixed rate over 2% seeded loss and 20 ms RTT, half unmarked, FEC on; CPU idle, recovery sets latency",
		},
		{
			Name: "churn_guarded", Loop: Churn, Conns: 2, MsgBytes: 256, MsgsPerCycle: 8,
			AlwaysValidate: true, LatencyStride: 1,
			Why: "dial, 8 messages, graceful close, repeat, every SYN cookie-validated: connection set-up and teardown do the work",
		},
	}
}

// ByName returns the named workload.
func ByName(name string) (Spec, bool) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Stamp is the fixed 16-byte header of every payload.
//
//	[0:8]   unix-nano instant latency is timed from (due time in an open
//	        loop, the Send call otherwise)
//	[8:12]  message id, counting from 0 on each connection
//	[12]    1 when the message was sent marked
//	[13]    generator connection (or churn worker) index
//	[14:16] payload length modulo 65536
type Stamp struct {
	At     int64
	ID     uint32
	Marked bool
	Conn   uint8
}

// StampLen is the size of the payload header.
const StampLen = 16

// Pattern is the seeded byte field message bodies are cut from. Cutting a
// body is a copy and checking one is a compare, so neither end spends
// measurable CPU generating or verifying payloads.
type Pattern struct {
	seed uint64
	b    []byte
}

const patternLen = 1 << 16

// NewPattern builds the body field for a seed; maxBody is the largest body
// any message will carry.
func NewPattern(seed uint64, maxBody int) *Pattern {
	r := rand.New(rand.NewPCG(seed, 0x9a77e2))
	b := make([]byte, patternLen+maxBody)
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.Uint64())
	}
	return &Pattern{seed: seed, b: b}
}

// mix is splitmix64's finaliser: a stateless hash both ends evaluate.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (p *Pattern) key(conn uint8, id uint32) uint64 {
	return mix(p.seed ^ uint64(conn)<<32 ^ uint64(id))
}

// body returns the n body bytes of message (conn, id).
func (p *Pattern) body(conn uint8, id uint32, n int) []byte {
	off := int(p.key(conn, id) % patternLen)
	return p.b[off : off+n]
}

// Marked reports whether message (conn, id) is sent marked when a share
// `unmarked` of the traffic is not.
func (p *Pattern) Marked(conn uint8, id uint32, unmarked float64) bool {
	if unmarked <= 0 {
		return true
	}
	u := float64(p.key(conn, id)>>11) / (1 << 53)
	return u >= unmarked
}

// Fill writes message (conn, id) into buf (whose length is the message
// size) and returns whether it is to be sent marked.
func (p *Pattern) Fill(buf []byte, at int64, conn uint8, id uint32, unmarked float64) bool {
	marked := p.Marked(conn, id, unmarked)
	binary.BigEndian.PutUint64(buf[0:], uint64(at))
	binary.BigEndian.PutUint32(buf[8:], id)
	buf[12] = 0
	if marked {
		buf[12] = 1
	}
	buf[13] = conn
	binary.BigEndian.PutUint16(buf[14:], uint16(len(buf)))
	copy(buf[StampLen:], p.body(conn, id, len(buf)-StampLen))
	return marked
}

// ParseStamp reads a payload's header.
func ParseStamp(data []byte) (Stamp, bool) {
	if len(data) < StampLen || binary.BigEndian.Uint16(data[14:]) != uint16(len(data)) {
		return Stamp{}, false
	}
	return Stamp{
		At:     int64(binary.BigEndian.Uint64(data[0:])),
		ID:     binary.BigEndian.Uint32(data[8:]),
		Marked: data[12] == 1,
		Conn:   data[13],
	}, true
}

// Due is the instant message k of an open-loop connection is to be sent:
// a fixed grid from start, with connections offset against each other so
// their sends interleave.
func Due(start time.Time, rate float64, conn, conns int, k uint32) time.Time {
	period := float64(time.Second) / rate
	phase := period * float64(conn) / float64(conns)
	return start.Add(time.Duration(period*float64(k) + phase))
}
