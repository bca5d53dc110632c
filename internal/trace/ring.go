package trace

import "sync"

// ringChunk is how many events the ring allocates at a time. Slots are
// allocated a chunk at a time as the ring first fills, so a short-lived
// connection pays only for the events it actually traces; 4 × 192 B events
// fill one 768 B size class exactly.
const ringChunk = 4

// Ring is a fixed-size ring buffer of events: the always-on flight
// recorder. Events are stored by value, so tracing allocates nothing once
// the ring has filled; a mutex makes concurrent Trace and Events calls safe,
// so concurrent connections can share one ring. Old events are overwritten
// once the buffer wraps.
type Ring struct {
	mu     sync.Mutex
	n      uint64              // capacity in events
	chunks []*[ringChunk]Event // allocated on first write to each
	pos    uint64              // total events ever traced
}

// NewRing returns a ring holding the most recent n events (minimum 1).
func NewRing(n int) *Ring {
	r := new(Ring)
	r.Init(n)
	return r
}

// Init makes r, the zero Ring, a ring holding the most recent n events
// (minimum 1), for a Ring held by value inside its owner.
func (r *Ring) Init(n int) {
	if n < 1 {
		n = 1
	}
	r.n = uint64(n)
	r.chunks = make([]*[ringChunk]Event, (n+ringChunk-1)/ringChunk)
}

// Trace implements Tracer.
func (r *Ring) Trace(ev Event) {
	r.mu.Lock()
	i := r.pos % r.n
	c := r.chunks[i/ringChunk]
	if c == nil {
		c = new([ringChunk]Event)
		r.chunks[i/ringChunk] = c
	}
	c[i%ringChunk] = ev
	r.pos++
	r.mu.Unlock()
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return int(r.n) }

// Total returns the number of events ever traced, including overwritten
// ones.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pos
}

// Dropped returns how many events have been overwritten.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pos > r.n {
		return r.pos - r.n
	}
	return 0
}

// Events snapshots the buffered events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := uint64(0)
	if r.pos > r.n {
		start = r.pos - r.n
	}
	out := make([]Event, 0, r.pos-start)
	for i := start; i < r.pos; i++ {
		j := i % r.n
		out = append(out, r.chunks[j/ringChunk][j%ringChunk])
	}
	return out
}
