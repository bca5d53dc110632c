package core

import (
	"time"

	"github.com/cercs/iqrudp/internal/attr"
	"github.com/cercs/iqrudp/internal/packet"
)

// Timer is a cancellable deadline armed through the Env.
//
// Handle lifecycle (the recycling contract): a Timer handle is live from
// the After call that returned it until either Stop is called on it or its
// callback begins executing — whichever comes first. After that the handle
// is spent: the environment is free to recycle it for a later After, so a
// retained spent handle may alias a different logical timer and Stop on it
// could cancel the wrong one. The machine therefore (a) drops its reference
// immediately after every Stop, and (b) clears the owning field at the top
// of every timer callback, before any code that could arm a timer runs.
// Environments with reusable handles (the udpwire wheel adapter) rely on
// this; environments that mint a fresh handle per After (the simulator)
// are trivially compatible.
type Timer interface {
	// Stop cancels the timer, reporting whether it was still pending.
	// False means the timer already fired, was already stopped, or its
	// callback is concurrently being dispatched; in the last case the
	// environment suppresses the callback if the Stop ran inside the
	// machine's serialisation context before the callback entered it.
	Stop() bool
}

// Env is the machine's window on the outside world. All methods are invoked
// from whatever context drives the machine (the simulator event loop or the
// socket driver's lock); the machine itself never creates goroutines and
// never consults wall-clock time. A driver that opens a receive run
// (Machine.BeginRun) sees an ACK emitted no later than its EndRun, inside
// the same serialisation context, so no acknowledgement is ever owed once
// that context is left.
type Env interface {
	// Now returns the current (virtual) time.
	Now() time.Duration

	// Emit hands a packet to the wire. Ownership is symmetric with
	// Machine.HandlePacket: the environment borrows the packet (and its
	// Payload, Eacks and Attrs) only for the duration of the call — the
	// machine stages emissions in a reused scratch packet, so anything the
	// environment keeps past the return must be copied (typically it
	// encodes to bytes immediately). The machine likewise retains no
	// reference to the packet after Emit returns. Emit must not call back
	// into the emitting machine synchronously; drivers queue wire I/O and
	// dispatch inbound packets after the current machine interaction.
	Emit(p *packet.Packet)

	// Deliver hands a reassembled application message up the stack.
	Deliver(msg Message)

	// After arms a timer that invokes fn from the driving context. The
	// returned handle is subject to the Timer recycling contract: the
	// machine passes callbacks cached at construction (never fresh
	// closures), so environments may recycle handles and a steady-state
	// re-arm can be allocation-free.
	After(d time.Duration, fn func()) Timer
}

// Message is a reassembled application message delivered to the receiver.
type Message struct {
	// ID is the sequence number of the message's first fragment. It is
	// unique among the connection's messages (until sequence numbers wrap)
	// and increases with send order; a message whose leading fragments were
	// skipped keeps it, since every fragment names its message as Seq − Frag.
	ID      uint32
	Data    []byte
	Marked  bool
	Partial bool // one or more fragments were skipped (unmarked loss)

	// Attrs carries the quality attributes the sender attached to the
	// message's first fragment (nil when none).
	Attrs *attr.List

	// SentAt is the earliest sender timestamp among the received fragments
	// (a fragment rebuilt by FEC carries that of the packet that completed
	// its repair group), unwrapped from the wire's 32-bit microseconds to
	// the instant nearest the local clock (see packet.TSUnwrap);
	// DeliveredAt is the local delivery time. Their difference is one-way
	// delay in the simulator (clocks are shared there).
	SentAt      time.Duration
	DeliveredAt time.Duration
}
