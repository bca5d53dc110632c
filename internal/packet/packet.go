// Package packet defines the IQ-RUDP wire format. It follows the shape of
// the Reliable UDP draft (connection-oriented datagrams with sequence and
// acknowledgement numbers, an EACK for out-of-order receipt) extended with
// the fields IQ-RUDP needs: a marked/unmarked reliability flag, a forward
// sequence number for skipping abandoned unmarked packets, message
// fragmentation headers, timestamps for RTT measurement, and a piggybacked
// quality-attribute block.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"github.com/cercs/iqrudp/internal/attr"
)

// Type identifies the packet's role in the protocol.
type Type uint8

// Packet types.
const (
	SYN    Type = iota + 1 // connection request; carries negotiated options
	SYNACK                 // connection accept
	DATA                   // data segment
	ACK                    // pure acknowledgement
	EACK                   // acknowledgement with out-of-order extents
	NUL                    // keepalive / probe
	RST                    // abort
	FIN                    // orderly close
	FINACK                 // close acknowledgement
	REPAIR                 // FEC repair: parity over a group of DATA packets
	RETRY                  // stateless address validation: echo the cookie in a fresh SYN
)

// String returns the type mnemonic.
func (t Type) String() string {
	switch t {
	case SYN:
		return "SYN"
	case SYNACK:
		return "SYNACK"
	case DATA:
		return "DATA"
	case ACK:
		return "ACK"
	case EACK:
		return "EACK"
	case NUL:
		return "NUL"
	case RST:
		return "RST"
	case FIN:
		return "FIN"
	case FINACK:
		return "FINACK"
	case REPAIR:
		return "REPAIR"
	case RETRY:
		return "RETRY"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Header flags. FlagMarked and FlagMsgEnd carry protocol meaning; the rest
// announce optional header fields (see the layout below). FlagHasAttrs and
// FlagFrag are derived by the encoder from the packet's contents; FlagAck,
// FlagEcho and FlagFwd are set by the sender, which decides whether the
// field means anything on this packet.
const (
	// FlagMarked labels a DATA packet that must be delivered reliably
	// ("tagged" in the paper's experiments). Unmarked DATA may be abandoned
	// within the receiver's loss tolerance.
	FlagMarked uint8 = 1 << iota
	// FlagHasAttrs indicates a quality-attribute block follows the header.
	FlagHasAttrs
	// FlagFwd indicates the Fwd field is present: the receiver may advance
	// its in-order point past all sequence numbers < Fwd.
	FlagFwd
	// FlagMsgEnd marks the final fragment of an application message.
	FlagMsgEnd
	// FlagAck indicates the Ack and Wnd fields are present.
	FlagAck
	// FlagEcho indicates the TSEcho field is present.
	FlagEcho
	// FlagFrag indicates the Frag and FragCnt fields are present: the packet
	// is one fragment of a multi-fragment message (or, on REPAIR, covers a
	// span other than one).
	FlagFrag

	// flagsKnown is every defined flag; a datagram with another bit set is
	// rejected, since its header may hold fields this decoder cannot skip.
	flagsKnown = FlagMarked | FlagHasAttrs | FlagFwd | FlagMsgEnd | FlagAck | FlagEcho | FlagFrag
)

// Version is the wire format version, carried in the high nibble of the
// first byte. Version 3 replaced version 2's fixed 47-byte header with a
// 14-byte fixed part and flag-announced optional fields, and narrowed the
// timestamps to 32-bit wrapping microseconds. Version 2 carried the EACK
// ack-vector and the REPAIR type, which version 3 keeps unchanged.
const Version = 3

// The version 3 layout (all integers big-endian):
//
//	fixed   version<<4|type(1) flags(1) connID(4) seq(4) ts(4)   14 bytes
//	FlagAck       ack(4) wnd(2)
//	FlagEcho      tsEcho(4)
//	FlagFwd       fwd(4)
//	FlagFrag      frag(2) fragCnt(2)
//	FlagHasAttrs  attribute block (internal/attr)
//	EACK          ack-vector (see appendAckVec)
//	payload       the rest of the datagram
//	crc32c(4)
//
// The payload length is the datagram's; MsgID is not carried (see Packet).
const (
	headerLen = 1 + 1 + 4 + 4 + 4
	ackLen    = 4 + 2
	echoLen   = 4
	fwdLen    = 4
	fragLen   = 2 + 2
	crcLen    = 4
)

// Overhead is the smallest per-packet byte overhead: the fixed header and
// the checksum, with no optional field, attribute block or payload.
const Overhead = headerLen + crcLen

// MinSynSize is the smallest SYN datagram a server answers. A SYN carries
// the ack block (its receive window) and the handshake attributes, so the
// machine's SYN is larger by construction; the floor exists so that a
// spoofed minimal SYN cannot elicit a RETRY larger than itself.
const MinSynSize = 40

// tsUnit is the resolution of the wire timestamps: TS and TSEcho travel as
// 32-bit counts of microseconds, wrapping every 2^32 µs (about 71.6 min).
const tsUnit = time.Microsecond

// Packet is a decoded IQ-RUDP packet. A field the header does not carry
// decodes to its zero value, except FragCnt (1, a message of one fragment)
// and MsgID (derived, see below).
type Packet struct {
	Type   Type
	Flags  uint8
	ConnID uint32

	Seq uint32 // packet sequence number (DATA), group base (REPAIR), or next-to-send for control
	Ack uint32 // cumulative ack: next expected sequence number (with FlagAck)
	Fwd uint32 // forward-seq point (with FlagFwd)
	Wnd uint16 // advertised receive window, packets (with FlagAck)

	// MsgID names the application message a DATA fragment belongs to: the
	// sequence number of the message's first fragment. Fragments of one
	// message take contiguous sequence numbers, so it is never sent; the
	// decoder derives it as Seq − Frag (zero on other packet types), and the
	// encoder ignores it.
	MsgID   uint32
	Frag    uint16 // fragment index within the message
	FragCnt uint16 // total fragments in the message; group span for REPAIR

	// TS is the sender's timestamp and TSEcho (with FlagEcho) the echoed
	// one. Both travel as wrapping 32-bit microseconds, so a decoded value
	// lies in [0, 2^32 µs): compare and subtract them with TSSince and
	// TSUnwrap, never directly against a local clock.
	TS     time.Duration
	TSEcho time.Duration

	Attrs   *attr.List
	Payload []byte

	// Eacks lists out-of-order sequence numbers received, carried by EACK
	// packets between header and payload. On the wire the list is the
	// chunked base+bitmask ack-vector (see appendAckVec); the decoded
	// []uint32 surface is unchanged, so EACK consumers never see the
	// compression.
	Eacks []uint32
}

// Marked reports whether the packet is marked must-deliver.
func (p *Packet) Marked() bool { return p.Flags&FlagMarked != 0 }

// MsgEnd reports whether the packet is the last fragment of its message.
func (p *Packet) MsgEnd() bool { return p.Flags&FlagMsgEnd != 0 }

// HasFwd reports whether Fwd is meaningful.
func (p *Packet) HasFwd() bool { return p.Flags&FlagFwd != 0 }

// HasAck reports whether Ack and Wnd are meaningful.
func (p *Packet) HasAck() bool { return p.Flags&FlagAck != 0 }

// HasEcho reports whether TSEcho is meaningful.
func (p *Packet) HasEcho() bool { return p.Flags&FlagEcho != 0 }

// wireFlags returns the flags byte the encoder writes: the sender's flags
// with the content-derived presence bits (attributes, fragment fields) set
// from the packet itself.
func (p *Packet) wireFlags() uint8 {
	flags := p.Flags &^ (FlagHasAttrs | FlagFrag)
	if p.Attrs.Len() > 0 {
		flags |= FlagHasAttrs
	}
	if p.Frag != 0 || p.FragCnt > 1 {
		flags |= FlagFrag
	}
	return flags
}

// WireSize returns the encoded size in bytes, including the optional header
// fields, attribute block, EACK ack-vector, payload and checksum.
func (p *Packet) WireSize() int {
	flags := p.wireFlags()
	n := Overhead + len(p.Payload)
	if flags&FlagAck != 0 {
		n += ackLen
	}
	if flags&FlagEcho != 0 {
		n += echoLen
	}
	if flags&FlagFwd != 0 {
		n += fwdLen
	}
	if flags&FlagFrag != 0 {
		n += fragLen
	}
	if flags&FlagHasAttrs != 0 {
		n += p.Attrs.EncodedSize()
	}
	if p.Type == EACK {
		n += ackVecSize(p.Eacks)
	}
	return n
}

// String renders a compact debugging form.
func (p *Packet) String() string {
	m := ""
	if p.Marked() {
		m = "*"
	}
	return fmt.Sprintf("%s%s seq=%d ack=%d wnd=%d len=%d", p.Type, m, p.Seq, p.Ack, p.Wnd, len(p.Payload))
}

// Codec errors.
var (
	ErrShort       = errors.New("packet: buffer too short")
	ErrBadVersion  = errors.New("packet: unknown version")
	ErrBadType     = errors.New("packet: unknown packet type")
	ErrBadFlags    = errors.New("packet: unknown header flags")
	ErrBadChecksum = errors.New("packet: checksum mismatch")
	ErrBadLength   = errors.New("packet: inconsistent length fields")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Encode serialises the packet into a freshly allocated buffer.
func Encode(p *Packet) ([]byte, error) {
	return AppendEncode(make([]byte, 0, p.WireSize()), p)
}

// AppendEncode serialises the packet, appending the encoding to dst and
// returning the extended slice. Callers on the fast path pass a retained
// scratch buffer (dst[:0]) so steady-state encoding allocates nothing.
func AppendEncode(dst []byte, p *Packet) ([]byte, error) {
	if p.Type < SYN || p.Type > RETRY {
		return nil, fmt.Errorf("%w: %d", ErrBadType, p.Type)
	}
	if p.Flags&^flagsKnown != 0 {
		return nil, fmt.Errorf("%w: %#x", ErrBadFlags, p.Flags)
	}
	if len(p.Payload) > 0xFFFF {
		return nil, fmt.Errorf("packet: payload too large (%d)", len(p.Payload))
	}
	flags := p.wireFlags()
	b := dst
	start := len(b)
	b = append(b, Version<<4|byte(p.Type), flags)
	b = binary.BigEndian.AppendUint32(b, p.ConnID)
	b = binary.BigEndian.AppendUint32(b, p.Seq)
	b = binary.BigEndian.AppendUint32(b, tsWire(p.TS))
	if flags&FlagAck != 0 {
		b = binary.BigEndian.AppendUint32(b, p.Ack)
		b = binary.BigEndian.AppendUint16(b, p.Wnd)
	}
	if flags&FlagEcho != 0 {
		b = binary.BigEndian.AppendUint32(b, tsWire(p.TSEcho))
	}
	if flags&FlagFwd != 0 {
		b = binary.BigEndian.AppendUint32(b, p.Fwd)
	}
	if flags&FlagFrag != 0 {
		b = binary.BigEndian.AppendUint16(b, p.Frag)
		b = binary.BigEndian.AppendUint16(b, p.FragCnt)
	}
	if flags&FlagHasAttrs != 0 {
		var err error
		b, err = attr.AppendEncode(b, p.Attrs)
		if err != nil {
			return nil, err
		}
	}
	if p.Type == EACK {
		var err error
		if b, err = appendAckVec(b, p.Eacks); err != nil {
			return nil, err
		}
	}
	b = append(b, p.Payload...)
	b = binary.BigEndian.AppendUint32(b, crc32.Checksum(b[start:], crcTable))
	return b, nil
}

// Decode parses a packet, verifying version, type, lengths and checksum.
// The payload (if any) is copied into a fresh allocation; b may be reused.
func Decode(b []byte) (*Packet, error) {
	p := new(Packet)
	if err := DecodeInto(p, b, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto parses a packet into p, verifying version, type, flags,
// lengths and checksum. Every field of p is overwritten. The payload is
// copied into payloadBuf (grown as needed; pass p.Payload[:0]-style scratch
// to recycle storage, or nil for a fresh right-sized allocation) and
// p.Eacks reuses its prior backing array, so a pooled Packet decodes with
// zero allocations in steady state. b is not retained.
func DecodeInto(p *Packet, b []byte, payloadBuf []byte) error {
	if len(b) < headerLen+crcLen {
		return ErrShort
	}
	body, sum := b[:len(b)-crcLen], binary.BigEndian.Uint32(b[len(b)-crcLen:])
	if crc32.Checksum(body, crcTable) != sum {
		return ErrBadChecksum
	}
	if body[0]>>4 != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, body[0]>>4)
	}
	p.Type, p.Flags = Type(body[0]&0x0F), body[1]
	if p.Type < SYN || p.Type > RETRY {
		return fmt.Errorf("%w: %d", ErrBadType, p.Type)
	}
	if p.Flags&^flagsKnown != 0 {
		return fmt.Errorf("%w: %#x", ErrBadFlags, p.Flags)
	}
	p.ConnID = binary.BigEndian.Uint32(body[2:])
	p.Seq = binary.BigEndian.Uint32(body[6:])
	p.TS = tsLocal(binary.BigEndian.Uint32(body[10:]))
	p.Ack, p.Wnd, p.TSEcho, p.Fwd, p.Frag, p.FragCnt = 0, 0, 0, 0, 0, 1
	p.Attrs = nil
	p.Eacks = p.Eacks[:0]
	off := headerLen
	if p.Flags&FlagAck != 0 {
		if off+ackLen > len(body) {
			return ErrBadLength
		}
		p.Ack = binary.BigEndian.Uint32(body[off:])
		p.Wnd = binary.BigEndian.Uint16(body[off+4:])
		off += ackLen
	}
	if p.Flags&FlagEcho != 0 {
		if off+echoLen > len(body) {
			return ErrBadLength
		}
		p.TSEcho = tsLocal(binary.BigEndian.Uint32(body[off:]))
		off += echoLen
	}
	if p.Flags&FlagFwd != 0 {
		if off+fwdLen > len(body) {
			return ErrBadLength
		}
		p.Fwd = binary.BigEndian.Uint32(body[off:])
		off += fwdLen
	}
	if p.Flags&FlagFrag != 0 {
		if off+fragLen > len(body) {
			return ErrBadLength
		}
		p.Frag = binary.BigEndian.Uint16(body[off:])
		p.FragCnt = binary.BigEndian.Uint16(body[off+2:])
		off += fragLen
		if p.Frag == 0 && p.FragCnt <= 1 {
			// The encoder announces these fields only when they differ
			// from the defaults; a non-canonical header is malformed.
			return ErrBadLength
		}
	}
	p.MsgID = 0
	if p.Type == DATA {
		p.MsgID = p.Seq - uint32(p.Frag)
	}
	if p.Flags&FlagHasAttrs != 0 {
		attrs, n, err := attr.Decode(body[off:])
		if err != nil {
			return fmt.Errorf("packet: attribute block: %w", err)
		}
		if attrs.Len() == 0 {
			return ErrBadLength // announced but empty: not canonical
		}
		p.Attrs = attrs
		off += n
	}
	if p.Type == EACK {
		n, err := decodeAckVec(p, body[off:])
		if err != nil {
			return err
		}
		off += n
	}
	p.Payload = append(payloadBuf[:0], body[off:]...)
	return nil
}

// tsWire is the wire form of a timestamp: microseconds, modulo 2^32.
func tsWire(d time.Duration) uint32 { return uint32(d / tsUnit) }

// tsLocal widens a wire timestamp back to a Duration in [0, 2^32 µs).
func tsLocal(w uint32) time.Duration { return time.Duration(w) * tsUnit }

// TSSince returns the time elapsed from timestamp ts to now on the same
// clock, modulo the wire timestamps' 2^32 µs wrap: exact (to the
// microsecond) for any interval shorter than the wrap, whether ts came off
// the wire or straight from the clock. RTT samples use it.
func TSSince(now, ts time.Duration) time.Duration {
	return tsLocal(tsWire(now) - tsWire(ts))
}

// TSUnwrap maps timestamp ts back onto the local clock: it returns the
// instant congruent to ts modulo the 2^32 µs wrap that lies nearest ref
// (within half a wrap, about 35.8 min). With a shared clock and ref = now it
// recovers the sender's original timestamp.
func TSUnwrap(ts, ref time.Duration) time.Duration {
	r := ref / tsUnit
	return (r + time.Duration(int32(tsWire(ts)-uint32(r)))) * tsUnit
}
