package packet

import "encoding/binary"

// Session-resumption token. A dialer that lost its connection (dead
// interval, NAT rebind) renegotiates a fresh ConnID by carrying a token in
// its SYN payload naming the predecessor connection; a ConnID-demultiplexing
// server uses it to evict the predecessor so the successor does not leak a
// zombie entry. The token is covered by the SYN's CRC like any payload; the
// magic prefix keeps it distinguishable from application data should a
// future wire revision put other payloads on SYN.

// resumeMagic prefixes every resume token.
var resumeMagic = [4]byte{'I', 'Q', 'R', 'T'}

// ResumeTokenLen is the encoded token size: magic(4) + predecessor ConnID(4).
const ResumeTokenLen = 8

// AppendResumeToken appends a resume token naming prevID to dst and returns
// the extended slice.
func AppendResumeToken(dst []byte, prevID uint32) []byte {
	dst = append(dst, resumeMagic[:]...)
	return binary.BigEndian.AppendUint32(dst, prevID)
}

// ParseResumeToken extracts the predecessor ConnID from a SYN payload.
// ok is false when the payload is not a resume token.
func ParseResumeToken(b []byte) (prevID uint32, ok bool) {
	if len(b) != ResumeTokenLen || [4]byte(b[:4]) != resumeMagic {
		return 0, false
	}
	return binary.BigEndian.Uint32(b[4:]), true
}

// PeekConnID extracts the connection ID from an encoded datagram without
// decoding or checksum verification — the middlebox path (chaoswire) labels
// fault events by connection while staying oblivious to packet contents.
// ok is false when the buffer is too short to carry the fixed header.
func PeekConnID(b []byte) (id uint32, ok bool) {
	if len(b) < headerLen {
		return 0, false
	}
	return binary.BigEndian.Uint32(b[2:]), true
}

// PeekType extracts the packet type from an encoded datagram, unverified
// like PeekConnID: the serve engine uses the pair to cut a receive batch
// into same-connection runs before any datagram is decoded.
func PeekType(b []byte) (Type, bool) {
	if len(b) < headerLen {
		return 0, false
	}
	return Type(b[0] & 0x0F), true
}
