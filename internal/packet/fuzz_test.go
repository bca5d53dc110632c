package packet

import (
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/attr"
)

// Fuzz targets: the decoders face arbitrary network bytes, so they must
// never panic and must reject anything that fails validation cleanly.
// Run with: go test -fuzz=FuzzDecode ./internal/packet

// addAckVecSeeds seeds a fuzzer with ack-vector shapes the structured tests
// care about: multi-chunk vectors, wraparound bases, and the truncated /
// corrupted variants chaoswire's truncate and corrupt lanes produce.
func addAckVecSeeds(f *testing.F) {
	for _, eacks := range [][]uint32{
		{12, 13, 17, 900},
		{0xFFFFFFFE, 0xFFFFFFFF, 0, 1},
		{5, 6, 7, 5000, 5001},
	} {
		p := &Packet{Type: EACK, Flags: FlagAck, ConnID: 7, Ack: 10, Eacks: eacks}
		b, err := Encode(p)
		if err != nil {
			continue
		}
		f.Add(b)
		// Truncated vector (CRC left stale, as the truncate lane does).
		f.Add(append([]byte(nil), b[:len(b)-6]...))
		// Corrupt chunk header: inflate the first chunk's byte count (the
		// vector follows the fixed header and the ack block; the byte count
		// follows the chunk count and base).
		mut := append([]byte(nil), b...)
		mut[headerLen+ackLen+2+4] ^= 0xFF
		f.Add(mut)
	}
}

func FuzzDecode(f *testing.F) {
	// Seed corpus: valid encodings of each packet type plus mutations the
	// property tests found interesting.
	for _, typ := range []Type{SYN, SYNACK, DATA, ACK, EACK, NUL, RST, FIN, FINACK, REPAIR} {
		for _, flags := range []uint8{FlagMarked, FlagAck | FlagEcho, FlagFwd | FlagMsgEnd} {
			p := &Packet{
				Type: typ, Flags: flags, ConnID: 7, Seq: 100, Ack: 50, Fwd: 99,
				Wnd: 64, TS: time.Second, TSEcho: time.Second / 2, Payload: []byte("seed"),
			}
			if typ == EACK {
				p.Eacks = []uint32{101, 103}
			}
			if typ == REPAIR || typ == DATA && flags&FlagMsgEnd != 0 {
				p.Frag, p.FragCnt = 1, 8
			}
			if b, err := Encode(p); err == nil {
				f.Add(b)
			}
		}
	}
	addAckVecSeeds(f)
	pa := &Packet{
		Type: DATA, ConnID: 1, Seq: 2,
		Attrs: attr.NewList(attr.Attr{Name: attr.AdaptCond, Value: attr.Float(0.25)}),
	}
	if b, err := Encode(pa); err == nil {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add(make([]byte, Overhead))

	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Decode(b)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode and decode to the same thing.
		b2, err := Encode(p)
		if err != nil {
			t.Fatalf("decoded packet failed to re-encode: %v (%+v)", err, p)
		}
		p2, err := Decode(b2)
		if err != nil {
			t.Fatalf("re-encoded packet failed to decode: %v", err)
		}
		if p2.Type != p.Type || p2.Seq != p.Seq || p2.Ack != p.Ack ||
			p2.ConnID != p.ConnID || len(p2.Payload) != len(p.Payload) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", p2, p)
		}
	})
}
