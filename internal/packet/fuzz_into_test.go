package packet

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/attr"
)

// FuzzDecodeInto drives the pooled in-place decoder the way the drivers do:
// one recycled Packet across many datagrams, payload storage reused between
// decodes. DecodeInto must agree with the allocating Decode on every input —
// same accept/reject verdict, same decoded fields — with no state leaking
// from whatever the packet held before.
// Run with: go test -fuzz=FuzzDecodeInto ./internal/packet
func FuzzDecodeInto(f *testing.F) {
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

	prior, err := Encode(&Packet{
		Type: DATA, Flags: FlagMarked | FlagFwd, ConnID: 9, Seq: 77, Fwd: 80,
		MsgID: 76, Frag: 1, FragCnt: 2, Payload: []byte("prior-payload-to-overwrite"),
	})
	if err != nil {
		f.Fatalf("encoding prior packet: %v", err)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		fresh, freshErr := Decode(b)

		p := Get()
		defer Put(p)
		// Dirty the recycled packet with a successful decode first:
		// DecodeInto overwrites every field, so nothing from this packet may
		// survive into the next result (the drivers recycle one packet
		// across a whole receive batch).
		if err := DecodeInto(p, prior, p.Payload); err != nil {
			t.Fatalf("prior decode failed: %v", err)
		}

		err := DecodeInto(p, b, p.Payload)
		if (err == nil) != (freshErr == nil) {
			t.Fatalf("DecodeInto err=%v but Decode err=%v", err, freshErr)
		}
		if err != nil {
			return
		}
		if p.Type != fresh.Type || p.Flags != fresh.Flags || p.ConnID != fresh.ConnID ||
			p.Seq != fresh.Seq || p.Ack != fresh.Ack || p.Fwd != fresh.Fwd ||
			p.Wnd != fresh.Wnd || p.MsgID != fresh.MsgID || p.Frag != fresh.Frag ||
			p.FragCnt != fresh.FragCnt || p.TS != fresh.TS || p.TSEcho != fresh.TSEcho {
			t.Fatalf("header mismatch:\nDecodeInto %+v\nDecode     %+v", p, fresh)
		}
		if !bytes.Equal(p.Payload, fresh.Payload) {
			t.Fatalf("payload mismatch: %q vs %q", p.Payload, fresh.Payload)
		}
		if !slices.Equal(p.Eacks, fresh.Eacks) {
			t.Fatalf("eacks mismatch: %v vs %v", p.Eacks, fresh.Eacks)
		}
		if p.Attrs.Len() != fresh.Attrs.Len() {
			t.Fatalf("attrs mismatch: %d vs %d entries", p.Attrs.Len(), fresh.Attrs.Len())
		}
	})
}
