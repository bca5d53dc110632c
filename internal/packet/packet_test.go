package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/cercs/iqrudp/internal/attr"
)

func sample() *Packet {
	return &Packet{
		Type:    DATA,
		Flags:   FlagMarked | FlagMsgEnd | FlagAck | FlagEcho,
		ConnID:  0xDEADBEEF,
		Seq:     1234,
		Ack:     987,
		Fwd:     0,
		Wnd:     64,
		MsgID:   1232,
		Frag:    2,
		FragCnt: 3,
		TS:      1500 * time.Millisecond,
		TSEcho:  1470 * time.Millisecond,
		Attrs: attr.NewList(
			attr.Attr{Name: attr.AdaptCond, Value: attr.Float(0.15)},
			attr.Attr{Name: attr.AdaptPktSize, Value: attr.Float(0.3)},
		),
		Payload: []byte("scientific data frame"),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := sample()
	b, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != p.WireSize() {
		t.Fatalf("WireSize = %d, encoded %d", p.WireSize(), len(b))
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != p.Type || got.ConnID != p.ConnID || got.Seq != p.Seq ||
		got.Ack != p.Ack || got.Wnd != p.Wnd || got.MsgID != p.MsgID ||
		got.Frag != p.Frag || got.FragCnt != p.FragCnt ||
		got.TS != p.TS || got.TSEcho != p.TSEcho {
		t.Fatalf("header mismatch: %+v vs %+v", got, p)
	}
	if !got.Marked() || !got.MsgEnd() || got.HasFwd() {
		t.Fatal("flag accessors wrong")
	}
	if string(got.Payload) != string(p.Payload) {
		t.Fatalf("payload mismatch: %q", got.Payload)
	}
	if !got.Attrs.Equal(p.Attrs) {
		t.Fatalf("attrs mismatch: %v vs %v", got.Attrs, p.Attrs)
	}
}

func TestEackRoundTrip(t *testing.T) {
	p := &Packet{Type: EACK, Flags: FlagAck, Ack: 10, Eacks: []uint32{12, 13, 17}}
	b, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Eacks) != 3 || got.Eacks[0] != 12 || got.Eacks[2] != 17 {
		t.Fatalf("eacks = %v", got.Eacks)
	}
}

func TestEmptyControlPackets(t *testing.T) {
	for _, typ := range []Type{SYN, SYNACK, ACK, NUL, RST, FIN, FINACK, REPAIR} {
		p := &Packet{Type: typ, ConnID: 1, Seq: 2, Ack: 3}
		b, err := Encode(p)
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		if got.Type != typ {
			t.Fatalf("type = %v, want %v", got.Type, typ)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	b, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	// Flip every byte in turn: each corruption must be rejected (CRC32).
	for i := range b {
		b[i] ^= 0xFF
		if _, err := Decode(b); err == nil {
			t.Fatalf("corruption at byte %d not detected", i)
		}
		b[i] ^= 0xFF
	}
	// Sanity: the pristine buffer still decodes.
	if _, err := Decode(b); err != nil {
		t.Fatal(err)
	}
}

// ackVecBytes returns the encoded EACK trailer (the ack-vector) of p, with
// everything before it and the trailing CRC stripped.
func ackVecBytes(t *testing.T, p *Packet) (full, vec []byte) {
	t.Helper()
	b, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	return b, b[headerLen+ackLen : len(b)-len(p.Payload)-4]
}

func TestAckVecRoundTrip(t *testing.T) {
	cases := [][]uint32{
		nil,
		{12},
		{12, 13, 17},                    // one dense chunk
		{5, 6, 7, 5000},                 // span break forces a second chunk
		{9, 9},                          // duplicate forces a second chunk
		{40, 12, 13},                    // out-of-order start forces a new chunk
		{0xFFFFFFFE, 0xFFFFFFFF, 0, 1},  // circular ascent across the wrap
		{100, 101, 102, 103, 104, 2147}, // last member just inside the span cap
	}
	for _, eacks := range cases {
		p := &Packet{Type: EACK, Flags: FlagAck, Ack: 10, Eacks: eacks}
		b, err := Encode(p)
		if err != nil {
			t.Fatalf("%v: %v", eacks, err)
		}
		if len(b) > p.WireSize() {
			t.Fatalf("%v: WireSize = %d under-reserves, encoded %d", eacks, p.WireSize(), len(b))
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%v: %v", eacks, err)
		}
		if len(got.Eacks) != len(eacks) {
			t.Fatalf("eacks = %v, want %v", got.Eacks, eacks)
		}
		for i := range eacks {
			if got.Eacks[i] != eacks[i] {
				t.Fatalf("eacks = %v, want %v", got.Eacks, eacks)
			}
		}
	}
}

// TestAckVecCompact pins the size win over the old 4-bytes-per-seq list: a
// dense 64-entry window hole pattern must encode in well under a quarter of
// the old trailer.
func TestAckVecCompact(t *testing.T) {
	eacks := make([]uint32, 64)
	for i := range eacks {
		eacks[i] = 1000 + uint32(2*i) // every other seq missing
	}
	old := 2 + 4*len(eacks)
	if got := ackVecSize(eacks); got >= old/4 {
		t.Fatalf("ack-vector size %d, want < %d (old list %d)", got, old/4, old)
	}
}

// TestAckVecTruncated mirrors chaoswire's truncate lane: cutting bytes off
// the vector must be rejected (by length validation once the CRC is fixed
// up), never mis-decoded or panicking.
func TestAckVecTruncated(t *testing.T) {
	p := &Packet{Type: EACK, Flags: FlagAck, Ack: 10, Eacks: []uint32{12, 13, 17, 900}}
	full, vec := ackVecBytes(t, p)
	body := full[: len(full)-4 : len(full)-4]
	for cut := 1; cut <= len(vec); cut++ {
		short := append([]byte(nil), body[:len(body)-cut]...)
		short = binary.BigEndian.AppendUint32(short,
			crc32.Checksum(short, crc32.MakeTable(crc32.Castagnoli)))
		if _, err := Decode(short); err == nil {
			t.Fatalf("truncation of %d vector bytes not rejected", cut)
		}
	}
}

// TestAckVecCorrupt flips each byte of the vector (CRC fixed up, so the
// vector validation itself is exercised): every mutation must either decode
// cleanly or be rejected — never panic — and an inflated chunk byte count
// must be caught by the length checks.
func TestAckVecCorrupt(t *testing.T) {
	p := &Packet{Type: EACK, Flags: FlagAck, Ack: 10, Eacks: []uint32{12, 13, 17, 900}}
	full, vec := ackVecBytes(t, p)
	start := len(full) - 4 - len(vec)
	for i := 0; i < len(vec); i++ {
		for _, x := range []byte{0xFF, 0x80, 0x01} {
			mut := append([]byte(nil), full[:len(full)-4]...)
			mut[start+i] ^= x
			mut = binary.BigEndian.AppendUint32(mut,
				crc32.Checksum(mut, crc32.MakeTable(crc32.Castagnoli)))
			q, err := Decode(mut)
			if err == nil && len(q.Eacks) > ackVecSeqsMax {
				t.Fatalf("corrupt vector decoded %d extents", len(q.Eacks))
			}
		}
	}
	// An oversized per-chunk byte count is rejected outright.
	mut := append([]byte(nil), full[:len(full)-4]...)
	binary.BigEndian.PutUint16(mut[start+2+4:], ackVecChunkBytesMax+1)
	mut = binary.BigEndian.AppendUint32(mut,
		crc32.Checksum(mut, crc32.MakeTable(crc32.Castagnoli)))
	if _, err := Decode(mut); err == nil {
		t.Fatal("oversized chunk byte count not rejected")
	}
}

func TestRepairRoundTrip(t *testing.T) {
	p := &Packet{
		Type: REPAIR, ConnID: 5, Seq: 1000, FragCnt: 8,
		TS: time.Second, Payload: []byte("parity-bytes"),
	}
	b, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != REPAIR || got.Seq != 1000 || got.FragCnt != 8 ||
		string(got.Payload) != "parity-bytes" {
		t.Fatalf("repair round trip: %+v", got)
	}
	if REPAIR.String() != "REPAIR" {
		t.Fatalf("REPAIR name = %q", REPAIR.String())
	}
}

func TestDecodeShort(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrShort) {
		t.Fatalf("nil err = %v", err)
	}
	if _, err := Decode(make([]byte, 10)); !errors.Is(err, ErrShort) {
		t.Fatalf("short err = %v", err)
	}
}

func TestDecodeBadVersion(t *testing.T) {
	b, _ := Encode(sample())
	b[0] = 9<<4 | byte(DATA)
	// Recompute the CRC so the version check (not the CRC) rejects.
	body := b[:len(b)-4]
	binary.BigEndian.PutUint32(b[len(b)-4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if _, err := Decode(b); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version err = %v", err)
	}
	// A well-formed version 2 datagram: the 47-byte fixed header (version
	// byte 2, type, flags, connID, seq, ack, fwd, wnd, msgID, frag,
	// fragCnt, 8-byte ts and tsEcho, payloadLen), payload, CRC-32C.
	v2 := []byte{2, byte(DATA), FlagMarked | FlagMsgEnd}
	for _, v := range []uint32{7, 100, 50, 0} { // connID seq ack fwd
		v2 = binary.BigEndian.AppendUint32(v2, v)
	}
	v2 = binary.BigEndian.AppendUint16(v2, 64)  // wnd
	v2 = binary.BigEndian.AppendUint32(v2, 100) // msgID
	v2 = binary.BigEndian.AppendUint16(v2, 0)   // frag
	v2 = binary.BigEndian.AppendUint16(v2, 1)   // fragCnt
	v2 = binary.BigEndian.AppendUint64(v2, uint64(time.Second))
	v2 = binary.BigEndian.AppendUint64(v2, 0)
	v2 = binary.BigEndian.AppendUint16(v2, 4)
	v2 = append(v2, "seed"...)
	if len(v2) != 47+4 {
		t.Fatalf("v2 datagram is %d bytes before the CRC, want 51", len(v2))
	}
	v2 = binary.BigEndian.AppendUint32(v2, crc32.Checksum(v2, crc32.MakeTable(crc32.Castagnoli)))
	if _, err := Decode(v2); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version 2 datagram: err = %v, want ErrBadVersion", err)
	}
}

func TestEncodeBadType(t *testing.T) {
	if _, err := Encode(&Packet{Type: 0}); !errors.Is(err, ErrBadType) {
		t.Fatalf("bad type err = %v", err)
	}
	if _, err := Encode(&Packet{Type: 100}); !errors.Is(err, ErrBadType) {
		t.Fatalf("bad type err = %v", err)
	}
}

func TestEncodePayloadTooLarge(t *testing.T) {
	p := &Packet{Type: DATA, Payload: make([]byte, 70000)}
	if _, err := Encode(p); err == nil {
		t.Fatal("oversized payload not rejected")
	}
}

func TestTypeString(t *testing.T) {
	if DATA.String() != "DATA" || SYN.String() != "SYN" || FINACK.String() != "FINACK" {
		t.Fatal("type names wrong")
	}
	if !strings.Contains(Type(77).String(), "77") {
		t.Fatal("unknown type should carry number")
	}
}

func TestPacketString(t *testing.T) {
	s := sample().String()
	if !strings.Contains(s, "DATA*") || !strings.Contains(s, "seq=1234") {
		t.Fatalf("String = %q", s)
	}
}

// Property: arbitrary field combinations round-trip exactly once put in
// canonical form: fields the flags do not announce are zero, FragCnt is 1
// without fragment fields, timestamps are whole microseconds below the
// wrap, and MsgID is what the decoder derives.
func TestQuickRoundTrip(t *testing.T) {
	f := func(typRaw uint8, flags uint8, connID, seq, ack, fwd uint32,
		wnd uint16, frag, fragCnt uint16, ts, tsEcho uint32,
		payload []byte, eacks []uint32) bool {
		typ := Type(typRaw%11) + 1
		if len(payload) > 0xFFFF {
			payload = payload[:0xFFFF]
		}
		if len(eacks) > 64 {
			eacks = eacks[:64]
		}
		p := &Packet{
			Type: typ, Flags: flags & (FlagMarked | FlagMsgEnd | FlagAck | FlagEcho | FlagFwd),
			ConnID: connID, Seq: seq, Frag: frag, FragCnt: fragCnt,
			TS: time.Duration(ts) * time.Microsecond, Payload: payload,
		}
		canonical(p, ack, wnd, fwd, time.Duration(tsEcho)*time.Microsecond)
		if typ == EACK {
			p.Eacks = eacks
		}
		b, err := Encode(p)
		if err != nil || len(b) != p.WireSize() {
			return false
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		return samePacket(got, p) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// canonical fills p's flag-announced fields from the given values and puts
// the rest in the form the decoder produces.
func canonical(p *Packet, ack uint32, wnd uint16, fwd uint32, tsEcho time.Duration) {
	if p.HasAck() {
		p.Ack, p.Wnd = ack, wnd
	}
	if p.HasEcho() {
		p.TSEcho = tsEcho
	}
	if p.HasFwd() {
		p.Fwd = fwd
	}
	if p.Frag == 0 && p.FragCnt <= 1 {
		p.FragCnt = 1
	} else {
		p.Flags |= FlagFrag
	}
	if p.Attrs.Len() > 0 {
		p.Flags |= FlagHasAttrs
	}
	if p.Type == DATA {
		p.MsgID = p.Seq - uint32(p.Frag)
	}
	if len(p.Payload) == 0 {
		p.Payload = nil
	}
}

// samePacket describes the first field where got differs from want ("" when
// they are equal).
func samePacket(got, want *Packet) string {
	if !got.Attrs.Equal(want.Attrs) {
		return fmt.Sprintf("attrs %v, want %v", got.Attrs, want.Attrs)
	}
	g, w := *got, *want
	g.Attrs, w.Attrs = nil, nil
	if len(g.Eacks) == 0 && len(w.Eacks) == 0 {
		g.Eacks, w.Eacks = nil, nil
	}
	if !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("\n got %+v\nwant %+v", g, w)
	}
	return ""
}

// TestRoundTripTable encodes every packet type with every combination of
// the optional header fields — ack block, timestamp echo, forward point,
// fragment fields, attribute block — with and without a payload, and checks
// that decoding returns the packet unchanged and WireSize is the exact
// encoded length.
func TestRoundTripTable(t *testing.T) {
	const (
		optAck = 1 << iota
		optEcho
		optFwd
		optFrag
		optAttrs
		optPayload
		optAll
	)
	for typ := SYN; typ <= RETRY; typ++ {
		for opts := 0; opts < optAll; opts++ {
			p := &Packet{
				Type: typ, Flags: FlagMarked, ConnID: 0xC0FFEE, Seq: 0xFFFFFFF0,
				TS: 0x89ABCDEF * time.Microsecond,
			}
			if opts&optAck != 0 {
				p.Flags |= FlagAck
			}
			if opts&optEcho != 0 {
				p.Flags |= FlagEcho
			}
			if opts&optFwd != 0 {
				p.Flags |= FlagFwd
			}
			if opts&optFrag != 0 {
				p.Frag, p.FragCnt = 3, 12
				p.Flags |= FlagMsgEnd
			}
			if opts&optAttrs != 0 {
				p.Attrs = attr.NewList(attr.Attr{Name: attr.AdaptCond, Value: attr.Float(0.25)})
			}
			if opts&optPayload != 0 {
				p.Payload = []byte("payload bytes")
			}
			if typ == EACK {
				p.Eacks = []uint32{0xFFFFFFF2, 0xFFFFFFF4, 3}
			}
			canonical(p, 0xFFFFFFF1, 512, 0xFFFFFFF3, 0xFFFFFFFF*time.Microsecond)
			name := fmt.Sprintf("%v/opts=%06b", typ, opts)
			b, err := Encode(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(b) != p.WireSize() {
				t.Fatalf("%s: WireSize = %d, encoded %d", name, p.WireSize(), len(b))
			}
			got, err := Decode(b)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if d := samePacket(got, p); d != "" {
				t.Fatalf("%s: %s", name, d)
			}
		}
	}
}

// TestHeaderSizes pins the version 3 overheads (header plus checksum) of
// the packets that dominate the wire.
func TestHeaderSizes(t *testing.T) {
	for _, c := range []struct {
		name string
		p    *Packet
		want int
	}{
		{"single-fragment DATA", &Packet{Type: DATA, Flags: FlagMarked | FlagMsgEnd, FragCnt: 1}, 18},
		{"multi-fragment DATA", &Packet{Type: DATA, Flags: FlagMarked, Frag: 3, FragCnt: 12}, 22},
		{"ACK with echo", &Packet{Type: ACK, Flags: FlagAck | FlagEcho}, 28},
		{"RETRY", &Packet{Type: RETRY}, 18},
	} {
		if got := c.p.WireSize(); got != c.want {
			t.Errorf("%s: overhead %d bytes, want %d", c.name, got, c.want)
		}
	}
}

// TestDecodeNonCanonical: header fields the encoder never announces without
// content are rejected, so every accepted datagram re-encodes identically.
func TestDecodeNonCanonical(t *testing.T) {
	reframe := func(body []byte) []byte {
		return binary.BigEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	}
	fixed := func(flags uint8) []byte {
		b := []byte{Version<<4 | byte(DATA), flags}
		return append(b, make([]byte, 12)...)
	}
	for name, b := range map[string][]byte{
		"default fragment fields": reframe(append(fixed(FlagFrag), 0, 0, 0, 1)),
		"empty attribute block":   reframe(append(fixed(FlagHasAttrs), 0)),
		"unknown flag":            reframe(fixed(0x80)),
		"truncated ack block":     reframe(append(fixed(FlagAck), 0, 0, 0)),
	} {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: decoded, want rejection", name)
		}
	}
}

// TestTimestampWrap: wire timestamps are 32-bit microseconds. TSSince and
// TSUnwrap must give the right answers when the clock crosses the wrap
// between the two instants.
func TestTimestampWrap(t *testing.T) {
	const wrap = time.Duration(1<<32) * time.Microsecond
	sent := wrap - 3*time.Millisecond
	p := &Packet{Type: DATA, TS: sent, Flags: FlagEcho, TSEcho: sent - time.Millisecond}
	b, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.TS != sent {
		t.Fatalf("TS = %v, want %v", q.TS, sent)
	}
	now := wrap + 17*time.Millisecond // past the wrap
	if got := TSSince(now, q.TS); got != 20*time.Millisecond {
		t.Fatalf("TSSince across the wrap = %v, want 20ms", got)
	}
	// A second period later the wire value is the same; unwrapping against
	// the local clock recovers the right period.
	p.TS = sent + wrap
	b, _ = Encode(p)
	q, _ = Decode(b)
	if got := TSUnwrap(q.TS, now+wrap); got != sent+wrap {
		t.Fatalf("TSUnwrap = %v, want %v", got, sent+wrap)
	}
	if got := TSUnwrap(q.TS, sent+wrap-time.Second); got != sent+wrap {
		t.Fatalf("TSUnwrap with ref before ts = %v, want %v", got, sent+wrap)
	}
}

// Property: Decode never panics on arbitrary bytes.
func TestQuickDecodeRobust(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqArithmetic(t *testing.T) {
	if !SeqLT(1, 2) || SeqLT(2, 1) || SeqLT(5, 5) {
		t.Fatal("SeqLT basic")
	}
	// Wraparound: numbers just past the wrap point compare correctly.
	hi := uint32(math.MaxUint32)
	if !SeqLT(hi, 0) || !SeqLT(hi-5, hi) || !SeqGT(2, hi) {
		t.Fatal("SeqLT wraparound")
	}
	if !SeqLEQ(5, 5) || !SeqGEQ(5, 5) {
		t.Fatal("SeqLEQ/GEQ reflexivity")
	}
	if SeqMax(hi, 2) != 2 || SeqMax(7, 3) != 7 {
		t.Fatal("SeqMax")
	}
	if SeqDiff(10, 7) != 3 || SeqDiff(7, 10) != -3 {
		t.Fatal("SeqDiff")
	}
	if SeqDiff(2, hi) != 3 {
		t.Fatalf("SeqDiff wrap = %d", SeqDiff(2, hi))
	}
}

// Property: for any a and small positive delta, a < a+delta in seq space.
func TestQuickSeqOrdering(t *testing.T) {
	f := func(a uint32, d uint16) bool {
		delta := uint32(d)%1000 + 1
		b := a + delta
		return SeqLT(a, b) && SeqGT(b, a) && SeqDiff(b, a) == int32(delta) &&
			SeqMax(a, b) == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	p := sample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err := Encode(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
