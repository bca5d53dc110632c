package packet

import (
	"bytes"
	"testing"
)

func TestCookieBlockRoundTrip(t *testing.T) {
	cookie := bytes.Repeat([]byte{0xAB}, 21)
	token := AppendResumeToken(nil, 0xDEAD)
	payload := AppendCookieBlock(nil, cookie)
	payload = append(payload, token...)

	got, rest := SplitSynPayload(payload)
	if !bytes.Equal(got, cookie) {
		t.Fatalf("cookie = %x, want %x", got, cookie)
	}
	if prev, ok := ParseResumeToken(rest); !ok || prev != 0xDEAD {
		t.Fatalf("rest did not parse as resume token: %x", rest)
	}
}

func TestSplitSynPayloadNoCookie(t *testing.T) {
	for _, b := range [][]byte{
		nil,
		{},
		AppendResumeToken(nil, 7),      // bare legacy resume token
		[]byte("IQCK"),                 // magic, no length
		{'I', 'Q', 'C', 'K', 10, 1, 2}, // length past end
		{'I', 'Q', 'C', 'K', 0},        // zero-length cookie
	} {
		cookie, rest := SplitSynPayload(b)
		if cookie != nil {
			t.Fatalf("payload %x: unexpected cookie %x", b, cookie)
		}
		if !bytes.Equal(rest, b) {
			t.Fatalf("payload %x: rest = %x", b, rest)
		}
	}
}

func TestAppendCookieBlockBounds(t *testing.T) {
	if got := AppendCookieBlock(nil, nil); len(got) != 0 {
		t.Fatalf("empty cookie appended %x", got)
	}
	if got := AppendCookieBlock(nil, make([]byte, MaxCookieLen+1)); len(got) != 0 {
		t.Fatalf("oversized cookie appended %d bytes", len(got))
	}
}

func TestRetryPacketRoundTrip(t *testing.T) {
	p := &Packet{Type: RETRY, ConnID: 42, Payload: bytes.Repeat([]byte{0x5C}, 21)}
	b, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.Type != RETRY || q.ConnID != 42 || q.HasAck() || !bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("round trip mismatch: %+v", q)
	}
	if RETRY.String() != "RETRY" {
		t.Fatalf("String() = %q", RETRY.String())
	}
}
