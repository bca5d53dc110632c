package guard

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCookieMintVerify(t *testing.T) {
	s := NewCookieSource(10 * time.Second)
	now := time.Now()
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4242}
	c := s.Mint(addr, 7, now)
	if len(c) != CookieLen {
		t.Fatalf("cookie length %d, want %d", len(c), CookieLen)
	}
	if !s.Verify(c, addr, 7, now) {
		t.Fatal("fresh cookie rejected")
	}
	if !s.Verify(c, addr, 7, now.Add(9*time.Second)) {
		t.Fatal("cookie rejected within lifetime")
	}
}

func TestCookieBindsAddrAndConnID(t *testing.T) {
	s := NewCookieSource(10 * time.Second)
	now := time.Now()
	addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4242}
	c := s.Mint(addr, 7, now)

	other := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 2), Port: 4242}
	if s.Verify(c, other, 7, now) {
		t.Fatal("cookie verified for a different source IP")
	}
	otherPort := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4243}
	if s.Verify(c, otherPort, 7, now) {
		t.Fatal("cookie verified for a different source port")
	}
	if s.Verify(c, addr, 8, now) {
		t.Fatal("cookie verified for a different ConnID")
	}

	// Bit flips anywhere must fail.
	for i := range c {
		mut := append([]byte(nil), c...)
		mut[i] ^= 0x80
		if s.Verify(mut, addr, 7, now) {
			t.Fatalf("mutated cookie (byte %d) verified", i)
		}
	}
	if s.Verify(c[:CookieLen-1], addr, 7, now) || s.Verify(nil, addr, 7, now) {
		t.Fatal("truncated cookie verified")
	}
}

func TestCookieExpiryAndRotation(t *testing.T) {
	s := NewCookieSource(5 * time.Second)
	now := time.Now()
	addr := &net.UDPAddr{IP: net.IPv4(10, 0, 0, 9), Port: 1}
	c := s.Mint(addr, 1, now)
	if s.Verify(c, addr, 1, now.Add(6*time.Second)) {
		t.Fatal("expired cookie verified")
	}

	// A cookie minted just before a rotation still verifies after it: the
	// previous secret stays live for one more lifetime.
	c2 := s.Mint(addr, 2, now)
	_ = s.Mint(addr, 3, now.Add(5*time.Second)) // triggers rotation
	if !s.Verify(c2, addr, 2, now.Add(4*time.Second)) {
		t.Fatal("pre-rotation cookie rejected within lifetime")
	}
}

// TestCookieMACReused pins the cookie bytes to HMAC-SHA256 over (source
// IP, port, ConnID, expiry) under the signing secret, truncated, across a
// rotation, and the keyed MACs' reuse: verifying allocates nothing and
// minting only the cookie it returns.
func TestCookieMACReused(t *testing.T) {
	s := NewCookieSource(5 * time.Second)
	addr := &net.UDPAddr{IP: net.IPv4(10, 1, 2, 3), Port: 4242}
	now := time.Now()
	for _, at := range []time.Time{now, now.Add(6 * time.Second)} {
		c := s.Mint(addr, 7, at)
		key := s.sec.Load().keys[c[0]]
		mac := hmac.New(sha256.New, key[:])
		var msg [26]byte
		copy(msg[:16], addr.IP.To16())
		binary.BigEndian.PutUint16(msg[16:], uint16(addr.Port))
		binary.BigEndian.PutUint32(msg[18:], 7)
		copy(msg[22:], c[1:5])
		mac.Write(msg[:])
		if want := mac.Sum(nil)[:cookieMACLen]; !bytes.Equal(c[5:], want) {
			t.Fatalf("cookie MAC %x, want %x", c[5:], want)
		}
		if !s.Verify(c, addr, 7, at) {
			t.Fatal("fresh cookie rejected")
		}
	}
	c := s.Mint(addr, 7, now.Add(6*time.Second))
	if n := testing.AllocsPerRun(100, func() { s.Verify(c, addr, 7, now.Add(6*time.Second)) }); n != 0 {
		t.Fatalf("Verify allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.Mint(addr, 7, now.Add(6*time.Second)) }); n != 1 {
		t.Fatalf("Mint allocates %.1f times, want 1 (the cookie)", n)
	}
}

// TestCookieConcurrentRotation mints and verifies from several goroutines
// at once, phase by phase across secret rotations: every cookie verifies,
// whichever MAC slot minted or checks it, and under -race the slots and
// the secret sets are not shared unsafely.
func TestCookieConcurrentRotation(t *testing.T) {
	s := NewCookieSource(time.Second)
	base := time.Now()
	var rejected atomic.Int64
	for phase := 0; phase < 8; phase++ {
		at := base.Add(time.Duration(phase) * 600 * time.Millisecond)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				addr := &net.UDPAddr{IP: net.IPv4(10, 0, 0, byte(g)), Port: 1000 + g}
				for k := 0; k < 50; k++ {
					id := uint32(g*1000 + k)
					if c := s.Mint(addr, id, at); !s.Verify(c, addr, id, at) {
						rejected.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
	}
	if n := rejected.Load(); n != 0 {
		t.Fatalf("%d fresh cookies rejected", n)
	}
}

func TestLedgerAndGovernor(t *testing.T) {
	l := &Ledger{}
	g := NewGovernor(l, 1000)
	if g.Level() != 0 {
		t.Fatalf("empty ledger level %d", g.Level())
	}
	l.Add(ClassSend, 700)
	if g.Level() != 1 {
		t.Fatalf("at 70%%: level %d, want 1", g.Level())
	}
	l.Add(ClassOOO, 150)
	if g.Level() != 2 {
		t.Fatalf("at 85%%: level %d, want 2", g.Level())
	}
	l.Add(ClassReasm, 100)
	if g.Level() != 3 {
		t.Fatalf("at 95%%: level %d, want 3", g.Level())
	}
	l.Sub(ClassSend, 700)
	l.Sub(ClassOOO, 150)
	l.Sub(ClassReasm, 100)
	if l.Total() != 0 || g.Level() != 0 {
		t.Fatalf("drained ledger total=%d level=%d", l.Total(), g.Level())
	}
	// Teardown races may overshoot; balances clamp to zero for consumers.
	l.Sub(ClassConn, 64)
	if l.Total() != 0 || l.Bytes(ClassConn) != 0 {
		t.Fatalf("negative balance leaked: total=%d", l.Total())
	}
	if NewGovernor(l, 0) != nil || (*Governor)(nil).Level() != 0 {
		t.Fatal("disabled governor not inert")
	}
}

func TestTokenBucket(t *testing.T) {
	now := time.Now()
	b := NewTokenBucket(10, 5)
	for i := 0; i < 5; i++ {
		if !b.Allow(now) {
			t.Fatalf("burst token %d denied", i)
		}
	}
	if b.Allow(now) {
		t.Fatal("token past burst allowed")
	}
	if !b.Allow(now.Add(100 * time.Millisecond)) {
		t.Fatal("refilled token denied")
	}
	if (*TokenBucket)(nil).Allow(now) != true {
		t.Fatal("nil bucket must be unlimited")
	}
}

func TestPrefixLimiter(t *testing.T) {
	now := time.Now()
	pl := NewPrefixLimiter(2, 8)
	a := net.IPv4(127, 1, 1, 1)
	b := net.IPv4(127, 1, 1, 200) // same /24
	c := net.IPv4(127, 1, 2, 1)   // different /24
	if !pl.Allow(a, now) || !pl.Allow(b, now) {
		t.Fatal("burst denied")
	}
	if pl.Allow(a, now) {
		t.Fatal("third SYN from flooded /24 allowed")
	}
	if !pl.Allow(c, now) {
		t.Fatal("neighbouring /24 penalised")
	}
	if Prefix(a) != Prefix(b) || Prefix(a) == Prefix(c) {
		t.Fatal("prefix keying wrong")
	}
	v6a, v6b := net.ParseIP("2001:db8:1:2::1"), net.ParseIP("2001:db8:1:3::1")
	if Prefix(v6a) != Prefix(v6b) {
		t.Fatal("v6 /48 keying wrong") // same /48, different subnet
	}

	// Table stays bounded under prefix-rotating floods.
	for i := 0; i < 100; i++ {
		pl.Allow(net.IPv4(10, byte(i), byte(i*3), 1), now)
	}
	pl.mu.Lock()
	n := len(pl.buckets)
	pl.mu.Unlock()
	if n > 8 {
		t.Fatalf("bucket table grew to %d entries (max 8)", n)
	}
}
