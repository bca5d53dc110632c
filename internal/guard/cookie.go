package guard

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Cookie layout: keyID (1) | expiry, unix seconds (4) | MAC (16) = 21 bytes.
// The MAC is HMAC-SHA256 over (source IP, source port, proposed ConnID,
// expiry), truncated; the cookie itself is opaque to the peer, which echoes
// it byte-for-byte inside its next SYN (see packet.AppendCookieBlock).
const (
	cookieKeyLen = 32
	cookieMACLen = 16

	// CookieLen is the fixed minted-cookie length.
	CookieLen = 1 + 4 + cookieMACLen
)

// CookieSource mints and verifies stateless address-validation cookies. Two
// secrets are live at any time — the current one signs, both verify — and
// the older is replaced whenever the current secret's age exceeds the
// lifetime, so a cookie minted just before a rotation still verifies for
// its full validity window. Secrets are random at construction (a restart
// invalidates outstanding cookies, which only costs those dialers one extra
// round trip).
//
// The keyed MACs are reused rather than rebuilt per cookie, so minting and
// verifying allocate nothing for the MAC. They live in slots, one per
// processor, each behind its own lock, and the secrets are an immutable
// set swapped at rotation: concurrent callers (shards under a SYN flood)
// take different slots and share no lock.
type CookieSource struct {
	mu       sync.Mutex // serialises rotation
	lifetime time.Duration
	sec      atomic.Pointer[secrets]
	slots    []macSlot
}

// secrets is one generation of a source's two secrets; it is never
// modified once published.
type secrets struct {
	keys    [2][cookieKeyLen]byte
	gens    [2]uint64 // when keys[i] was drawn, counting draws from 1
	cur     int       // index of the signing key
	rotated time.Time // when keys[cur] became the signing key
}

// macSlot is one caller's keyed MACs and scratch, guarded by its mu.
type macSlot struct {
	mu   sync.Mutex
	macs [2]hash.Hash         // HMAC-SHA256 keyed with the secrets' keys[i]
	gens [2]uint64            // the draw macs[i] was keyed with
	msg  [16 + 2 + 4 + 4]byte // MAC input scratch, see mac
	sum  [sha256.Size]byte    // MAC output scratch
	_    [128]byte            // keeps neighbouring slots off each other's cache lines
}

// NewCookieSource builds a source whose cookies are valid for lifetime
// (also the secret-rotation period). Non-positive lifetimes select 15s.
func NewCookieSource(lifetime time.Duration) *CookieSource {
	if lifetime <= 0 {
		lifetime = 15 * time.Second
	}
	sec := &secrets{rotated: time.Now()}
	for i := range sec.keys {
		sec.draw(i)
	}
	s := &CookieSource{lifetime: lifetime, slots: make([]macSlot, runtime.GOMAXPROCS(0))}
	s.sec.Store(sec)
	return s
}

// draw replaces secret i with a fresh random one.
func (sec *secrets) draw(i int) {
	if _, err := rand.Read(sec.keys[i][:]); err != nil {
		panic("guard: no entropy for cookie secrets: " + err.Error())
	}
	sec.gens[i] = max(sec.gens[0], sec.gens[1]) + 1
}

// signing returns the secrets to mint with at now, first rotating them if
// the signing secret has aged out.
func (s *CookieSource) signing(now time.Time) *secrets {
	sec := s.sec.Load()
	if now.Sub(sec.rotated) < s.lifetime {
		return sec
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sec = s.sec.Load()
	if now.Sub(sec.rotated) >= s.lifetime {
		next := *sec
		next.cur ^= 1
		next.draw(next.cur)
		next.rotated = now
		sec = &next
		s.sec.Store(sec)
	}
	return sec
}

// Mint returns a fresh cookie binding (addr, connID) until now + lifetime.
func (s *CookieSource) Mint(addr *net.UDPAddr, connID uint32, now time.Time) []byte {
	expiry := uint32(now.Add(s.lifetime).Unix())
	sec := s.signing(now)
	c := make([]byte, 0, CookieLen)
	c = append(c, byte(sec.cur))
	c = binary.BigEndian.AppendUint32(c, expiry)
	sl := s.slot(connID)
	defer sl.mu.Unlock()
	return append(c, sl.mac(sec, sec.cur, addr, connID, expiry)...)
}

// Verify reports whether cookie is an unexpired cookie this source minted
// for (addr, connID).
func (s *CookieSource) Verify(cookie []byte, addr *net.UDPAddr, connID uint32, now time.Time) bool {
	if len(cookie) != CookieLen || cookie[0] > 1 {
		return false
	}
	expiry := binary.BigEndian.Uint32(cookie[1:5])
	if now.Unix() > int64(expiry) {
		return false
	}
	sec := s.sec.Load()
	sl := s.slot(connID)
	defer sl.mu.Unlock()
	return hmac.Equal(cookie[5:], sl.mac(sec, int(cookie[0]), addr, connID, expiry))
}

// slot locks and returns a free MAC slot, trying the one hint selects
// first; when every slot is busy it waits for that one.
func (s *CookieSource) slot(hint uint32) *macSlot {
	n := uint32(len(s.slots))
	for i := uint32(0); i < n; i++ {
		sl := &s.slots[(hint+i)%n]
		if sl.mu.TryLock() {
			return sl
		}
	}
	sl := &s.slots[hint%n]
	sl.mu.Lock()
	return sl
}

// mac computes the truncated MAC of (addr, connID, expiry) under secret id
// of sec into sl.sum and returns it; it is valid until sl.mu is released.
// The slot keys a new MAC only when the secret was redrawn since its last
// use of id. Called with sl.mu held.
func (sl *macSlot) mac(sec *secrets, id int, addr *net.UDPAddr, connID uint32, expiry uint32) []byte {
	if sl.gens[id] != sec.gens[id] {
		sl.macs[id] = hmac.New(sha256.New, sec.keys[id][:])
		sl.gens[id] = sec.gens[id]
	}
	msg := &sl.msg
	*msg = [len(sl.msg)]byte{} // an address without a 16-byte form MACs as zeros
	copy(msg[:16], addr.IP.To16())
	binary.BigEndian.PutUint16(msg[16:], uint16(addr.Port))
	binary.BigEndian.PutUint32(msg[18:], connID)
	binary.BigEndian.PutUint32(msg[22:], expiry)
	mac := sl.macs[id]
	mac.Reset()
	mac.Write(msg[:])
	return mac.Sum(sl.sum[:0])[:cookieMACLen]
}
