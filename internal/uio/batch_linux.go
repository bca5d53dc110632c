//go:build linux && (amd64 || arm64)

package uio

import (
	"net"
	"net/netip"
	"runtime"
	"syscall"
	"unsafe"
)

// Linux fast path: recvmmsg/sendmmsg move a batch of datagrams per syscall.
// The raw syscalls are wrapped in the netpoller via syscall.RawConn
// Read/Write with MSG_DONTWAIT, so blocked readers park in the runtime
// scheduler rather than in the kernel. Restricted to amd64/arm64 because
// the mmsghdr layout below (4 bytes of tail padding after msg_len) is the
// 64-bit one.

// mmsghdr mirrors struct mmsghdr: a msghdr plus the per-message byte count
// filled in by the kernel.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// RxBatcher reads datagram batches from one socket via recvmmsg. With GRO
// enabled (EnableGRO) one recvmmsg entry can carry a kernel-coalesced run
// of same-peer datagrams, which Recv splits back into per-segment Msgs.
//
// A batcher holds at most one buffer per slot: Release puts the buffers a
// batch lent out back into the slots they came from, so a batcher that
// follows the Release-before-Recv contract draws on its pool only for its
// first fill — or never, once EnableGRO has mapped its slots (see mapSlots).
type RxBatcher struct {
	rc     syscall.RawConn
	pool   *BufPool
	noAddr bool // connected socket: source is fixed, skip sockaddr work
	gro    bool // kernel coalescing active: parse UDP_GRO cmsgs, split
	mapped bool // slot buffers live in an anonymous mapping, not the pool

	hdrs    []mmsghdr
	iovs    []syscall.Iovec
	names   [][syscall.SizeofSockaddrAny]byte
	bufs    [][]byte
	ctrls   [][groCtrlSpace]byte // cmsg space, allocated when GRO enables
	lent    [][]byte             // raw slot buffers on loan to the current batch
	scratch []Msg

	// The RawConn.Read callback, bound once so Recv allocates nothing, and
	// the results it reports back.
	readFn func(fd uintptr) bool
	got    int
	serr   error
}

// NewRxBatcher builds a batcher over sock drawing buffers from pool. The
// pool may be shared across batchers.
func NewRxBatcher(sock *net.UDPConn, pool *BufPool, batch int) (*RxBatcher, error) {
	rc, err := sock.SyscallConn()
	if err != nil {
		return nil, err
	}
	rb := &RxBatcher{
		rc:      rc,
		pool:    pool,
		hdrs:    make([]mmsghdr, batch),
		iovs:    make([]syscall.Iovec, batch),
		names:   make([][syscall.SizeofSockaddrAny]byte, batch),
		bufs:    make([][]byte, batch),
		lent:    make([][]byte, 0, batch),
		scratch: make([]Msg, 0, batch),
	}
	rb.readFn = rb.recvmmsg
	return rb, nil
}

// EnableGRO asks the kernel to coalesce same-peer datagram runs into one
// recvmmsg entry, reporting whether the socket accepted it, and backs every
// slot with a GROBufSize buffer outside the Go heap (see mapSlots). The
// caller's pool must still be sized for coalesced datagrams (up to 64KiB;
// see ProbeOffload): it serves the slots if the mapping fails. Call before
// the first Recv.
func (rb *RxBatcher) EnableGRO() bool {
	if rb.gro {
		return true
	}
	var ok bool
	if err := rb.rc.Control(func(fd uintptr) {
		ok = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil
	}); err != nil || !ok {
		return false
	}
	rb.gro = true
	rb.ctrls = make([][groCtrlSpace]byte, len(rb.hdrs))
	rb.mapSlots()
	return true
}

// mapSlots carves the slot buffers out of one anonymous mapping. A GRO slot
// must hold a whole coalesced train, yet most trains fill a few of its
// pages: allocated from the Go heap, batch × 64 KiB of mostly untouched
// buffers would count as live data and raise the collector's heap goal by
// twice that, while a mapping costs only the pages the kernel writes. The
// buffers never leave the batcher — Release returns them to their slots,
// never to the pool — and the mapping is released once the batcher is
// garbage, so a batch must not be used after its batcher is dropped. If the
// mapping fails the slots stay on pool buffers.
func (rb *RxBatcher) mapSlots() {
	slab, err := syscall.Mmap(-1, 0, len(rb.bufs)*GROBufSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return
	}
	for i := range rb.bufs {
		rb.bufs[i] = slab[i*GROBufSize : (i+1)*GROBufSize : (i+1)*GROBufSize]
	}
	rb.mapped = true
	runtime.AddCleanup(rb, func(b []byte) { syscall.Munmap(b) }, slab)
}

// GROEnabled reports whether receive coalescing is active.
func (rb *RxBatcher) GROEnabled() bool { return rb.gro }

// NewConnectedRxBatcher is NewRxBatcher for a connect()ed socket: the kernel
// already filters to one peer, so received messages carry no address and
// the per-datagram sockaddr parse is skipped.
func NewConnectedRxBatcher(sock *net.UDPConn, pool *BufPool, batch int) (*RxBatcher, error) {
	rb, err := NewRxBatcher(sock, pool, batch)
	if err != nil {
		return nil, err
	}
	rb.noAddr = true
	return rb, nil
}

// Recv blocks until at least one datagram arrives and returns the batch.
// The buffers belong to the batcher's pool and the returned slice is reused
// by the next Recv; parse, then call Release before receiving again.
func (rb *RxBatcher) Recv() ([]Msg, error) {
	for i := range rb.hdrs {
		if rb.bufs[i] == nil {
			rb.bufs[i] = rb.pool.Get()
		}
		rb.iovs[i].Base = &rb.bufs[i][0]
		rb.iovs[i].SetLen(len(rb.bufs[i]))
		if rb.noAddr {
			rb.hdrs[i].hdr.Name = nil
			rb.hdrs[i].hdr.Namelen = 0
		} else {
			rb.hdrs[i].hdr.Name = &rb.names[i][0]
			rb.hdrs[i].hdr.Namelen = uint32(len(rb.names[i]))
		}
		rb.hdrs[i].hdr.Iov = &rb.iovs[i]
		rb.hdrs[i].hdr.Iovlen = 1
		if rb.gro {
			rb.hdrs[i].hdr.Control = &rb.ctrls[i][0]
			rb.hdrs[i].hdr.SetControllen(groCtrlSpace)
		} else {
			rb.hdrs[i].hdr.Control = nil
			rb.hdrs[i].hdr.Controllen = 0
		}
		rb.hdrs[i].n = 0
	}
	rb.got, rb.serr = 0, nil
	if err := rb.rc.Read(rb.readFn); err != nil {
		return nil, err
	}
	if rb.serr != nil {
		return nil, rb.serr
	}
	n := rb.got
	msgs := rb.scratch[:0]
	for i := 0; i < n; i++ {
		var addr netip.AddrPort
		if !rb.noAddr {
			addr = parseSockaddr(&rb.names[i])
		}
		data := rb.bufs[i][:rb.hdrs[i].n]
		rb.lent = append(rb.lent, rb.bufs[i])
		rb.bufs[i] = nil // ownership moves to the caller until Release
		seg := 0
		if rb.gro {
			seg = groSegSize(rb.ctrls[i][:rb.hdrs[i].hdr.Controllen])
		}
		if seg > 0 && seg < len(data) {
			// Coalesced run: split back into wire segments, all sharing
			// the raw buffer (Release returns the loans, not the views)
			// and the peer address.
			for off := 0; off < len(data); off += seg {
				end := off + seg
				if end > len(data) {
					end = len(data)
				}
				msgs = append(msgs, Msg{B: data[off:end], AddrPort: addr})
			}
		} else {
			msgs = append(msgs, Msg{B: data, AddrPort: addr})
		}
	}
	rb.scratch = msgs
	return msgs, nil
}

// recvmmsg is the RawConn.Read callback: one non-blocking recvmmsg into
// the prepared headers, reporting through rb.got and rb.serr.
func (rb *RxBatcher) recvmmsg(fd uintptr) bool {
	for {
		r1, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&rb.hdrs[0])), uintptr(len(rb.hdrs)),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		switch errno {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		case 0:
			rb.got = int(r1)
		default:
			rb.serr = errno
		}
		return true
	}
}

// Release hands the batch's buffers back to the batcher's empty slots; any
// beyond them (only when Recv ran again without a Release) go to the pool,
// or are dropped when the slots are mapped.
// The msgs argument is kept for API symmetry with the portable path: this
// batcher tracks the raw buffers it lent (a GRO split hands out several
// views of one buffer, which must be returned exactly once).
func (rb *RxBatcher) Release(msgs []Msg) {
	j := 0
	for i := range rb.bufs {
		if j == len(rb.lent) {
			break
		}
		if rb.bufs[i] == nil {
			rb.bufs[i] = rb.lent[j]
			rb.lent[j] = nil
			j++
		}
	}
	for ; j < len(rb.lent); j++ {
		if !rb.mapped {
			rb.pool.Put(rb.lent[j])
		}
		rb.lent[j] = nil
	}
	rb.lent = rb.lent[:0]
}

// TxBatcher writes datagram batches to one socket via sendmmsg. When the
// socket accepts UDP_SEGMENT (probed at construction), Send coalesces each
// consecutive same-peer run of equal-size messages into one super-datagram
// header carrying a GSO cmsg: the kernel re-splits it into the original
// wire segments, so receivers see exactly what the plain path sends.
type TxBatcher struct {
	rc      syscall.RawConn
	v6      bool // AF_INET6 socket: IPv4 peers need v4-mapped v6 sockaddrs
	gso     bool // socket accepted UDP_SEGMENT; cleared on path rejection
	hdrs    []mmsghdr
	iovs    []syscall.Iovec
	names   [][syscall.SizeofSockaddrAny]byte
	ctrls   [][gsoCtrlSpace]byte
	runLens []int // msgs behind each built header, for sent-count mapping

	// The RawConn.Write callback, bound once so Send allocates nothing, the
	// header range it sends from and what it reports back.
	writeFn  func(fd uintptr) bool
	from, to int
	got      int
	serr     error
}

// NewTxBatcher builds a batcher over sock sending up to batch datagrams per
// syscall, with segmentation offload when the socket supports it.
func NewTxBatcher(sock *net.UDPConn, batch int) (*TxBatcher, error) {
	rc, err := sock.SyscallConn()
	if err != nil {
		return nil, err
	}
	la, _ := sock.LocalAddr().(*net.UDPAddr)
	tb := &TxBatcher{
		rc:      rc,
		v6:      la != nil && la.IP.To4() == nil,
		gso:     probeGSO(rc),
		hdrs:    make([]mmsghdr, batch),
		iovs:    make([]syscall.Iovec, batch),
		names:   make([][syscall.SizeofSockaddrAny]byte, batch),
		ctrls:   make([][gsoCtrlSpace]byte, batch),
		runLens: make([]int, batch),
	}
	tb.writeFn = tb.sendmmsg
	return tb, nil
}

// GSOEnabled reports whether segmentation offload is active.
func (tb *TxBatcher) GSOEnabled() bool { return tb.gso }

// SetGSO forces segmentation offload on or off (bench ablation; "on" still
// requires the construction-time probe to have succeeded elsewhere).
func (tb *TxBatcher) SetGSO(on bool) { tb.gso = on }

// Send transmits the batch, returning how many of batch's messages went
// out. Messages without an address go to the socket's connected peer
// (dialed sockets).
func (tb *TxBatcher) Send(batch []Msg) (int, error) {
	if !tb.gso {
		return tb.sendPlain(batch)
	}
	return tb.sendGSO(batch)
}

// sendPlain is the one-header-per-datagram path.
func (tb *TxBatcher) sendPlain(batch []Msg) (int, error) {
	n := len(batch)
	if n > len(tb.hdrs) {
		n = len(tb.hdrs)
	}
	for i := 0; i < n; i++ {
		tb.iovs[i].Base = &batch[i].B[0]
		tb.iovs[i].SetLen(len(batch[i].B))
		tb.setDest(i, batch[i].dest())
		tb.hdrs[i].hdr.Iov = &tb.iovs[i]
		tb.hdrs[i].hdr.Iovlen = 1
		tb.hdrs[i].hdr.Control = nil
		tb.hdrs[i].hdr.Controllen = 0
	}
	sent, serr, err := tb.sendHdrs(0, n)
	if err != nil {
		return sent, err
	}
	return sent, serr
}

// sendGSO coalesces consecutive same-peer equal-size runs into GSO
// super-datagrams. A run is closed by a peer change, a size increase, a
// short segment (legal only as the tail), or the kernel's segment/byte
// ceilings. Single-message runs carry no cmsg and behave exactly like the
// plain path.
func (tb *TxBatcher) sendGSO(batch []Msg) (int, error) {
	n := len(batch)
	if n > len(tb.hdrs) {
		n = len(tb.hdrs)
	}
	for i := 0; i < n; i++ {
		tb.iovs[i].Base = &batch[i].B[0]
		tb.iovs[i].SetLen(len(batch[i].B))
	}
	h := 0 // headers built
	for consumed := 0; consumed < n; h++ {
		start := consumed
		dst := batch[start].dest()
		segSize := len(batch[start].B)
		runBytes := segSize
		runLen := 1
		if segSize > 0 {
			for start+runLen < n && runLen < maxGsoSegs {
				l := len(batch[start+runLen].B)
				if l == 0 || l > segSize || runBytes+l > maxGsoBytes ||
					batch[start+runLen].dest() != dst {
					break
				}
				runBytes += l
				runLen++
				if l < segSize {
					break // a short segment must be the super-datagram's tail
				}
			}
		}
		tb.setDest(h, dst)
		tb.hdrs[h].hdr.Iov = &tb.iovs[start]
		tb.hdrs[h].hdr.Iovlen = uint64(runLen)
		if runLen > 1 {
			putGsoCmsg(&tb.ctrls[h], uint16(segSize))
			tb.hdrs[h].hdr.Control = &tb.ctrls[h][0]
			tb.hdrs[h].hdr.SetControllen(gsoCtrlSpace)
		} else {
			tb.hdrs[h].hdr.Control = nil
			tb.hdrs[h].hdr.Controllen = 0
		}
		tb.runLens[h] = runLen
		consumed += runLen
	}
	sentHdrs, serr, err := tb.sendHdrs(0, h)
	sent := 0
	for i := 0; i < sentHdrs; i++ {
		sent += tb.runLens[i]
	}
	if err != nil {
		return sent, err
	}
	if serr != nil && gsoFatal(serr) {
		// The socket probe passed but this path rejects GSO (or a run hit
		// a device limit): disable offload and finish the batch plainly.
		tb.gso = false
		rest, err2 := tb.sendPlain(batch[sent:n])
		return sent + rest, err2
	}
	return sent, serr
}

// setDest points header i at addr (invalid: the connected peer).
func (tb *TxBatcher) setDest(i int, addr netip.AddrPort) {
	if addr.IsValid() {
		tb.hdrs[i].hdr.Name = &tb.names[i][0]
		tb.hdrs[i].hdr.Namelen = encodeSockaddr(addr, tb.v6, &tb.names[i])
	} else {
		tb.hdrs[i].hdr.Name = nil
		tb.hdrs[i].hdr.Namelen = 0
	}
}

// sendHdrs pushes headers [from, to) through sendmmsg until done or
// blocked, returning how many went out, the syscall errno (serr) and any
// RawConn error. serr is returned rather than folded so sendGSO can
// classify offload rejections.
func (tb *TxBatcher) sendHdrs(from, to int) (int, error, error) {
	tb.from, tb.to = from, to
	for tb.from < to {
		tb.got, tb.serr = 0, nil
		if err := tb.rc.Write(tb.writeFn); err != nil {
			return tb.from - from, nil, err
		}
		if tb.serr != nil {
			return tb.from - from, tb.serr, nil
		}
		if tb.got == 0 {
			break
		}
		tb.from += tb.got
	}
	return tb.from - from, nil, nil
}

// sendmmsg is the RawConn.Write callback: one non-blocking sendmmsg of
// headers [tb.from, tb.to), reporting through tb.got and tb.serr.
func (tb *TxBatcher) sendmmsg(fd uintptr) bool {
	for {
		r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&tb.hdrs[tb.from])), uintptr(tb.to-tb.from),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		switch errno {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		case 0:
			tb.got = int(r1)
		default:
			tb.serr = errno
		}
		return true
	}
}

// parseSockaddr converts a raw kernel-filled sockaddr to an AddrPort, with
// IPv4-mapped addresses unmapped so one peer always has one key.
func parseSockaddr(b *[syscall.SizeofSockaddrAny]byte) netip.AddrPort {
	rsa := (*syscall.RawSockaddrAny)(unsafe.Pointer(b))
	switch rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(b))
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), ntohs(sa.Port))
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(b))
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), ntohs(sa.Port))
	}
	return netip.AddrPort{}
}

// encodeSockaddr fills buf with peer's raw sockaddr and returns its length.
// On an AF_INET6 socket IPv4 peers are written as v4-mapped v6 addresses,
// since Linux rejects AF_INET sockaddrs on v6 sockets.
func encodeSockaddr(peer netip.AddrPort, v6 bool, buf *[syscall.SizeofSockaddrAny]byte) uint32 {
	ip := peer.Addr()
	if ip.Unmap().Is4() && !v6 {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(buf))
		*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Port: htons(peer.Port()), Addr: ip.Unmap().As4()}
		return syscall.SizeofSockaddrInet4
	}
	sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(buf))
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Port: htons(peer.Port()), Addr: ip.As16()}
	return syscall.SizeofSockaddrInet6
}

// ntohs/htons convert the network-byte-order port field (amd64 and arm64
// are both little-endian).
func ntohs(p uint16) uint16 { return p>>8 | p<<8 }
func htons(p uint16) uint16 { return p>>8 | p<<8 }
