//go:build linux && (amd64 || arm64)

package uio

import (
	"net"
	"syscall"
	"unsafe"
)

// UDP segmentation offload (GSO) and receive coalescing (GRO): one sendmmsg
// entry carries a super-datagram the kernel splits into equal-size wire
// segments (UDP_SEGMENT cmsg), and one recvmmsg entry carries a run of
// same-peer datagrams the kernel coalesced (UDP_GRO cmsg with the segment
// size). Both halve the dominant per-datagram cost — the syscall and the
// kernel's per-packet protocol walk — which is the standard first wall for
// userspace UDP transports. Support is probed at runtime per socket;
// everything here degrades to the plain mmsg path when the kernel or the
// path rejects it.

const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT: outgoing GSO segment size
	udpGRO     = 104 // UDP_GRO: enable coalescing; arriving cmsg carries seg size

	// maxGsoSegs is the kernel's UDP_MAX_SEGMENTS ceiling per super-datagram.
	maxGsoSegs = 64
	// maxGsoBytes caps a super-datagram's payload, leaving headroom under
	// the 64KiB IP datagram limit for protocol headers.
	maxGsoBytes = 65000

	// cmsg buffer sizes: CmsgSpace(2) and CmsgSpace(4) both round to 24 on
	// 64-bit; the RX buffer is padded in case the kernel stacks more cmsgs.
	gsoCtrlSpace = 24
	groCtrlSpace = 64

	cmsgDataOff = syscall.SizeofCmsghdr // payload offset inside a cmsg
)

// Offload reports which offloads a socket (or the host, for ProbeOffload)
// accepts.
type Offload struct {
	GSO bool `json:"gso"`
	GRO bool `json:"gro"`
}

// ProbeOffload reports host support for UDP GSO/GRO by probing a throwaway
// loopback socket. Use it to size receive buffers before constructing
// batchers (GRO hands the stack up-to-64KiB coalesced datagrams).
func ProbeOffload() Offload {
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return Offload{}
	}
	defer sock.Close()
	rc, err := sock.SyscallConn()
	if err != nil {
		return Offload{}
	}
	var off Offload
	rc.Control(func(fd uintptr) {
		off.GSO = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil
		off.GRO = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil
	})
	return off
}

// probeGSO reports whether the socket accepts UDP_SEGMENT (setting 0 keeps
// per-send cmsg control and is a no-op on the socket's behaviour).
func probeGSO(rc syscall.RawConn) bool {
	var ok bool
	rc.Control(func(fd uintptr) {
		ok = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil
	})
	return ok
}

// putGsoCmsg writes the UDP_SEGMENT cmsg (a uint16 segment size, native
// byte order) into a per-header control buffer.
func putGsoCmsg(buf *[gsoCtrlSpace]byte, seg uint16) {
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&buf[0]))
	h.Level = solUDP
	h.Type = udpSegment
	h.SetLen(syscall.CmsgLen(2))
	*(*uint16)(unsafe.Pointer(&buf[cmsgDataOff])) = seg
}

// groSegSize extracts the UDP_GRO segment size from a received control
// buffer, walking the cmsg chain defensively. Returns 0 when absent (the
// datagram is a single wire segment).
func groSegSize(ctrl []byte) int {
	for len(ctrl) >= syscall.SizeofCmsghdr {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
		l := int(h.Len)
		if l < syscall.SizeofCmsghdr || l > len(ctrl) {
			return 0
		}
		if h.Level == solUDP && h.Type == udpGRO {
			data := ctrl[cmsgDataOff:l]
			switch {
			case len(data) >= 4: // kernel writes an int
				return int(*(*int32)(unsafe.Pointer(&data[0])))
			case len(data) >= 2:
				return int(*(*uint16)(unsafe.Pointer(&data[0])))
			}
			return 0
		}
		next := (l + 7) &^ 7 // cmsg alignment on 64-bit
		if next <= 0 || next >= len(ctrl) {
			return 0
		}
		ctrl = ctrl[next:]
	}
	return 0
}

// gsoFatal classifies a sendmmsg errno as "this socket/path rejects GSO":
// the batcher disables offload and resends plainly. Transient errnos
// (ENOBUFS, ENOMEM) are not in the set — they surface to the caller as on
// the plain path.
func gsoFatal(errno error) bool {
	switch errno {
	case syscall.EINVAL, syscall.EIO, syscall.EOPNOTSUPP, syscall.EMSGSIZE:
		return true
	}
	return false
}
