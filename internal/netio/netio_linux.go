//go:build linux

package netio

import (
	"net"
	"net/netip"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// Linux implementation: recvmmsg/sendmmsg burst vectors with optional
// UDP_SEGMENT/UDP_GRO segment trains, invoked as raw syscalls through
// syscall.RawConn so the netpoller integration (goroutine parking,
// read deadlines, close wakeups) is preserved. Everything the kernel
// reads or writes — mmsghdr vectors, iovecs, sockaddr and cmsg
// arenas — is preallocated at Wrap time; the per-burst work is
// pointer fixups only.

const (
	msgDontwait = 0x40 // MSG_DONTWAIT: the fd is non-blocking anyway; be explicit
	solUDP      = 17   // SOL_UDP
	udpSegment  = 103  // UDP_SEGMENT: per-send GSO segment size cmsg
	udpGRO      = 104  // UDP_GRO: enable receive coalescing; segment size cmsg
	soRxqOvfl   = 40   // SO_RXQ_OVFL: receive-queue drop count cmsg (absent from the frozen syscall package)

	sockaddrLen = syscall.SizeofSockaddrInet6
)

var (
	// oobSpace fits the two 4-byte cmsgs a receive can carry (UDP_GRO's
	// s32, SO_RXQ_OVFL's u32) and the one a send does (UDP_SEGMENT's u16).
	oobSpace    = 2 * syscall.CmsgSpace(4)
	cmsgDataOff = syscall.CmsgLen(0)
)

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit targets.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32 // bytes transferred for this vector entry
	_   [4]byte
}

// platform is the Linux side of a Conn.
type platform struct {
	rc  syscall.RawConn
	fam int  // socket domain: AF_INET or AF_INET6
	gso bool // UDP_GRO enabled; sends may carry UDP_SEGMENT trains
	// lastOvfl is the socket's drop count as the last SO_RXQ_OVFL cmsg
	// gave it: the kernel reports a running total, the Conn adds up the
	// differences.
	lastOvfl uint32

	raddr netip.AddrPort // connected-peer fallback for unnamed datagrams

	// receive arena
	rhdrs  []mmsghdr
	riov   []syscall.Iovec
	rbufs  [][]byte
	rnames []byte // sockaddrLen stride
	roob   []byte // oobSpace stride
	rn     int
	rerrno syscall.Errno
	recvFn func(fd uintptr) bool

	// send arena
	shdrs  []mmsghdr
	siov   []syscall.Iovec
	snames []byte
	soob   []byte
	segs   []uint32 // datagrams per staged entry (trains expand)
	ubufs  [][]byte // copy-in slots backing AppendTo
	scnt   int      // staged vector entries
	sdg    int      // staged datagrams
	ucnt   int      // copy-in slots used
	sfrom  int
	sn     int
	serrno syscall.Errno
	sendFn func(fd uintptr) bool
}

// initPlatform probes the socket and selects ModeGSO or ModeMmsg,
// leaving ModePortable on unsupported architectures or socket
// domains. Errors are reserved for broken sockets.
func (c *Conn) initPlatform() error {
	if !mmsgSupported {
		return nil
	}
	rc, err := c.udp.SyscallConn()
	if err != nil {
		return err
	}
	p := &c.sys
	p.rc = rc
	var domain int
	var derr, gerr error
	tryGSO := os.Getenv(NoGSOEnv) == ""
	if err := rc.Control(func(fd uintptr) {
		domain, derr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_DOMAIN)
		if tryGSO {
			gerr = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1)
		}
	}); err != nil {
		return err
	}
	if derr != nil || (domain != syscall.AF_INET && domain != syscall.AF_INET6) {
		return nil // exotic socket: stay portable
	}
	p.fam = domain
	c.mode = ModeMmsg
	if tryGSO && gerr == nil {
		c.mode = ModeGSO
		p.gso = true
	}
	if c.connected {
		if ua, ok := c.udp.RemoteAddr().(*net.UDPAddr); ok {
			p.raddr = ua.AddrPort()
		}
	}
	c.buildArenas()
	return nil
}

// buildArenas preallocates every buffer the burst paths touch,
// including the RawConn callbacks — closures allocated here, once, so
// Recv and Flush stay allocation-free.
func (c *Conn) buildArenas() {
	p := &c.sys
	batch := c.cfg.Batch

	rents := batch
	rbufSize := recvBufSize(c.cfg.MTU)
	msgsCap := batch
	if p.gso {
		// A GRO train is one vector entry carrying up to maxTrainSegs
		// datagrams, so fewer, larger entries cover the same burst.
		rents = batch / 4
		if rents < 4 {
			rents = 4
		}
		if rents > batch {
			rents = batch
		}
		rbufSize = 65536
		msgsCap = rents * maxTrainSegs
	}
	c.Msgs = make([]Message, msgsCap)
	p.rhdrs = make([]mmsghdr, rents)
	p.riov = make([]syscall.Iovec, rents)
	p.rbufs = make([][]byte, rents)
	p.rnames = make([]byte, rents*sockaddrLen)
	p.roob = make([]byte, rents*oobSpace)
	for i := range p.rhdrs {
		p.rbufs[i] = make([]byte, rbufSize)
		p.riov[i] = syscall.Iovec{Base: &p.rbufs[i][0], Len: uint64(rbufSize)}
		h := &p.rhdrs[i].hdr
		h.Iov = &p.riov[i]
		h.Iovlen = 1
		h.Name = &p.rnames[i*sockaddrLen]
		h.Namelen = sockaddrLen
	}

	sents := 2 * batch
	if sents < 64 {
		sents = 64
	}
	p.shdrs = make([]mmsghdr, sents)
	p.siov = make([]syscall.Iovec, sents)
	p.snames = make([]byte, sents*sockaddrLen)
	p.soob = make([]byte, sents*oobSpace)
	p.segs = make([]uint32, sents)
	p.ubufs = make([][]byte, batch)
	for i := range p.ubufs {
		p.ubufs[i] = make([]byte, 0, c.cfg.MTU)
	}

	p.recvFn = func(fd uintptr) bool {
		for {
			n, _, e := syscall.Syscall6(sysRecvmmsg, fd,
				uintptr(unsafe.Pointer(&p.rhdrs[0])), uintptr(len(p.rhdrs)),
				msgDontwait, 0, 0)
			switch e {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // park in the netpoller until readable
			}
			p.rn, p.rerrno = int(n), e
			return true
		}
	}
	p.sendFn = func(fd uintptr) bool {
		for {
			n, _, e := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&p.shdrs[p.sfrom])), uintptr(p.scnt-p.sfrom),
				msgDontwait, 0, 0)
			if e == syscall.EINTR {
				continue
			}
			if e == syscall.EAGAIN {
				return false
			}
			p.sn, p.serrno = int(n), e
			return true
		}
	}
}

// sysRecv reads one burst: reset the kernel-mutated header fields,
// park until readable, then split the filled entries (and any GRO
// trains) into Msgs.
//
//switchml:hotpath
func (c *Conn) sysRecv() (int, error) {
	p := &c.sys
	for i := range p.rhdrs {
		h := &p.rhdrs[i].hdr
		h.Namelen = sockaddrLen // recvmmsg shrinks it to the written size
		if p.gso || c.ovfl {
			h.Control = &p.roob[i*oobSpace]
			h.Controllen = uint64(oobSpace)
		}
	}
	p.rn, p.rerrno = 0, 0
	if err := p.rc.Read(p.recvFn); err != nil {
		return 0, err // deadline or closed socket, already an error value
	}
	if p.rerrno != 0 {
		//switchml:allow hotpath -- errno boxing hits the runtime small-integer interface cache; no heap allocation
		return 0, p.rerrno
	}
	return c.splitBurst(), nil
}

// splitBurst fans the filled vector entries out into Msgs, slicing
// GRO-coalesced trains back into individual datagrams.
//
//switchml:hotpath
func (c *Conn) splitBurst() int {
	p := &c.sys
	nm := 0
	for i := 0; i < p.rn; i++ {
		e := &p.rhdrs[i]
		total := int(e.n)
		buf := p.rbufs[i]
		addr := c.srcAddr(i, e.hdr.Namelen)
		seg := total
		if e.hdr.Controllen > 0 {
			if g := c.scanCmsgs(p.roob[i*oobSpace:], int(e.hdr.Controllen)); g > 0 {
				seg = g
			}
		}
		if total == 0 {
			if nm < len(c.Msgs) {
				c.Msgs[nm] = Message{Buf: buf[:0], Addr: addr}
				nm++
			}
			continue
		}
		for off := 0; off < total; off += seg {
			end := off + seg
			if end > total {
				end = total
			}
			if nm == len(c.Msgs) {
				// Overfull split: peers sent longer trains than the
				// window contract. Count and let loss recovery repair.
				c.truncated.Add(uint64((total - off + seg - 1) / seg))
				break
			}
			c.Msgs[nm] = Message{Buf: buf[off:end], Addr: addr}
			nm++
		}
	}
	return nm
}

// srcAddr decodes entry i's kernel-written sockaddr.
//
//switchml:hotpath
func (c *Conn) srcAddr(i int, namelen uint32) netip.AddrPort {
	p := &c.sys
	b := p.rnames[i*sockaddrLen : (i+1)*sockaddrLen]
	if namelen >= syscall.SizeofSockaddrInet4 {
		fam := int(*(*uint16)(unsafe.Pointer(&b[0])))
		port := uint16(b[2])<<8 | uint16(b[3])
		if fam == syscall.AF_INET {
			return netip.AddrPortFrom(netip.AddrFrom4([4]byte(b[4:8])), port)
		}
		if fam == syscall.AF_INET6 && namelen >= sockaddrLen {
			return netip.AddrPortFrom(netip.AddrFrom16([16]byte(b[8:24])).Unmap(), port)
		}
	}
	return p.raddr // connected sockets may omit the name
}

// scanCmsgs reads a received entry's control buffer: it returns the
// UDP_GRO segment size, 0 when the datagram was not coalesced, and adds
// what an SO_RXQ_OVFL count says the socket has dropped since the last
// one to the Conn's total.
//
//switchml:hotpath
func (c *Conn) scanCmsgs(oob []byte, n int) (gro int) {
	if n > len(oob) {
		n = len(oob)
	}
	off := 0
	for off+syscall.SizeofCmsghdr <= n {
		cm := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[off]))
		l := int(cm.Len)
		if l < syscall.SizeofCmsghdr || off+l > n {
			break
		}
		if l >= syscall.CmsgLen(4) {
			switch {
			case cm.Level == solUDP && cm.Type == udpGRO:
				gro = int(*(*int32)(unsafe.Pointer(&oob[off+cmsgDataOff])))
			case cm.Level == syscall.SOL_SOCKET && cm.Type == soRxqOvfl:
				total := *(*uint32)(unsafe.Pointer(&oob[off+cmsgDataOff]))
				c.rcvDrops.Add(uint64(total - c.sys.lastOvfl)) // the kernel's counter wraps; so does the difference
				c.sys.lastOvfl = total
			}
		}
		off += (l + 7) &^ 7 // CMSG_ALIGN on 64-bit
	}
	return gro
}

// sysAppendTo copies one datagram into the staging arena.
//
//switchml:hotpath
func (c *Conn) sysAppendTo(payload []byte, to netip.AddrPort) {
	p := &c.sys
	if p.ucnt == len(p.ubufs) || p.scnt == len(p.shdrs) {
		c.Flush()
	}
	//switchml:allow hotpath -- append into a :0 re-slice with fixed MTU capacity; AppendTo's size guard bounds the copy
	buf := append(p.ubufs[p.ucnt][:0], payload...)
	p.ubufs[p.ucnt] = buf
	p.ucnt++
	c.stage(buf, 0, 1, to)
}

// sysAppendTrain stages an equal-size run. With GSO the run rides as
// UDP_SEGMENT super-datagrams of at most trainSegs(seg) segments each;
// without it each segment gets its own vector entry, aliasing the
// block.
//
//switchml:hotpath
func (c *Conn) sysAppendTrain(block []byte, seg int, to netip.AddrPort) {
	p := &c.sys
	if p.gso {
		stride := seg * trainSegs(seg)
		for off := 0; off < len(block); off += stride {
			end := off + stride
			if end > len(block) {
				end = len(block)
			}
			if p.scnt == len(p.shdrs) {
				c.Flush()
			}
			nseg := (end - off + seg - 1) / seg
			gso := 0
			if end-off > seg {
				gso = seg
			}
			c.stage(block[off:end], gso, nseg, to)
		}
		return
	}
	for off := 0; off < len(block); off += seg {
		end := off + seg
		if end > len(block) {
			end = len(block)
		}
		if p.scnt == len(p.shdrs) {
			c.Flush()
		}
		c.stage(block[off:end], 0, 1, to)
	}
}

// trainSegs is how many seg-byte segments one GSO send carries: the
// kernel's segment ceiling, or fewer where that many would not fit one
// UDP datagram (from 1,024-byte segments up).
func trainSegs(seg int) int { return max(1, min(maxTrainSegs, maxTrainBytes/seg)) }

// stage fills send vector entry scnt with one buffer (optionally a
// GSO train of gsoSeg-byte segments) bound for to.
//
//switchml:hotpath
func (c *Conn) stage(b []byte, gsoSeg, ndgrams int, to netip.AddrPort) {
	p := &c.sys
	if len(b) == 0 {
		return
	}
	i := p.scnt
	p.siov[i].Base = &b[0]
	p.siov[i].Len = uint64(len(b))
	h := &p.shdrs[i]
	h.n = 0
	h.hdr.Iov = &p.siov[i]
	h.hdr.Iovlen = 1
	h.hdr.Flags = 0
	if c.connected {
		h.hdr.Name = nil
		h.hdr.Namelen = 0
	} else {
		off := i * sockaddrLen
		nl := c.putName(off, to)
		if nl == 0 {
			c.dropSendN(errBadAddr, ndgrams)
			return
		}
		h.hdr.Name = &p.snames[off]
		h.hdr.Namelen = nl
	}
	if gsoSeg > 0 {
		off := i * oobSpace
		cm := (*syscall.Cmsghdr)(unsafe.Pointer(&p.soob[off]))
		cm.Level = solUDP
		cm.Type = udpSegment
		cm.SetLen(syscall.CmsgLen(2))
		*(*uint16)(unsafe.Pointer(&p.soob[off+cmsgDataOff])) = uint16(gsoSeg)
		h.hdr.Control = &p.soob[off]
		h.hdr.Controllen = uint64(syscall.CmsgSpace(2))
	} else {
		h.hdr.Control = nil
		h.hdr.Controllen = 0
	}
	p.segs[i] = uint32(ndgrams)
	p.scnt++
	p.sdg += ndgrams
}

// putName writes to's sockaddr (in the socket's own domain) at off in
// the send-name arena, returning its length — 0 when the address
// cannot be represented, e.g. a true IPv6 peer on an IPv4 socket.
//
//switchml:hotpath
func (c *Conn) putName(off int, to netip.AddrPort) uint32 {
	p := &c.sys
	b := p.snames[off : off+sockaddrLen]
	port := to.Port()
	if p.fam == syscall.AF_INET {
		addr := to.Addr().Unmap()
		if !addr.Is4() {
			return 0
		}
		*(*uint16)(unsafe.Pointer(&b[0])) = uint16(syscall.AF_INET)
		b[2] = byte(port >> 8)
		b[3] = byte(port)
		a4 := addr.As4()
		copy(b[4:8], a4[:])
		for i := 8; i < syscall.SizeofSockaddrInet4; i++ {
			b[i] = 0
		}
		return syscall.SizeofSockaddrInet4
	}
	*(*uint16)(unsafe.Pointer(&b[0])) = uint16(syscall.AF_INET6)
	b[2] = byte(port >> 8)
	b[3] = byte(port)
	b[4], b[5], b[6], b[7] = 0, 0, 0, 0 // flowinfo
	a16 := to.Addr().As16()             // maps IPv4 into ::ffff:a.b.c.d
	copy(b[8:24], a16[:])
	b[24], b[25], b[26], b[27] = 0, 0, 0, 0 // scope id
	return sockaddrLen
}

// sysFlush drains the staged vector with as few sendmmsg calls as the
// kernel allows. Transient pushback on an entry (ENOBUFS — EAGAIN is
// already absorbed by the netpoller park inside sendFn) gets the
// bounded backoff before the entry is skipped and counted, so a burst
// that momentarily overruns the socket buffer is delivered instead of
// shedding its tail into the retransmission machinery.
//
//switchml:hotpath
func (c *Conn) sysFlush() {
	p := &c.sys
	p.sfrom = 0
	retries := 0
	for p.sfrom < p.scnt {
		p.sn, p.serrno = 0, 0
		if err := p.rc.Write(p.sendFn); err != nil {
			for i := p.sfrom; i < p.scnt; i++ {
				c.dropSendN(err, int(p.segs[i]))
			}
			break
		}
		if p.serrno != 0 {
			if retries < sendRetryBudget && (p.serrno == syscall.ENOBUFS || p.serrno == syscall.EAGAIN) {
				retries++
				c.sendRetries.Add(1)
				time.Sleep(sendRetryPause << (retries - 1))
				continue // re-issue from the same entry
			}
			// sendmmsg failed on the first unsent entry: skip it so the
			// rest of the burst still goes out.
			//switchml:allow hotpath -- errno boxing hits the runtime small-integer interface cache; no heap allocation
			c.dropSendN(p.serrno, int(p.segs[p.sfrom]))
			p.sfrom++
			retries = 0
			continue
		}
		p.sfrom += p.sn
		retries = 0
		if p.sn == 0 {
			p.sfrom++ // defensive: never livelock on a 0 return
		}
	}
	p.scnt, p.ucnt, p.sdg = 0, 0, 0
}

// sysPending counts staged datagrams (train entries expanded).
func (c *Conn) sysPending() int { return c.sys.sdg }

// dropSendN accounts n undeliverable datagrams from one send entry.
//
//switchml:hotpath
func (c *Conn) dropSendN(err error, n int) {
	c.sendErrs.Add(uint64(n))
	if c.cfg.OnSendError != nil {
		c.cfg.OnSendError(err, n)
	}
}

// errBadAddr is pre-boxed for the hot path.
var errBadAddr error = errAddrFamily

// countOverflow asks the kernel to attach the socket's receive-queue
// drop count (SO_RXQ_OVFL) to what it delivers, in every mode; it
// reports whether the kernel agreed.
func countOverflow(u *net.UDPConn) bool {
	rc, err := u.SyscallConn()
	if err != nil {
		return false
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soRxqOvfl, 1)
	}); err != nil {
		return false
	}
	return serr == nil
}

// bufferSizes reads back the socket's receive and send buffer sizes as
// the kernel accounts them, 0 where it will not say.
func bufferSizes(u *net.UDPConn) (rcv, snd int) {
	rc, err := u.SyscallConn()
	if err != nil {
		return 0, 0
	}
	if err := rc.Control(func(fd uintptr) {
		// A size the kernel will not report stays 0, "unknown".
		rcv, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
		snd, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF)
	}); err != nil {
		return 0, 0
	}
	return rcv, snd
}

// ControlReusePort is a net.ListenConfig.Control hook setting
// SO_REUSEPORT before bind, letting every aggregator shard own a
// distinct socket on one address — the kernel then steers each flow
// to exactly one shard, the software analogue of NIC Flow Director
// steering.
func ControlReusePort(network, address string, rc syscall.RawConn) error {
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, unixSoReuseport, 1)
	}); err != nil {
		return err
	}
	return serr
}

const unixSoReuseport = 0xf // SO_REUSEPORT, absent from the frozen syscall package
