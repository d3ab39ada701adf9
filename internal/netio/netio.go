// Package netio is the batched UDP socket layer under the transport
// hot loops. One Conn wraps one *net.UDPConn and carries preallocated
// message-vector arenas so that a run-to-completion loop can read a
// burst of datagrams with one syscall (Linux recvmmsg), stage every
// reply without allocating, and flush them all with one syscall
// (Linux sendmmsg) — the "batch end to end" discipline SwitchML's
// DPDK implementation gets from rte_eth_rx_burst/tx_burst.
//
// Three modes are selected at Wrap time, best first:
//
//	ModeGSO      recvmmsg/sendmmsg plus UDP segmentation offload:
//	             equal-size datagrams to one destination travel as a
//	             single segment train (UDP_SEGMENT), and the receive
//	             side reassembles coalesced trains via UDP_GRO. One
//	             syscall now carries up to 64 datagrams per vector
//	             entry.
//	ModeMmsg     recvmmsg/sendmmsg vectors without segment offload.
//	ModePortable one datagram per syscall through the net package —
//	             any OS, and the forced path under SWITCHML_NO_MMSG=1.
//
// The raw syscalls go through syscall.RawConn so the goroutine still
// parks in the runtime netpoller between bursts (a blocking raw read
// would either busy-spin against the non-blocking fd or wedge the
// thread) and read deadlines set on the underlying conn keep working.
// The module stays dependency-free: no golang.org/x/net, no cgo.
//
// Concurrency contract: one goroutine owns Recv and the Append*/Flush
// staging area (they share arenas). Writes made directly on UDP()
// from other goroutines remain safe — the kernel serializes socket
// sends — which is how the transport's control plane coexists with a
// batched shard loop.
package netio

import (
	"errors"
	"net"
	"net/netip"
	"os"
	"sync/atomic"
	"syscall"
	"time"
)

// Mode identifies which I/O strategy a Conn selected at Wrap time.
type Mode uint8

const (
	// ModePortable does one datagram per syscall via the net package.
	ModePortable Mode = iota
	// ModeMmsg batches datagrams with recvmmsg/sendmmsg.
	ModeMmsg
	// ModeGSO batches with recvmmsg/sendmmsg and additionally carries
	// equal-size runs as UDP_SEGMENT trains, reassembled by UDP_GRO.
	ModeGSO
)

// String names the mode for debug documents and logs.
func (m Mode) String() string {
	switch m {
	case ModeMmsg:
		return "mmsg"
	case ModeGSO:
		return "gso"
	default:
		return "portable"
	}
}

// NoMmsgEnv disables the Linux mmsg/GSO fast paths when set to a
// non-empty value, forcing ModePortable everywhere. CI runs one
// matrix leg with it so both code paths stay green.
const NoMmsgEnv = "SWITCHML_NO_MMSG"

// NoGSOEnv caps the mode at ModeMmsg, for isolating segmentation
// offload from plain vector I/O when debugging.
const NoGSOEnv = "SWITCHML_NO_GSO"

const (
	defaultBatch = 32
	defaultMTU   = 2048
	// maxTrainSegs is the kernel's UDP_MAX_SEGMENTS: one GSO send may
	// carry at most 64 segments, and GRO coalesces at most the same.
	maxTrainSegs = 64
	// maxTrainBytes is the most one GSO send may carry: a train is one
	// UDP datagram until the kernel segments it, so its payload is
	// bounded by the 16-bit UDP length less the UDP and IPv4 headers.
	// A longer one fails whole with EMSGSIZE.
	maxTrainBytes = 65535 - 8 - 20
)

// ErrPayloadTooLarge reports an Append of a datagram larger than the
// staging arena's per-message capacity (Config.MTU).
var ErrPayloadTooLarge = errors.New("netio: staged payload exceeds MTU")

// errAddrFamily reports a destination the socket's address family
// cannot carry (e.g. a global IPv6 peer on an IPv4 socket).
var errAddrFamily = errors.New("netio: destination address family mismatch")

// ErrReusePortUnsupported is returned by ControlReusePort on
// platforms without load-balancing SO_REUSEPORT semantics; callers
// fall back to sharing one socket between shards.
var ErrReusePortUnsupported = errors.New("netio: SO_REUSEPORT steering unsupported on this platform")

// Config sizes a Conn's arenas and selects options.
type Config struct {
	// Batch is the burst ceiling: the receive vector length and the
	// staging capacity hint. Zero selects 32. Batch 1 still works —
	// every path degenerates to single-datagram exchanges.
	Batch int
	// MTU is the largest datagram the caller will send or expects to
	// receive on this conn (wire bytes). Zero selects 2048. Receive
	// buffers in GSO mode are always 64 KiB — a coalesced train is one
	// large "datagram" at the socket API.
	MTU int
	// OnSendError observes failed or dropped sends: one call per
	// failed send entry, carrying the number of datagrams it covered
	// (a segment train fails as a unit). UDP sends are best-effort
	// throughout the transport, but dropping the error silently hides
	// misconfigured routes and dead peers from operators; the
	// transport counts these in the udp_send_errors_total counter.
	OnSendError func(err error, datagrams int)
	// ForcePortable pins ModePortable regardless of platform support,
	// the programmatic equivalent of SWITCHML_NO_MMSG=1 for
	// equivalence tests.
	ForcePortable bool
}

func (c *Config) fill() {
	if c.Batch <= 0 {
		c.Batch = defaultBatch
	}
	if c.MTU <= 0 {
		c.MTU = defaultMTU
	}
}

// Message is one received datagram. Buf aliases the conn's receive
// arena and is valid only until the next Recv call.
type Message struct {
	Buf  []byte
	Addr netip.AddrPort
}

// Conn is a batched view over one UDP socket.
type Conn struct {
	udp  *net.UDPConn
	mode Mode
	cfg  Config
	// connected is true for dialed sockets: sends omit the
	// destination (the kernel uses the connected peer) and Append
	// destinations are ignored.
	connected bool

	// Msgs[:n] holds the datagrams of the last Recv burst, n being
	// Recv's return value. The slice header is preallocated to the
	// worst-case split of a full burst; Recv never grows it.
	Msgs []Message

	// ovfl is set when the kernel attaches the socket's receive-queue
	// drop count to what it delivers (Linux SO_RXQ_OVFL); rcvDrops adds
	// those counts up. Written by the owning goroutine, read by
	// introspection.
	ovfl     bool
	rcvDrops atomic.Uint64

	// portable staging: copy-in buffers and destinations, flushed one
	// write syscall per datagram. poob receives the drop-count cmsg.
	pbuf   []byte // portable receive buffer
	poob   []byte
	sbufs  [][]byte
	sdst   []netip.AddrPort
	scount int

	// truncated/sendErrs/sendRetries are written by the owning
	// goroutine but read by debug introspection from arbitrary
	// goroutines, hence atomic.
	truncated   atomic.Uint64
	sendErrs    atomic.Uint64
	sendRetries atomic.Uint64

	sys platform // per-OS batched state (empty struct off Linux)
}

// Wrap layers batched I/O over an existing UDP socket. The socket
// remains usable directly (UDP()); Close the socket itself to tear
// down — Conn holds no resources beyond its arenas.
func Wrap(u *net.UDPConn, cfg Config) (*Conn, error) {
	cfg.fill()
	c := &Conn{
		udp:       u,
		cfg:       cfg,
		connected: u.RemoteAddr() != nil,
		ovfl:      countOverflow(u),
	}
	if !cfg.ForcePortable && os.Getenv(NoMmsgEnv) == "" {
		if err := c.initPlatform(); err != nil {
			return nil, err
		}
	}
	if c.mode == ModePortable {
		c.pbuf = make([]byte, recvBufSize(cfg.MTU))
		if c.ovfl {
			c.poob = make([]byte, 64)
		}
		c.Msgs = make([]Message, 1)
		c.sbufs = make([][]byte, cfg.Batch)
		for i := range c.sbufs {
			c.sbufs[i] = make([]byte, 0, cfg.MTU)
		}
		c.sdst = make([]netip.AddrPort, cfg.Batch)
	}
	return c, nil
}

// recvBufSize leaves headroom over the caller's MTU so an unexpected
// jumbo datagram is dropped by the codec checksum, not truncated into
// a plausible prefix.
func recvBufSize(mtu int) int {
	if mtu < defaultMTU {
		mtu = defaultMTU
	}
	return 2 * mtu
}

// Mode reports the I/O strategy selected at Wrap time.
func (c *Conn) Mode() Mode { return c.mode }

// Batch reports the configured burst ceiling.
func (c *Conn) Batch() int { return c.cfg.Batch }

// UDP exposes the underlying socket for control-plane traffic and
// deadline management.
func (c *Conn) UDP() *net.UDPConn { return c.udp }

// SetReadDeadline forwards to the underlying socket; Recv honors it
// in every mode (the raw paths park through the runtime netpoller).
func (c *Conn) SetReadDeadline(t time.Time) error { return c.udp.SetReadDeadline(t) }

// Truncated counts datagrams dropped because a burst split overran
// the Msgs arena — possible only if a peer sends trains longer than
// the negotiated window. The protocol's loss recovery repairs the
// stream; the counter makes the event visible.
func (c *Conn) Truncated() uint64 { return c.truncated.Load() }

// RcvbufDrops counts datagrams the kernel dropped because this socket's
// receive buffer was full, as far as the kernel has said: the count
// rides on delivered datagrams (Linux SO_RXQ_OVFL), so it trails the
// drops by one receive and stays 0 where the cmsg is not available.
// Loss recovery repairs the stream; the counter tells an overrun
// buffer — a window larger than SO_RCVBUF holds — from a lossy path.
func (c *Conn) RcvbufDrops() uint64 { return c.rcvDrops.Load() }

// SizeBuffers grows u's kernel receive and send buffers to at least rcv
// and snd bytes (0 leaves one alone; neither is ever shrunk) and
// returns the sizes the kernel then reports — what it granted, which a
// host's limits (Linux rmem_max, wmem_max) may hold below the request
// and Linux's own accounting doubles — or 0 where they cannot be read
// back.
func SizeBuffers(u *net.UDPConn, rcv, snd int) (gotRcv, gotSnd int) {
	gotRcv, gotSnd = bufferSizes(u)
	// A refused request leaves the buffer as it was, which the sizes
	// read back below report: they are the result, not the errors.
	if rcv > gotRcv {
		_ = u.SetReadBuffer(rcv)
	}
	if snd > gotSnd {
		_ = u.SetWriteBuffer(snd)
	}
	return bufferSizes(u)
}

// SendErrors counts datagrams whose send failed or was dropped at
// flush time (also reported, one call per datagram, to OnSendError).
func (c *Conn) SendErrors() uint64 { return c.sendErrs.Load() }

// SendRetries counts transient kernel pushback (ENOBUFS/EAGAIN)
// absorbed at flush time: each retry of a send that then went through
// (or was eventually dropped after the bounded backoff) adds one.
// Retried-and-delivered datagrams never reach SendErrors.
func (c *Conn) SendRetries() uint64 { return c.sendRetries.Load() }

// Pending reports the number of staged-but-unflushed datagrams.
func (c *Conn) Pending() int {
	if c.mode != ModePortable {
		return c.sysPending()
	}
	return c.scount
}

// Recv blocks until at least one datagram arrives (or the read
// deadline expires) and returns the burst size n; Msgs[:n] holds the
// datagrams. Buffers are valid until the next Recv.
//
//switchml:hotpath
func (c *Conn) Recv() (int, error) {
	if c.mode != ModePortable {
		return c.sysRecv()
	}
	// With a nil poob this is ReadFromUDPAddrPort.
	n, oobn, _, addr, err := c.udp.ReadMsgUDPAddrPort(c.pbuf, c.poob)
	if err != nil {
		return 0, err
	}
	if oobn > 0 {
		c.scanCmsgs(c.poob, oobn)
	}
	c.Msgs[0] = Message{Buf: c.pbuf[:n], Addr: addr}
	return 1, nil
}

// AppendTo stages one datagram for the next Flush, copying the
// payload into the conn's arena (so the caller may reuse its buffer
// immediately). A full arena flushes implicitly. On a connected
// socket the destination is ignored.
//
//switchml:hotpath
func (c *Conn) AppendTo(payload []byte, to netip.AddrPort) {
	if len(payload) > c.cfg.MTU {
		c.dropSend(errPayloadTooLarge)
		return
	}
	if c.mode != ModePortable {
		c.sysAppendTo(payload, to)
		return
	}
	if c.scount == len(c.sbufs) {
		c.Flush()
	}
	//switchml:allow hotpath -- append into a slice re-sliced to :0 with fixed MTU capacity; the guard above bounds the copy
	c.sbufs[c.scount] = append(c.sbufs[c.scount][:0], payload...)
	c.sdst[c.scount] = to
	c.scount++
}

// AppendTrain stages a run of len(block)/seg equal-size datagrams
// (the last may be shorter) for one destination. The block is NOT
// copied: it must stay valid until Flush returns. In ModeGSO the
// whole run is one UDP_SEGMENT send; in ModeMmsg it becomes one
// vector entry per segment; in ModePortable it degenerates to one
// write per segment. Equal-size result multicasts and window fills
// are the intended callers.
//
//switchml:hotpath
func (c *Conn) AppendTrain(block []byte, seg int, to netip.AddrPort) {
	if seg <= 0 || len(block) == 0 {
		return
	}
	if c.mode != ModePortable {
		c.sysAppendTrain(block, seg, to)
		return
	}
	for off := 0; off < len(block); off += seg {
		end := off + seg
		if end > len(block) {
			end = len(block)
		}
		c.AppendTo(block[off:end], to)
	}
}

// Flush sends every staged datagram. Errors are counted and reported
// through OnSendError per datagram — UDP staging is best-effort by
// design, so the hot loop never branches on a send verdict.
//
//switchml:hotpath
func (c *Conn) Flush() {
	if c.mode != ModePortable {
		c.sysFlush()
		return
	}
	for i := 0; i < c.scount; i++ {
		c.writePortable(c.sbufs[i], c.sdst[i])
	}
	c.scount = 0
}

const (
	// sendRetryBudget/sendRetryPause bound the transient-send backoff:
	// a datagram the kernel pushed back (ENOBUFS under burst load,
	// EAGAIN on an edge the poller cannot arbitrate) is retried up to
	// the budget with a pause doubling from the base — ~350µs worst
	// case, short enough that a flush never stalls the shard loop —
	// before it is declared lost and dropped into SendErrors.
	sendRetryBudget = 3
	sendRetryPause  = 50 * time.Microsecond
)

// Boxed once here so the hot send path compares against ready-made
// error values instead of boxing a syscall.Errno per failed send.
var (
	errNoBufs error = syscall.ENOBUFS
	errAgain  error = syscall.EAGAIN
)

// transientSendErr reports errors worth the brief retry: the kernel
// ran out of socket buffer space or asked to try again. Anything else
// (unreachable routes, bad addresses, closed sockets) fails the same
// way on retry and is dropped immediately.
func transientSendErr(err error) bool {
	return errors.Is(err, errNoBufs) || errors.Is(err, errAgain)
}

// writePortable sends one staged datagram, absorbing transient kernel
// pushback with the bounded backoff before the datagram is declared
// lost.
//
//switchml:hotpath
func (c *Conn) writePortable(buf []byte, dst netip.AddrPort) {
	for attempt := 0; ; attempt++ {
		var err error
		if c.connected {
			_, err = c.udp.Write(buf)
		} else {
			_, err = c.udp.WriteToUDPAddrPort(buf, dst)
		}
		if err == nil {
			return
		}
		if attempt < sendRetryBudget && transientSendErr(err) {
			c.sendRetries.Add(1)
			time.Sleep(sendRetryPause << attempt)
			continue
		}
		c.dropSend(err)
		return
	}
}

// errPayloadTooLarge is pre-boxed so the hot path can hand it to
// dropSend without converting a concrete type into an interface.
var errPayloadTooLarge error = ErrPayloadTooLarge

// dropSend accounts one undeliverable datagram.
//
//switchml:hotpath
func (c *Conn) dropSend(err error) {
	c.sendErrs.Add(1)
	if c.cfg.OnSendError != nil {
		c.cfg.OnSendError(err, 1)
	}
}
