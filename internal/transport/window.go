package transport

import (
	"math/bits"
	"net"

	"switchml/internal/netio"
	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// What an endpoint sizes from the window: once the pool size follows
// the path (TunePoolSize) instead of a constant, everything that has to
// hold a window — socket buffers, the staging blocks — is derived from
// workers, s and k, where the protocol configuration already fixes it.

// skbCharge is what the kernel charges a socket buffer for one datagram
// of wire bytes travelling on its own rather than in a segment train:
// the sk_buff itself and a power-of-two data area holding the payload,
// the headers and the shared info. On Linux 6.x a 152-byte datagram is
// charged 832 bytes (a dedicated small-head cache), 280 to 536 bytes
// 1,280 and 1,048 to 1,400 bytes 2,304; the model below gives 1,280,
// 1,280 and 2,304, erring high where kernels differ.
func skbCharge(wire int) int {
	const skBuff, headersAndInfo = 256, 384
	return skBuff + 1<<bits.Len(uint(wire+headersAndInfo-1))
}

// sockBuffers is the buffer sizeSocket asked the kernel for and the
// receive buffer it got.
type sockBuffers struct {
	need, rcv int
}

// sizeSocket asks for socket buffers of need bytes in each direction —
// the windowBytes of the window that can be in flight toward this
// socket, and of the burst it answers with. It returns the need beside
// what the kernel granted; a host whose limits (rmem_max) hold the
// grant below the need can overrun, which udp_rcvbuf_drops_total then
// shows.
func sizeSocket(conn *net.UDPConn, need int) sockBuffers {
	b := sockBuffers{need: need}
	b.rcv, _ = netio.SizeBuffers(conn, need, need)
	return b
}

// windowBytes is what datagrams packets of slotElems elements are
// charged to a socket buffer, as the kernel charges datagrams that were
// not coalesced: a peer without segmentation offload, or a path that
// splits the trains, fits as well.
func windowBytes(datagrams, slotElems int) int {
	return datagrams * skbCharge(packet.WireLen(slotElems))
}

// foldRcvbufDrops adds what nc's socket has dropped at a full receive
// buffer since the last call (seen remembers the count) to total. The
// receive loops call it once per burst.
//
//switchml:hotpath
func foldRcvbufDrops(nc *netio.Conn, seen *uint64, total *telemetry.Counter) {
	if d := nc.RcvbufDrops(); d != *seen {
		total.Add(d - *seen)
		*seen = d
	}
}
