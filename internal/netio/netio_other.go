//go:build !linux

package netio

import (
	"net"
	"net/netip"
	"syscall"
)

// Non-Linux targets have no batched syscalls to reach for; every Conn
// runs ModePortable and these stubs are never invoked (netio.go
// branches on the mode before calling them).

type platform struct{}

func (c *Conn) initPlatform() error { return nil }

func (c *Conn) sysRecv() (int, error) { return 0, errAddrFamily }

func (c *Conn) sysAppendTo(payload []byte, to netip.AddrPort) {}

func (c *Conn) sysAppendTrain(block []byte, seg int, to netip.AddrPort) {}

func (c *Conn) sysFlush() {}

func (c *Conn) sysPending() int { return 0 }

func (c *Conn) scanCmsgs(oob []byte, n int) int { return 0 }

// countOverflow refuses: the receive-queue drop count is a Linux cmsg.
func countOverflow(u *net.UDPConn) bool { return false }

// bufferSizes cannot read the sizes back here and reports them unknown.
func bufferSizes(u *net.UDPConn) (rcv, snd int) { return 0, 0 }

// ControlReusePort refuses: SO_REUSEPORT load balancing across
// sockets is a Linux behavior; elsewhere shards share one socket.
func ControlReusePort(network, address string, rc syscall.RawConn) error {
	return ErrReusePortUnsupported
}
