package netio

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pair binds a loopback listener and dials it, wrapping both ends.
func pair(t *testing.T, cfg Config) (srv, cli *Conn) {
	t.Helper()
	lu, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { lu.Close() })
	du, err := net.DialUDP("udp", nil, lu.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { du.Close() })
	srv, err = Wrap(lu, cfg)
	if err != nil {
		t.Fatalf("wrap listener: %v", err)
	}
	cli, err = Wrap(du, cfg)
	if err != nil {
		t.Fatalf("wrap dialer: %v", err)
	}
	return srv, cli
}

// collect drains conn until want datagrams arrived or the deadline
// passed, appending copies of each payload.
func collect(t *testing.T, c *Conn, want int) [][]byte {
	t.Helper()
	var got [][]byte
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < want {
		c.SetReadDeadline(deadline)
		n, err := c.Recv()
		if err != nil {
			t.Fatalf("recv after %d/%d datagrams: %v", len(got), want, err)
		}
		for _, m := range c.Msgs[:n] {
			got = append(got, bytes.Clone(m.Buf))
		}
	}
	return got
}

func modeConfigs() map[string]Config {
	return map[string]Config{
		"default":  {Batch: 16, MTU: 512},
		"portable": {Batch: 16, MTU: 512, ForcePortable: true},
	}
}

// TestHotpathRoundTrip is the golden exchange: a burst of distinct
// datagrams staged with AppendTo arrives intact (payloads and
// ordering within the flow preserved on loopback), in every mode the
// platform offers.
func TestHotpathRoundTrip(t *testing.T) {
	for name, cfg := range modeConfigs() {
		t.Run(name, func(t *testing.T) {
			srv, cli := pair(t, cfg)
			t.Logf("server mode %v, client mode %v", srv.Mode(), cli.Mode())
			const n = 12
			var sent [][]byte
			for i := 0; i < n; i++ {
				p := []byte(fmt.Sprintf("datagram-%02d-%s", i, name))
				sent = append(sent, p)
				cli.AppendTo(p, netip.AddrPort{})
			}
			if cli.Pending() == 0 {
				t.Fatalf("nothing staged")
			}
			cli.Flush()
			if cli.Pending() != 0 {
				t.Fatalf("flush left %d staged", cli.Pending())
			}
			got := collect(t, srv, n)
			for i := range sent {
				if !bytes.Equal(got[i], sent[i]) {
					t.Fatalf("datagram %d: got %q want %q", i, got[i], sent[i])
				}
			}
			if se := cli.SendErrors(); se != 0 {
				t.Fatalf("send errors: %d", se)
			}
		})
	}
}

// TestTrainRoundTrip sends equal-size segment trains through
// AppendTrain — the multicast/window-fill shape — and checks the
// receiver sees them split back into the original datagrams whatever
// combination of GSO, mmsg or portable I/O each side picked.
func TestTrainRoundTrip(t *testing.T) {
	for name, cfg := range modeConfigs() {
		t.Run(name, func(t *testing.T) {
			srv, cli := pair(t, cfg)
			const seg, nseg = 96, 10
			block := make([]byte, seg*nseg-32) // ragged tail: last seg short
			rng := rand.New(rand.NewSource(7))
			rng.Read(block)
			cli.AppendTrain(block, seg, netip.AddrPort{})
			cli.Flush()
			want := (len(block) + seg - 1) / seg
			got := collect(t, srv, want)
			for i := 0; i < want; i++ {
				lo := i * seg
				hi := lo + seg
				if hi > len(block) {
					hi = len(block)
				}
				if !bytes.Equal(got[i], block[lo:hi]) {
					t.Fatalf("segment %d mismatch (%d bytes, want %d)", i, len(got[i]), hi-lo)
				}
			}
		})
	}
}

// TestLongTrainRoundTrip: a train whose 64 segments together exceed
// one UDP datagram's 65,507 bytes (here 64 update packets of 312
// elements) still leaves, and every segment arrives whole, in every
// mode. A single UDP_SEGMENT send of it fails with EMSGSIZE.
func TestLongTrainRoundTrip(t *testing.T) {
	for name, cfg := range modeConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.MTU = 2048
			srv, cli := pair(t, cfg)
			if err := srv.UDP().SetReadBuffer(1 << 20); err != nil {
				t.Fatal(err)
			}
			const seg, nseg = 1272, maxTrainSegs
			block := make([]byte, seg*nseg)
			rand.New(rand.NewSource(3)).Read(block)
			cli.AppendTrain(block, seg, netip.AddrPort{})
			cli.Flush()
			if se := cli.SendErrors(); se != 0 {
				t.Fatalf("%d of %d datagrams failed to send", se, nseg)
			}
			got := collect(t, srv, nseg)
			for i := 0; i < nseg; i++ {
				if !bytes.Equal(got[i], block[i*seg:(i+1)*seg]) {
					t.Fatalf("segment %d mismatch (%d bytes, want %d)", i, len(got[i]), seg)
				}
			}
		})
	}
}

// TestReplyAddressing checks the unconnected side can answer a burst
// using the source addresses Recv decoded — the aggregator's reply
// path.
func TestReplyAddressing(t *testing.T) {
	for name, cfg := range modeConfigs() {
		t.Run(name, func(t *testing.T) {
			srv, cli := pair(t, cfg)
			cli.AppendTo([]byte("ping"), netip.AddrPort{})
			cli.Flush()
			srv.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := srv.Recv()
			if err != nil || n != 1 {
				t.Fatalf("recv: n=%d err=%v", n, err)
			}
			src := srv.Msgs[0].Addr
			if !src.IsValid() || src.Port() == 0 {
				t.Fatalf("no source address decoded: %v", src)
			}
			srv.AppendTo([]byte("pong"), src)
			srv.Flush()
			got := collect(t, cli, 1)
			if string(got[0]) != "pong" {
				t.Fatalf("reply: %q", got[0])
			}
		})
	}
}

// TestPortableEquivalence drives an identical seeded workload through
// the platform's best mode and the forced portable path and asserts
// byte-identical receipt — the guarantee that lets the transport flip
// between them without behavioral drift.
func TestPortableEquivalence(t *testing.T) {
	run := func(cfg Config) []byte {
		lu, _ := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		defer lu.Close()
		du, _ := net.DialUDP("udp", nil, lu.LocalAddr().(*net.UDPAddr))
		defer du.Close()
		srv, err := Wrap(lu, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cli, err := Wrap(du, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		sum := make([]byte, 0, 4096)
		for round := 0; round < 8; round++ {
			block := make([]byte, 128*8)
			rng.Read(block)
			cli.AppendTrain(block, 128, netip.AddrPort{})
			small := make([]byte, 1+rng.Intn(64))
			rng.Read(small)
			cli.AppendTo(small, netip.AddrPort{})
			cli.Flush()
			want := 8 + 1
			deadline := time.Now().Add(5 * time.Second)
			for got := 0; got < want; {
				srv.SetReadDeadline(deadline)
				n, err := srv.Recv()
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for _, m := range srv.Msgs[:n] {
					sum = append(sum, m.Buf...)
					got++
				}
			}
		}
		return sum
	}
	fast := run(Config{Batch: 8, MTU: 1024})
	slow := run(Config{Batch: 8, MTU: 1024, ForcePortable: true})
	if !bytes.Equal(fast, slow) {
		t.Fatalf("batched and portable paths received different byte streams (%d vs %d bytes)", len(fast), len(slow))
	}
}

// TestForcedPortableEnv pins the SWITCHML_NO_MMSG escape hatch.
func TestForcedPortableEnv(t *testing.T) {
	t.Setenv(NoMmsgEnv, "1")
	lu, _ := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	defer lu.Close()
	c, err := Wrap(lu, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Mode() != ModePortable {
		t.Fatalf("mode %v under %s=1, want portable", c.Mode(), NoMmsgEnv)
	}
}

// TestZeroAllocRecvFlush is the AllocsPerRun gate behind the
// //switchml:hotpath annotations on Recv/AppendTo/AppendTrain/Flush:
// a steady-state echo cycle must not touch the heap in any mode.
func TestZeroAllocRecvFlush(t *testing.T) {
	for name, cfg := range modeConfigs() {
		t.Run(name, func(t *testing.T) {
			srv, cli := pair(t, cfg)
			payload := bytes.Repeat([]byte{0xab}, 256)
			block := bytes.Repeat([]byte{0xcd}, 256*4)
			deadline := time.Now().Add(30 * time.Second)
			srv.SetReadDeadline(deadline)
			cli.SetReadDeadline(deadline)
			step := func() {
				cli.AppendTo(payload, netip.AddrPort{})
				cli.AppendTrain(block, 256, netip.AddrPort{})
				cli.Flush()
				for got := 0; got < 5; {
					n, err := srv.Recv()
					if err != nil {
						t.Fatalf("recv: %v", err)
					}
					got += n
				}
			}
			step() // warm both paths
			if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
				t.Errorf("echo cycle allocates %.2f/op in mode %v, want 0", allocs, cli.Mode())
			}
		})
	}
}

// TestShardedBurstRace exercises the REUSEPORT sharding layout under
// the race detector: several shard sockets bound to one address, each
// owned by a goroutine running recv bursts and staged echoes, against
// concurrent senders. Skipped where SO_REUSEPORT steering is
// unavailable.
func TestShardedBurstRace(t *testing.T) {
	const shards = 4
	lc := net.ListenConfig{Control: ControlReusePort}
	first, err := lc.ListenPacket(t.Context(), "udp", "127.0.0.1:0")
	if err != nil || os.Getenv(NoMmsgEnv) != "" {
		t.Skipf("SO_REUSEPORT unavailable: %v", err)
	}
	addr := first.LocalAddr().String()
	conns := []*net.UDPConn{first.(*net.UDPConn)}
	for i := 1; i < shards; i++ {
		pc, err := lc.ListenPacket(t.Context(), "udp", addr)
		if err != nil {
			t.Skipf("second REUSEPORT bind failed: %v", err)
		}
		conns = append(conns, pc.(*net.UDPConn))
	}
	var echoed atomic.Int64
	var wg sync.WaitGroup
	for _, u := range conns {
		nc, err := Wrap(u, Config{Batch: 16, MTU: 512})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n, err := nc.Recv()
				if err != nil {
					return // closed or deadline: shard done
				}
				for _, m := range nc.Msgs[:n] {
					nc.AppendTo(m.Buf, m.Addr)
				}
				nc.Flush()
				echoed.Add(int64(n))
			}
		}()
	}
	const senders, perSender = 4, 200
	var swg sync.WaitGroup
	for s := 0; s < senders; s++ {
		swg.Add(1)
		go func(seed int64) {
			defer swg.Done()
			du, err := net.Dial("udp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer du.Close()
			buf := make([]byte, 200)
			rand.New(rand.NewSource(seed)).Read(buf)
			go func() { // drain echoes so socket buffers never clog
				b := make([]byte, 512)
				for {
					if _, err := du.Read(b); err != nil {
						return
					}
				}
			}()
			for i := 0; i < perSender; i++ {
				if _, err := du.Write(buf); err != nil {
					t.Error(err)
					return
				}
			}
			time.Sleep(50 * time.Millisecond)
		}(int64(s))
	}
	swg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for echoed.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	for _, u := range conns {
		u.SetReadDeadline(time.Now())
		u.Close()
	}
	wg.Wait()
	if echoed.Load() == 0 {
		t.Fatalf("no datagrams reached the shard sockets")
	}
	t.Logf("shards echoed %d datagrams", echoed.Load())
}

// TestTrainBlockReuseAcrossBursts is the regression test for the
// aggregator's flushShard ordering: a staged train must stay valid
// until Flush returns (GSO mode sends directly from the caller's
// storage), and only then may the caller reset and refill the same
// backing array for the next burst. Two consecutive bursts through
// one reused block must both arrive intact.
func TestTrainBlockReuseAcrossBursts(t *testing.T) {
	for name, cfg := range modeConfigs() {
		t.Run(name, func(t *testing.T) {
			srv, cli := pair(t, cfg)
			const seg, nseg = 64, 4
			block := make([]byte, 0, seg*nseg)
			for burst := 0; burst < 2; burst++ {
				for i := 0; i < seg*nseg; i++ {
					block = append(block, byte(burst*31+i))
				}
				cli.AppendTrain(block, seg, netip.AddrPort{})
				cli.Flush()
				// Reset only after Flush — the flushShard contract the
				// bufown analyzer enforces statically.
				got := collect(t, srv, nseg)
				for i := 0; i < nseg; i++ {
					if !bytes.Equal(got[i], block[i*seg:(i+1)*seg]) {
						t.Fatalf("burst %d segment %d mismatch", burst, i)
					}
				}
				block = block[:0]
			}
		})
	}
}

// TestSizeBuffersGrowsAndReadsBack: a request above what the socket has
// is granted — as much of it as the host's limits allow — and reported
// as the kernel accounts it; a request below is left alone, never
// shrinking a buffer another layer sized.
func TestSizeBuffersGrowsAndReadsBack(t *testing.T) {
	lu, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer lu.Close()
	rcv0, snd0 := SizeBuffers(lu, 0, 0)
	if rcv0 == 0 {
		t.Skip("this platform does not report socket buffer sizes")
	}
	rcv1, snd1 := SizeBuffers(lu, 2*rcv0, 2*snd0)
	if rcv1 <= rcv0 || snd1 <= snd0 {
		t.Errorf("buffers %d/%d after asking for twice the initial %d/%d; want both grown", rcv1, snd1, rcv0, snd0)
	}
	if rcv2, snd2 := SizeBuffers(lu, 4096, 4096); rcv2 != rcv1 || snd2 != snd1 {
		t.Errorf("buffers %d/%d after a smaller request, want them left at %d/%d", rcv2, snd2, rcv1, snd1)
	}
}

// TestRcvbufDropsCounted overruns a small receive buffer while nobody
// reads and requires the Conn to report, in every mode, that the kernel
// dropped datagrams: the count rides on the datagrams that did fit.
func TestRcvbufDropsCounted(t *testing.T) {
	for name, cfg := range modeConfigs() {
		t.Run(name, func(t *testing.T) {
			srv, cli := pair(t, cfg)
			if !srv.ovfl {
				t.Skip("the kernel does not report receive-queue drops here")
			}
			if err := srv.UDP().SetReadBuffer(8 << 10); err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte{0xab}, 256)
			const sent = 400
			for i := 0; i < sent; i++ {
				cli.AppendTo(payload, netip.AddrPort{})
			}
			cli.Flush()
			// A last datagram once the queue has room again carries the
			// final count.
			got := 0
			for deadline := time.Now().Add(200 * time.Millisecond); ; {
				srv.SetReadDeadline(deadline)
				n, err := srv.Recv()
				if err != nil {
					break
				}
				got += n
			}
			cli.AppendTo(payload, netip.AddrPort{})
			cli.Flush()
			srv.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := srv.Recv(); err != nil || n != 1 {
				t.Fatalf("recv after the overrun: %d datagrams, %v", n, err)
			}
			drops := srv.RcvbufDrops()
			if got >= sent || drops == 0 {
				t.Fatalf("mode %v: %d of %d datagrams fit a small receive buffer and %d drops were counted; want an overrun, counted", srv.Mode(), got, sent, drops)
			}
			// Without segmentation offload a drop is a datagram, and they
			// all went somewhere.
			if srv.Mode() != ModeGSO && uint64(got)+drops != sent {
				t.Errorf("mode %v: %d received + %d dropped, want %d sent", srv.Mode(), got, drops, sent)
			}
			if cli.RcvbufDrops() != 0 {
				t.Errorf("the sending side counts %d drops at a receive buffer nothing was sent to", cli.RcvbufDrops())
			}
		})
	}
}
