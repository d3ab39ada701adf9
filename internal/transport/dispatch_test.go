package transport

import (
	"encoding/hex"
	"errors"
	"net"
	"testing"
	"time"

	"switchml/internal/core"
	"switchml/internal/packet"
)

// TestAggregatorCountsUnexpectedKinds is the regression test for the
// serve loops' dispatch defaults: a well-formed datagram whose kind
// workers never originate (a result, here) must not vanish silently —
// the aggregator drops it and increments udp_unexpected_kind_total.
func TestAggregatorCountsUnexpectedKinds(t *testing.T) {
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Switch: core.SwitchConfig{Workers: 1, PoolSize: 2, SlotElems: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	conn, err := net.DialUDP("udp", nil, agg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	bogus := packet.Packet{Kind: packet.KindResult, WorkerID: 0, Idx: 0, Vector: []int32{1, 2, 3, 4}}
	wire := bogus.Marshal()
	ctr := agg.Registry().Counter("udp_unexpected_kind_total", "role", "aggregator")
	deadline := time.Now().Add(5 * time.Second)
	for ctr.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("unexpected-kind counter never incremented for a KindResult datagram")
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
}

// previousLayouts are a full update in each wire layout before the
// current one, internal/packet's frozen goldens: the one before the
// checksum moved to the front (magic at [0,2), checksum at [20,24)),
// and the one before the payload became little-endian (magic "SM", the
// elements big-endian).
var previousLayouts = []string{
	"534d0001000100070000000500000001000000a0a9bccfe2ffffff9cffffff9d" +
		"ffffffa0ffffffa5ffffffacffffffb5ffffffc0ffffffcdffffffdcffffffed" +
		"00000000000000150000002c00000045000000600000007d0000009c000000bd" +
		"000000e0000001050000012c0000015500000180000001ad000001dc0000020d" +
		"0000024000000275000002ac000002e50000032080000000",
	"a9bccfe2534d0001000100070000000500000001000000a0ffffff9cffffff9d" +
		"ffffffa0ffffffa5ffffffacffffffb5ffffffc0ffffffcdffffffdcffffffed" +
		"00000000000000150000002c00000045000000600000007d0000009c000000bd" +
		"000000e0000001050000012c0000015500000180000001ad000001dc0000020d" +
		"0000024000000275000002ac000002e50000032080000000",
}

// TestPreviousLayoutCountedCorrupted pins what a mixed-version
// deployment looks like: a datagram from an endpoint still on an
// earlier wire layout fails the codec's magic check at either end, is
// counted in udp_datagrams_corrupted_total and dropped — never
// misparsed as an update or a result.
func TestPreviousLayoutCountedCorrupted(t *testing.T) {
	var olds [][]byte
	for _, l := range previousLayouts {
		old, err := hex.DecodeString(l)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := packet.Unmarshal(old); !errors.Is(err, packet.ErrBadMagic) {
			t.Fatalf("Unmarshal(%x) = %v, want %v", old[:8], err, packet.ErrBadMagic)
		}
		olds = append(olds, old)
	}

	t.Run("aggregator", func(t *testing.T) {
		agg, err := NewAggregator(AggregatorConfig{
			Addr:   "127.0.0.1:0",
			Switch: core.SwitchConfig{Workers: 2, PoolSize: 8, SlotElems: 32},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer agg.Close()
		conn, err := net.DialUDP("udp", nil, agg.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		ctr := agg.Registry().Counter("udp_datagrams_corrupted_total", "role", "aggregator")
		for i, old := range olds {
			deadline := time.Now().Add(5 * time.Second)
			for ctr.Value() <= uint64(i) {
				if time.Now().After(deadline) {
					t.Fatalf("the aggregator never counted layout %d's datagram as corrupted", i)
				}
				if _, err := conn.Write(old); err != nil {
					t.Fatal(err)
				}
				time.Sleep(time.Millisecond)
			}
		}
		if st := agg.Stats(); st.Updates != 0 {
			t.Errorf("aggregator accepted %d updates from previous-layout datagrams", st.Updates)
		}
	})

	t.Run("worker", func(t *testing.T) {
		// A one-worker "aggregator" answers every update with each
		// earlier layout's datagram first, then the real result.
		sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer sock.Close()
		go func() {
			buf := make([]byte, 2048)
			var p packet.Packet
			for {
				n, src, err := sock.ReadFromUDPAddrPort(buf)
				if err != nil {
					return
				}
				if packet.UnmarshalInto(&p, buf[:n]) != nil {
					continue
				}
				if ack := helloAck(&p, 4, 8, 1); ack != nil {
					sock.WriteToUDPAddrPort(ack, src)
					continue
				}
				if p.Kind != packet.KindUpdate {
					continue
				}
				for _, old := range olds {
					sock.WriteToUDPAddrPort(old, src)
				}
				p.Kind = packet.KindResult
				sock.WriteToUDPAddrPort(p.Marshal(), src)
			}
		}()
		c, err := NewClient(ClientConfig{
			Aggregator: sock.LocalAddr().String(),
			Worker:     core.WorkerConfig{ID: 0, Workers: 1, PoolSize: 4, SlotElems: 8, LossRecovery: true},
			Timeout:    10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		u := make([]int32, 16) // two chunks, each result behind the earlier layouts' datagrams
		for i := range u {
			u[i] = int32(3*i) - 20
		}
		got, err := c.AllReduceInt32(u)
		if err != nil {
			t.Fatal(err)
		}
		for i := range u {
			if got[i] != u[i] {
				t.Fatalf("element %d = %d, want %d", i, got[i], u[i])
			}
		}
		if n, want := c.Registry().Counter("udp_datagrams_corrupted_total", "role", "worker", "worker", "0").Value(), uint64(2*len(olds)); n < want {
			t.Errorf("worker counted %d corrupted datagrams, want at least the %d sent ahead of the results", n, want)
		}
	})
}

// TestClientCountsUnexpectedKind pins the worker-side dispatch
// default: kinds an aggregator never sends (updates, reports,
// heartbeats) are dropped and counted rather than silently ignored.
func TestClientCountsUnexpectedKind(t *testing.T) {
	agg, err := NewAggregator(AggregatorConfig{
		Addr:   "127.0.0.1:0",
		Switch: core.SwitchConfig{Workers: 1, PoolSize: 2, SlotElems: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	c, err := NewClient(ClientConfig{
		Aggregator: agg.Addr().String(),
		Worker:     core.WorkerConfig{ID: 0, Workers: 1, PoolSize: 2, SlotElems: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, k := range []packet.Kind{packet.KindUpdate, packet.KindReport, packet.KindHeartbeat} {
		done, err := c.handleIncoming(&packet.Packet{Kind: k})
		if done || err != nil {
			t.Fatalf("handleIncoming(%v) = %v, %v; want false, nil", k, done, err)
		}
	}
	ctr := c.Registry().Counter("udp_unexpected_kind_total", "role", "worker", "worker", "0")
	if got := ctr.Value(); got != 3 {
		t.Fatalf("unexpected-kind counter = %d after 3 undispatched kinds, want 3", got)
	}
}
