package transport

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"switchml/internal/core"
	"switchml/internal/packet"
)

// helloAck is a hand-played aggregator's answer to a client's dial
// hello: the marshalled ack telling it the job's shape, n workers with
// s slots of k elements, or nil when p is not a hello.
func helloAck(p *packet.Packet, s, k, n int) []byte {
	if p.Kind != packet.KindProbe || p.Ver != 1 {
		return nil
	}
	ack := packet.NewControl(packet.KindProbeAck, p.WorkerID, p.JobID, 0, []int32{int32(s), int32(k), int32(n)})
	ack.Ver = 1
	return ack.Marshal()
}

// answerHello acks the first dial hello that reaches sock with the
// shape (s, k, n) and stops reading: sock is then silent, or left to
// whatever reads it next, for the rest of the test.
func answerHello(sock *net.UDPConn, s, k, n int) {
	go func() {
		buf := make([]byte, 2048)
		var p packet.Packet
		for {
			nr, src, err := sock.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if packet.UnmarshalInto(&p, buf[:nr]) != nil {
				continue
			}
			if ack := helloAck(&p, s, k, n); ack != nil {
				sock.WriteToUDPAddrPort(ack, src)
				return
			}
		}
	}()
}

// shapeHost is a 2-worker job admitted at the tuned shape: the address
// its workers dial, the job ids they dial with, the pool size and
// packet size each of those jobs has, and the server, for its counters.
type shapeHost struct {
	addr string
	jobs []uint16
	s, k int
	srv  *Aggregator
}

const shapeWorkers = 2

// shapeHosts are the three ways an aggregator admits a job, each with
// PoolSize and SlotElems left zero: a single-job aggregator, a multi-job
// one's AdmitJob, and its AdmitShardedJob of 2 shards.
var shapeHosts = []struct {
	name  string
	admit func(t *testing.T) shapeHost
}{
	{"NewAggregator", func(t *testing.T) shapeHost {
		a, err := NewAggregator(AggregatorConfig{Addr: "127.0.0.1:0", Switch: core.SwitchConfig{Workers: shapeWorkers, LossRecovery: true}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		c := a.Config()
		return shapeHost{a.Addr().String(), []uint16{0}, c.PoolSize, c.SlotElems, a}
	}},
	{"AdmitJob", func(t *testing.T) shapeHost {
		m := listenMulti(t)
		if err := m.AdmitJob(core.SwitchConfig{Workers: shapeWorkers, LossRecovery: true, JobID: 5}); err != nil {
			t.Fatal(err)
		}
		return shapeHost{m.Addr().String(), []uint16{5}, m.PoolSize(5), m.SlotElems(5), m.agg}
	}},
	{"AdmitShardedJob", func(t *testing.T) shapeHost {
		m := listenMulti(t)
		if err := m.AdmitShardedJob(10, 2, core.SwitchConfig{Workers: shapeWorkers, LossRecovery: true}); err != nil {
			t.Fatal(err)
		}
		if m.PoolSize(10) != m.PoolSize(11) {
			t.Fatalf("the shards were admitted with %d and %d slots", m.PoolSize(10), m.PoolSize(11))
		}
		return shapeHost{m.Addr().String(), []uint16{10, 11}, m.PoolSize(10), m.SlotElems(10), m.agg}
	}},
}

func listenMulti(t *testing.T) *MultiAggregator {
	t.Helper()
	m, err := NewMultiAggregator("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// dialShape dials one client of a shape host's job with the given k and
// s (zero: the job's).
func dialShape(h shapeHost, job uint16, id, s, k int) (*Client, error) {
	return NewClient(ClientConfig{
		Aggregator: h.addr,
		Worker:     core.WorkerConfig{ID: uint16(id), Workers: shapeWorkers, PoolSize: s, SlotElems: k, JobID: job, LossRecovery: true},
		RTO:        20 * time.Millisecond,
		Timeout:    10 * time.Second,
	})
}

// TestDialShape is the shape table: every way an aggregator admits a job
// against every shape a worker can dial it with — s zero, smaller or
// larger than the job's, and k zero or another than the job's. A worker
// that can take the job's shape is told it at dial and completes exact
// sums over a tensor whose chunks reach its last slot, with no update
// counted beyond the pool; any other fails at dial with ErrShape,
// instead of having its first window aggregated and every later update
// rejected. Every I/O mode runs the table.
func TestDialShape(t *testing.T) {
	for _, mode := range ioModes {
		t.Run(mode.mode.String(), func(t *testing.T) {
			if mode.env != "" {
				t.Setenv(mode.env, "1")
			}
			for _, host := range shapeHosts {
				for _, sc := range []struct {
					name string
					s    func(job int) int
				}{
					{"s=0", func(int) int { return 0 }},
					{"s<job", func(job int) int { return job / 2 }},
					{"s>job", func(job int) int { return 2 * job }},
				} {
					for _, kc := range []struct {
						name string
						k    func(job int) int
					}{
						{"k=0", func(int) int { return 0 }},
						{"k!=job", func(int) int { return packet.DefaultElems }},
					} {
						t.Run(fmt.Sprintf("%s/%s/%s", host.name, sc.name, kc.name), func(t *testing.T) {
							h := host.admit(t)
							s, k := sc.s(h.s), kc.k(h.k)
							ok, window := s <= h.s && k == 0, s
							if s == 0 {
								window = h.s
							}
							for _, job := range h.jobs {
								var clients []*Client
								for id := 0; id < shapeWorkers; id++ {
									c, err := dialShape(h, job, id, s, k)
									if !ok {
										if !errors.Is(err, ErrShape) {
											t.Fatalf("job %d: a worker with s %d and k %d against s %d and k %d dialed with %v, want ErrShape", job, s, k, h.s, h.k, err)
										}
										continue
									}
									if err != nil {
										t.Fatalf("job %d worker %d: %v", job, id, err)
									}
									t.Cleanup(func() { c.Close() })
									if cfg := c.WorkerConfig(); cfg.SlotElems != h.k || cfg.PoolSize != window {
										t.Fatalf("job %d worker %d keeps %d slots of %d elements, want %d of %d", job, id, cfg.PoolSize, cfg.SlotElems, window, h.k)
									}
									clients = append(clients, c)
								}
								if ok {
									lockstep(t, clients, 2*h.s*h.k+5, 1)
								}
							}
							if got := h.srv.beyondPool.Value(); got != 0 {
								t.Errorf("%d updates counted beyond the pool, want 0", got)
							}
						})
					}
				}
			}
		})
	}
}

// TestDialHelloDatagrams counts the dial's datagrams: on a lossless
// loopback each client sends one hello and receives one ack, and the
// aggregator receives and sends one datagram a client.
func TestDialHelloDatagrams(t *testing.T) {
	for _, host := range shapeHosts {
		t.Run(host.name, func(t *testing.T) {
			h := host.admit(t)
			dialed := 0
			for _, job := range h.jobs {
				for id := 0; id < shapeWorkers; id++ {
					c, err := dialShape(h, job, id, 0, 0)
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					if st := c.DebugState(); st.Sent != 1 || st.Received != 1 {
						t.Errorf("job %d worker %d: %d datagrams sent and %d received at dial, want 1 and 1", job, id, st.Sent, st.Received)
					}
					dialed++
				}
			}
			if rx, tx := h.srv.recvd.Value(), h.srv.sent.Value(); rx != uint64(dialed) || tx != uint64(dialed) {
				t.Errorf("the aggregator received %d and sent %d datagrams for %d dials, want %d and %d", rx, tx, dialed, dialed, dialed)
			}
		})
	}
}
