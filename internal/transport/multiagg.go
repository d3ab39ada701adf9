package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"

	"switchml/internal/core"
	"switchml/internal/netio"
	"switchml/internal/packet"
	"switchml/internal/telemetry"
)

// MultiAggregator is a UDP software aggregator serving several
// concurrent jobs, the multi-tenant scenario of §6: every job owns a
// disjoint pool of aggregators, an admission check bounds total
// register memory, and packets are routed to their job's pool by the
// JobID field.
type MultiAggregator struct {
	conn *net.UDPConn
	reg  *telemetry.Registry

	recvd, corrupt, sent *telemetry.Counter
	// sendErrs counts result datagrams whose socket send failed
	// (surfaced, not retried — worker RTO repairs the loss).
	sendErrs *telemetry.Counter

	mu     sync.Mutex
	ms     *core.MultiSwitch
	peers  map[uint16][]netip.AddrPort // per job, indexed by worker id
	wg     sync.WaitGroup
	closed chan struct{}
}

// NewMultiAggregator binds addr and serves with the given register
// memory budget in bytes (0 = unlimited).
func NewMultiAggregator(addr string, memoryBudget int) (*MultiAggregator, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	reg := telemetry.NewRegistry()
	m := &MultiAggregator{
		conn:     conn,
		reg:      reg,
		recvd:    reg.Counter("udp_datagrams_received_total", "role", "multiagg"),
		corrupt:  reg.Counter("udp_datagrams_corrupted_total", "role", "multiagg"),
		sent:     reg.Counter("udp_datagrams_sent_total", "role", "multiagg"),
		sendErrs: reg.Counter("udp_send_errors_total", "role", "multiagg"),
		ms:       core.NewMultiSwitch(memoryBudget),
		peers:    make(map[uint16][]netip.AddrPort),
		closed:   make(chan struct{}),
	}
	m.wg.Add(1)
	go m.serve()
	return m, nil
}

// Addr returns the bound listen address.
func (m *MultiAggregator) Addr() *net.UDPAddr { return m.conn.LocalAddr().(*net.UDPAddr) }

// Registry returns the registry holding every admitted job's switch
// counters (labeled job="<id>") plus the shared datagram counters.
func (m *MultiAggregator) Registry() *telemetry.Registry { return m.reg }

// AdmitJob allocates a pool for a job, failing when the memory budget
// would be exceeded (the admission mechanism of §6).
func (m *MultiAggregator) AdmitJob(cfg core.SwitchConfig) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cfg.Metrics = m.reg
	if cfg.Now == nil {
		cfg.Now = telemetry.WallClock
	}
	if _, err := m.ms.AdmitJob(cfg); err != nil {
		return err
	}
	m.peers[cfg.JobID] = make([]netip.AddrPort, cfg.Workers)
	// The one socket takes every admitted job's window at once.
	need := 0
	for _, id := range m.ms.Jobs() {
		c := m.ms.Job(id).Config()
		need += windowBytes(c.Workers*c.PoolSize, c.SlotElems)
	}
	netio.SizeBuffers(m.conn, need, need)
	return nil
}

// PoolSize returns an admitted job's pool size s, 0 for a job that was
// not admitted.
func (m *MultiAggregator) PoolSize(job uint16) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sw := m.ms.Job(job); sw != nil {
		return sw.Config().PoolSize
	}
	return 0
}

// ReleaseJob frees a job's pool.
func (m *MultiAggregator) ReleaseJob(job uint16) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.ms.ReleaseJob(job); err != nil {
		return err
	}
	delete(m.peers, job)
	return nil
}

// MemoryBytes returns the admitted jobs' total register memory.
func (m *MultiAggregator) MemoryBytes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ms.MemoryBytes()
}

// Jobs returns the admitted job ids.
func (m *MultiAggregator) Jobs() []uint16 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ms.Jobs()
}

// Close shuts the server down.
func (m *MultiAggregator) Close() error {
	select {
	case <-m.closed:
		return nil
	default:
	}
	close(m.closed)
	err := m.conn.Close()
	m.wg.Wait()
	return err
}

// serve is the datagram loop. Receive buffer, decoded packet,
// response packet, target list and wire bytes are all reused across
// datagrams, so the steady-state cycle does not allocate.
func (m *MultiAggregator) serve() {
	defer m.wg.Done()
	var (
		buf     = make([]byte, 65536)
		p       packet.Packet
		out     packet.Packet
		wire    []byte
		targets []netip.AddrPort
	)
	for {
		n, src, err := m.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-m.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		m.recvd.Inc()
		if err := packet.UnmarshalInto(&p, buf[:n]); err != nil {
			m.corrupt.Inc()
			continue
		}
		if p.Kind != packet.KindUpdate {
			continue
		}
		m.mu.Lock()
		peers, ok := m.peers[p.JobID]
		if !ok || int(p.WorkerID) >= len(peers) {
			m.mu.Unlock()
			continue
		}
		peers[p.WorkerID] = src
		resp := m.ms.HandleInto(&p, &out)
		targets = targets[:0]
		if resp.Pkt != nil {
			if resp.Multicast {
				targets = append(targets, peers...)
			} else if t := peers[resp.Pkt.WorkerID]; t.IsValid() {
				targets = append(targets, t)
			}
		}
		m.mu.Unlock()
		if resp.Pkt == nil {
			continue
		}
		wire = resp.Pkt.AppendMarshal(wire[:0])
		for _, t := range targets {
			if t.IsValid() {
				if _, err := m.conn.WriteToUDPAddrPort(wire, t); err != nil {
					m.sendErrs.Inc()
					continue
				}
				m.sent.Inc()
			}
		}
	}
}

// JobStats returns one admitted job's switch counters.
func (m *MultiAggregator) JobStats(job uint16) (core.SwitchStats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sw := m.ms.Job(job)
	if sw == nil {
		return core.SwitchStats{}, false
	}
	return sw.Stats(), true
}
