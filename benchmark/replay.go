package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"net/netip"
	"runtime"
	"slices"
	"time"

	"switchml/internal/core"
	"switchml/internal/netio"
	"switchml/internal/packet"
	"switchml/internal/quant"
	"switchml/internal/telemetry"
	"switchml/internal/transport"
)

// The layer replay is the traced pass's source of per-layer timings. A
// single goroutine pushes a tensor through the same public calls the
// transport makes, in the same order — worker state machine, codec,
// switch, batched socket I/O over a real loopback pair — timing blocks
// of one pool window (64 packets) so that time.Now does not swamp
// calls that take tens of nanoseconds. Every row is the median over
// the blocks.

const (
	replayBlocks = 256 // timed blocks per row
	ioBatch      = 32  // transport.DefaultBatch
)

// blocks collects per-operation costs of timed blocks.
type blocks []float64

func (b *blocks) add(d time.Duration, ops int) {
	if ops > 0 {
		*b = append(*b, float64(d)/float64(ops))
	}
}

// sink keeps results the compiler could otherwise discard.
var sink uint32

// layerReplay measures every *_ns_per_* row. tensor is a seeded int32
// tensor of the workload's first tensor's length; floats feeds the
// quantizer rows.
func layerReplay(tensor []int32, floats []float32, tr *tracer) (map[string]float64, error) {
	m := make(map[string]float64)
	section := func(name string, f func() error) error {
		sp := tr.start(name, 0, tidReplay)
		defer tr.finish(sp)
		if err := f(); err != nil {
			return fmt.Errorf("layer replay %s: %w", name, err)
		}
		return nil
	}
	steps := []struct {
		name string
		f    func() error
	}{
		{"quant", func() error { return replayQuant(m, floats) }},
		{"packet", func() error { return replayPacket(m, tensor) }},
		{"core.switch", func() error {
			sw, err := core.NewSwitch(replaySwitchConfig())
			if err != nil {
				return err
			}
			ingress, dup, result, err := replayCycle(tensor, sw.HandleInto, true)
			m["core.switch_ingress_ns_per_pkt"] = median(ingress)
			m["core.switch_dup_ns_per_pkt"] = median(dup)
			m["core.worker_result_ns_per_pkt"] = median(result)
			return err
		}},
		{"core.sharded", func() error {
			ss, err := core.NewShardedSwitch(replaySwitchConfig())
			if err != nil {
				return err
			}
			ingress, _, _, err := replayCycle(tensor, ss.HandleInto, false)
			m["core.sharded_ingress_ns_per_pkt"] = median(ingress)
			return err
		}},
		{"core.switch_alloc", func() error {
			sw, err := core.NewSwitch(replaySwitchConfig())
			if err != nil {
				return err
			}
			handle := func(p, _ *packet.Packet) core.Response { return sw.Handle(p) }
			ingress, _, _, err := replayCycle(tensor, handle, false)
			m["core.switch_alloc_ingress_ns_per_pkt"] = median(ingress)
			return err
		}},
		{"core.worker", func() error { return replayWorker(m, tensor) }},
		{"netio", func() error { return replayNetio(m, tensor) }},
		{"telemetry", func() error { return replayTelemetry(m) }},
	}
	for _, s := range steps {
		if err := section("replay."+s.name, s.f); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func replaySwitchConfig() core.SwitchConfig {
	return core.SwitchConfig{Workers: udpWorkers, PoolSize: poolSize, SlotElems: slotElems, LossRecovery: true}
}

func replayWorkers() ([]*core.Worker, error) {
	ws := make([]*core.Worker, udpWorkers)
	for id := range ws {
		w, err := core.NewWorker(core.WorkerConfig{
			ID: uint16(id), Workers: udpWorkers, PoolSize: poolSize, SlotElems: slotElems, LossRecovery: true,
		})
		if err != nil {
			return nil, err
		}
		ws[id] = w
	}
	return ws, nil
}

func replayQuant(m map[string]float64, floats []float32) error {
	fx, err := quant.NewFixedPoint(floatScale)
	if err != nil {
		return err
	}
	const chunk = 4096
	q := make([]int32, chunk)
	out := make([]float32, chunk)
	var qz, dq blocks
	for i := 0; i < replayBlocks; i++ {
		lo := (i * chunk) % (len(floats) - chunk + 1)
		src := floats[lo : lo+chunk]
		t0 := time.Now()
		sat := fx.Quantize(q, src)
		qz.add(time.Since(t0), chunk)
		if sat != 0 {
			return errors.New("quantization saturated")
		}
		t0 = time.Now()
		fx.Dequantize(out, q)
		dq.add(time.Since(t0), chunk)
	}
	m["quant.quantize_ns_per_elem"] = median(qz)
	m["quant.dequantize_ns_per_elem"] = median(dq)
	return nil
}

// window returns one pool window of update packets for the tensor and
// their wire forms.
func window(tensor []int32) ([]*packet.Packet, [][]byte, error) {
	ws, err := replayWorkers()
	if err != nil {
		return nil, nil, err
	}
	pkts := ws[0].Start(tensor)
	wires := make([][]byte, len(pkts))
	for i, p := range pkts {
		wires[i] = p.Marshal()
	}
	return pkts, wires, nil
}

func replayPacket(m map[string]float64, tensor []int32) error {
	pkts, wires, err := window(tensor)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 2048)
	var dec packet.Packet
	if err := packet.UnmarshalInto(&dec, wires[0]); err != nil { // sizes dec.Vector once
		return err
	}
	var ms0, ms1 runtime.MemStats
	var marshal, unmarshal, crc blocks
	runtime.ReadMemStats(&ms0)
	for i := 0; i < replayBlocks; i++ {
		t0 := time.Now()
		for _, p := range pkts {
			buf = p.AppendMarshal(buf[:0])
		}
		marshal.add(time.Since(t0), len(pkts))

		t0 = time.Now()
		for _, wire := range wires {
			if err := packet.UnmarshalInto(&dec, wire); err != nil {
				return err
			}
		}
		unmarshal.add(time.Since(t0), len(wires))
	}
	runtime.ReadMemStats(&ms1)
	for i := 0; i < replayBlocks; i++ {
		// The codec checksums the 20 header bytes before the checksum
		// field and then the payload; the paper's switch pays for neither.
		t0 := time.Now()
		for _, wire := range wires {
			c := crc32.ChecksumIEEE(wire[:20])
			sink += crc32.Update(c, crc32.IEEETable, wire[24:])
		}
		crc.add(time.Since(t0), len(wires))
	}
	m["packet.marshal_ns_per_pkt"] = median(marshal)
	m["packet.unmarshal_ns_per_pkt"] = median(unmarshal)
	m["packet.crc_est_ns_per_pkt"] = median(crc)
	m["packet.allocs_per_pkt"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(2*replayBlocks*len(pkts))
	return nil
}

// replayCycle runs the socket-free protocol cycle: two worker state
// machines stream the tensor through ingress one pool window at a
// time, exactly as over UDP but with delivery by function call. It
// times the switch's handling of each window's updates (ingress), the
// re-delivery of worker 0's updates to the just-completed slots (dup:
// the shadow-copy result retransmission of Alg. 3) and each worker's
// consumption of the window's results (result, which also builds the
// slot's next update).
func replayCycle(tensor []int32, ingress func(p, out *packet.Packet) core.Response, withDup bool) (ingressNs, dupNs, resultNs blocks, err error) {
	ws, err := replayWorkers()
	if err != nil {
		return nil, nil, nil, err
	}
	want := make([]int32, len(tensor))
	for i, v := range tensor {
		want[i] = v * udpWorkers
	}
	outs := make([]packet.Packet, poolSize)
	results := make([]*packet.Packet, 0, poolSize)
	var dupOut packet.Packet
	pend := make([][]*packet.Packet, udpWorkers)
	next := make([][]*packet.Packet, udpWorkers)

	for len(ingressNs) < replayBlocks {
		for w := range ws {
			pend[w] = append(pend[w][:0], ws[w].Start(tensor)...)
		}
		for done := false; !done; {
			n := len(pend[0])
			results = results[:0]
			t0 := time.Now()
			for i := 0; i < n; i++ {
				for w := range ws {
					if resp := ingress(pend[w][i], &outs[i]); resp.Pkt != nil {
						results = append(results, resp.Pkt)
					}
				}
			}
			ingressNs.add(time.Since(t0), n*udpWorkers)
			if len(results) != n {
				return nil, nil, nil, fmt.Errorf("window of %d slots produced %d results", n, len(results))
			}
			if withDup {
				t0 = time.Now()
				for i := 0; i < n; i++ {
					if resp := ingress(pend[0][i], &dupOut); resp.Pkt == nil || resp.Multicast {
						return nil, nil, nil, errors.New("re-delivered update was not answered from the shadow copy")
					}
				}
				dupNs.add(time.Since(t0), n)
			}
			for w := range ws {
				for _, p := range pend[w] {
					packet.PutPacket(p)
				}
				next[w] = next[w][:0]
				t0 = time.Now()
				for _, r := range results {
					nx, fin := ws[w].HandleResult(r)
					if nx != nil {
						next[w] = append(next[w], nx)
					}
					done = done || fin
				}
				resultNs.add(time.Since(t0), n)
				pend[w], next[w] = next[w], pend[w]
			}
		}
		for _, w := range ws {
			if !slices.Equal(w.Aggregate(), want) {
				return nil, nil, nil, errors.New("replayed aggregate is not the exact sum")
			}
		}
	}
	return ingressNs, dupNs, resultNs, nil
}

// replayWorker times building and rebuilding one pool window. The
// tensor is cut to one window so that Start's per-packet work is not
// buried under the size-dependent allocation of the result vector.
func replayWorker(m map[string]float64, tensor []int32) error {
	if len(tensor) > poolSize*slotElems {
		tensor = tensor[:poolSize*slotElems]
	}
	var start, retx blocks
	for i := 0; i < replayBlocks; i++ {
		ws, err := replayWorkers()
		if err != nil {
			return err
		}
		t0 := time.Now()
		pkts := ws[0].Start(tensor)
		start.add(time.Since(t0), len(pkts))
		for _, p := range pkts {
			packet.PutPacket(p)
		}
		t0 = time.Now()
		for idx := range pkts {
			packet.PutPacket(ws[0].Retransmit(uint32(idx)))
		}
		retx.add(time.Since(t0), len(pkts))
	}
	m["core.worker_start_ns_per_pkt"] = median(start)
	m["core.worker_retransmit_ns_per_pkt"] = median(retx)
	return nil
}

// replayNetio times the batched socket layer over a real loopback
// pair wrapped as the transport wraps its sockets: srv is an
// aggregator shard's unconnected socket, cli a worker's dialed one.
func replayNetio(m map[string]float64, tensor []int32) error {
	_, wires, err := window(tensor)
	if err != nil {
		return err
	}
	wire := wires[0]
	us, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer us.Close()
	uc, err := net.DialUDP("udp", nil, us.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return err
	}
	defer uc.Close()
	cfg := netio.Config{Batch: ioBatch, MTU: 2048}
	srv, err := netio.Wrap(us, cfg)
	if err != nil {
		return err
	}
	cli, err := netio.Wrap(uc, cfg)
	if err != nil {
		return err
	}
	cliAddr := uc.LocalAddr().(*net.UDPAddr).AddrPort()
	cliAddr = netip.AddrPortFrom(cliAddr.Addr().Unmap(), cliAddr.Port())

	// drain receives want datagrams and returns the time spent in Recv.
	drain := func(c *netio.Conn, want int) (time.Duration, error) {
		if err := c.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			return 0, err
		}
		t0 := time.Now()
		for got := 0; got < want; {
			n, err := c.Recv()
			if err != nil {
				return 0, err
			}
			got += n
		}
		return time.Since(t0), nil
	}

	train := make([]byte, 0, ioBatch*len(wire))
	for i := 0; i < ioBatch; i++ {
		train = append(train, wire...)
	}
	var send1, recv1, send32, recv32, trainSend blocks
	for i := 0; i < replayBlocks; i++ {
		// The worker's window pump: staged updates leave as one
		// equal-size train; the shard drains the burst.
		t0 := time.Now()
		cli.AppendTrain(train, len(wire), netip.AddrPort{})
		cli.Flush()
		trainSend.add(time.Since(t0), ioBatch)
		d, err := drain(srv, ioBatch)
		if err != nil {
			return err
		}
		recv32.add(d, ioBatch)

		// The aggregator's result fan-out: the same train to each peer.
		t0 = time.Now()
		srv.AppendTrain(train, len(wire), cliAddr)
		srv.Flush()
		trainSend.add(time.Since(t0), ioBatch)
		if d, err = drain(cli, ioBatch); err != nil {
			return err
		}
		recv32.add(d, ioBatch)

		// Unicast replies (result retransmissions, control) are staged
		// one by one and share a flush.
		t0 = time.Now()
		for j := 0; j < ioBatch; j++ {
			srv.AppendTo(wire, cliAddr)
		}
		srv.Flush()
		send32.add(time.Since(t0), ioBatch)
		if _, err := drain(cli, ioBatch); err != nil {
			return err
		}

		// Batch of 1: every datagram pays its own flush and wake-up.
		var ds, dr time.Duration
		for j := 0; j < ioBatch; j++ {
			t0 = time.Now()
			cli.AppendTo(wire, netip.AddrPort{})
			cli.Flush()
			ds += time.Since(t0)
			d, err := drain(srv, 1)
			if err != nil {
				return err
			}
			dr += d
		}
		send1.add(ds, ioBatch)
		recv1.add(dr, ioBatch)
	}
	m["netio.send_ns_per_dgram_b1"] = median(send1)
	m["netio.recv_ns_per_dgram_b1"] = median(recv1)
	m["netio.send_ns_per_dgram_b32"] = median(send32)
	m["netio.recv_ns_per_dgram_b32"] = median(recv32)
	m["netio.train_send_ns_per_dgram"] = median(trainSend)
	m["netio.send_errors"] = float64(srv.SendErrors() + cli.SendErrors())
	m["netio.send_retries"] = float64(srv.SendRetries() + cli.SendRetries())
	m["netio.truncated"] = float64(srv.Truncated() + cli.Truncated())
	return nil
}

// replayTelemetry times the metrics plane's own primitives on a
// registry holding what one aggregator and its workers register.
func replayTelemetry(m map[string]float64) error {
	reg := telemetry.NewRegistry()
	cfg := replaySwitchConfig()
	cfg.Metrics = reg
	if _, err := core.NewShardedSwitch(cfg); err != nil {
		return err
	}
	for id := 0; id < udpWorkers; id++ {
		if _, err := core.NewWorker(core.WorkerConfig{
			ID: uint16(id), Workers: udpWorkers, PoolSize: poolSize, SlotElems: slotElems, Metrics: reg,
		}); err != nil {
			return err
		}
	}
	ctr := reg.Counter("replay_counter")
	hist := reg.Histogram("replay_occupancy", transport.BatchOccupancyBuckets)
	var inc, obs, snap blocks
	for i := 0; i < replayBlocks; i++ {
		t0 := time.Now()
		for j := 0; j < poolSize; j++ {
			ctr.Inc()
		}
		inc.add(time.Since(t0), poolSize)
		t0 = time.Now()
		for j := 0; j < poolSize; j++ {
			hist.Observe(float64(j))
		}
		obs.add(time.Since(t0), poolSize)
	}
	for i := 0; i < 32; i++ {
		t0 := time.Now()
		s := reg.Snapshot()
		snap.add(time.Since(t0), 1)
		sink += uint32(len(s.Counters))
	}
	m["telemetry.counter_inc_ns"] = median(inc)
	m["telemetry.histogram_observe_ns"] = median(obs)
	m["telemetry.snapshot_us"] = median(snap) / 1e3
	return nil
}
