package switchml

import (
	"fmt"
	"sync"

	"switchml/internal/core"
	"switchml/internal/packet"
	"switchml/internal/quant"
)

// Option customizes a Cluster.
type Option func(*clusterOptions) error

type clusterOptions struct {
	poolSize  int
	slotElems int
	scale     float64
	f16scale  float64
	jobID     uint16
}

// WithPoolSize sets s, the number of aggregator slots (default 64).
// Larger pools admit more in-flight chunks per worker (§3.6 of the
// paper); in-process clusters are latency-free, so the default is
// modest.
func WithPoolSize(s int) Option {
	return func(o *clusterOptions) error {
		if s <= 0 {
			return fmt.Errorf("switchml: pool size must be positive, got %d", s)
		}
		o.poolSize = s
		return nil
	}
}

// WithSlotElems sets k, the elements aggregated per packet (default
// 32, the paper's Tofino limit).
func WithSlotElems(k int) Option {
	return func(o *clusterOptions) error {
		if k <= 0 {
			return fmt.Errorf("switchml: slot elements must be positive, got %d", k)
		}
		o.slotElems = k
		return nil
	}
}

// WithScale sets the fixed-point scaling factor f used by the
// float32 all-reduce methods (Appendix C). Without it, float32
// aggregation returns an error. Use MaxSafeScale to derive f from a
// gradient bound.
func WithScale(f float64) Option {
	return func(o *clusterOptions) error {
		if _, err := quant.NewFixedPoint(f); err != nil {
			return err
		}
		o.scale = f
		return nil
	}
}

// WithFloat16 selects the paper's 16-bit floating point mode (§3.7):
// float32 all-reduce sends two IEEE-754 halves per wire element —
// halving the bytes on the wire — while the switch converts halves to
// 32-bit fixed point (scaled by f) at ingress and back at egress, as
// the Tofino lookup tables do. Mutually exclusive with WithScale.
func WithFloat16(f float64) Option {
	return func(o *clusterOptions) error {
		if _, err := quant.NewFixedPoint(f); err != nil {
			return err
		}
		o.f16scale = f
		return nil
	}
}

// WithJobID tags the cluster's packets for multi-tenant deployments.
func WithJobID(id uint16) Option {
	return func(o *clusterOptions) error {
		o.jobID = id
		return nil
	}
}

// MaxSafeScale returns the largest scaling factor that cannot
// overflow 32-bit aggregation for n workers whose gradient entries
// are bounded by maxAbs (Theorem 2 of the paper's Appendix C).
func MaxSafeScale(workers int, maxAbs float64) (float64, error) {
	return quant.MaxSafeFactor(workers, maxAbs)
}

// Cluster is an in-process SwitchML deployment: n workers connected
// to a software switch over channels. Every worker must participate
// in every all-reduce (the collective is a barrier), each from its
// own goroutine.
type Cluster struct {
	opts    clusterOptions
	n       int
	swIn    chan *packet.Packet
	workers []*Worker
	quant   *quant.FixedPoint

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// NewCluster builds a cluster of n workers and starts its switch
// goroutine.
func NewCluster(n int, opts ...Option) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("switchml: worker count must be positive, got %d", n)
	}
	o := clusterOptions{poolSize: 64, slotElems: packet.DefaultElems}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if o.scale > 0 && o.f16scale > 0 {
		return nil, fmt.Errorf("switchml: WithScale and WithFloat16 are mutually exclusive")
	}
	var codec core.Codec
	if o.f16scale > 0 {
		c, err := core.NewPackedHalfCodec(o.f16scale)
		if err != nil {
			return nil, err
		}
		codec = c
	}
	sw, err := core.NewSwitch(core.SwitchConfig{
		Workers:      n,
		PoolSize:     o.poolSize,
		SlotElems:    o.slotElems,
		LossRecovery: true,
		JobID:        o.jobID,
		Codec:        codec,
	})
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		opts: o,
		n:    n,
		// Channels are sized so the self-clocked window never blocks:
		// at most s in-flight chunks per worker in each direction.
		swIn: make(chan *packet.Packet, n*(o.poolSize+1)),
		done: make(chan struct{}),
	}
	if o.scale > 0 {
		c.quant, _ = quant.NewFixedPoint(o.scale)
	}
	for i := 0; i < n; i++ {
		w, err := core.NewWorker(core.WorkerConfig{
			ID:           uint16(i),
			Workers:      n,
			PoolSize:     o.poolSize,
			SlotElems:    o.slotElems,
			LossRecovery: true,
			JobID:        o.jobID,
		})
		if err != nil {
			return nil, err
		}
		c.workers = append(c.workers, &Worker{
			cluster: c,
			sm:      w,
			in:      make(chan *packet.Packet, 2*(o.poolSize+1)),
		})
	}
	c.wg.Add(1)
	go c.switchLoop(sw)
	return c, nil
}

// Workers returns n.
func (c *Cluster) Workers() int { return c.n }

// Worker returns the endpoint for worker i. Each endpoint must be
// driven from a single goroutine.
func (c *Cluster) Worker(i int) *Worker { return c.workers[i] }

// Close shuts down the switch goroutine. In-flight all-reduce calls
// fail.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() { close(c.done) })
	c.wg.Wait()
}

// switchLoop is the software dataplane: one packet in, zero or more
// out.
func (c *Cluster) switchLoop(sw *core.Switch) {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case p := <-c.swIn:
			resp := sw.Handle(p)
			if resp.Pkt == nil {
				continue
			}
			if resp.Multicast {
				for _, w := range c.workers {
					select {
					case w.in <- resp.Pkt.Clone():
					case <-c.done:
						return
					}
				}
				continue
			}
			select {
			case c.workers[resp.Pkt.WorkerID].in <- resp.Pkt:
			case <-c.done:
				return
			}
		}
	}
}

// Worker is one participant's endpoint in an in-process Cluster.
type Worker struct {
	cluster *Cluster
	sm      *core.Worker
	in      chan *packet.Packet
}

// ID returns the worker's rank.
func (w *Worker) ID() int { return int(w.sm.Config().ID) }

// AllReduceInt32 sums u elementwise across all workers and returns
// the result. It blocks until every worker has contributed; all
// workers must call it collectively, with tensors of equal length.
func (w *Worker) AllReduceInt32(u []int32) ([]int32, error) {
	if len(u) == 0 {
		return nil, nil
	}
	for _, p := range w.sm.Start(u) {
		if err := w.send(p); err != nil {
			return nil, err
		}
	}
	for {
		select {
		case <-w.cluster.done:
			return nil, fmt.Errorf("switchml: cluster closed during all-reduce")
		case p := <-w.in:
			next, done := w.sm.HandleResult(p)
			if next != nil {
				if err := w.send(next); err != nil {
					return nil, err
				}
			}
			if done {
				out := make([]int32, len(u))
				copy(out, w.sm.Aggregate())
				return out, nil
			}
		}
	}
}

func (w *Worker) send(p *packet.Packet) error {
	select {
	case w.cluster.swIn <- p:
		return nil
	case <-w.cluster.done:
		return fmt.Errorf("switchml: cluster closed during all-reduce")
	}
}

// AllReduceFloat32 sums u elementwise across all workers. With
// WithScale it uses 32-bit fixed point on the wire; the result
// differs from exact float aggregation by at most n/f per element
// (Theorem 1 of Appendix C). With WithFloat16 it sends two halves per
// wire element, halving the bytes on the wire at half-precision
// accuracy (§3.7).
func (w *Worker) AllReduceFloat32(u []float32) ([]float32, error) {
	if w.cluster.opts.f16scale > 0 {
		return w.allReduceHalf(u)
	}
	if w.cluster.quant == nil {
		return nil, fmt.Errorf("switchml: float32 all-reduce needs WithScale or WithFloat16")
	}
	if len(u) == 0 {
		return nil, nil
	}
	q := make([]int32, len(u))
	if sat := w.cluster.quant.Quantize(q, u); sat > 0 {
		return nil, errQuantize(sat)
	}
	sum, err := w.AllReduceInt32(q)
	if err != nil {
		return nil, err
	}
	out := make([]float32, len(u))
	w.cluster.quant.Dequantize(out, sum)
	return out, nil
}

// allReduceHalf runs the float16 packed pipeline: pack pairs of
// halves into wire elements, aggregate through the codec-equipped
// switch, unpack. A tensor holding a NaN is refused before anything is
// sent, as the fixed-point path refuses it.
func (w *Worker) allReduceHalf(u []float32) ([]float32, error) {
	if len(u) == 0 {
		return nil, nil
	}
	wire := make([]int32, (len(u)+1)/2)
	nan := 0
	for i := range wire {
		lo := quant.Float16FromFloat32(u[2*i])
		hi := quant.Float16(0)
		if 2*i+1 < len(u) {
			hi = quant.Float16FromFloat32(u[2*i+1])
		}
		if lo.IsNaN() {
			nan++
		}
		if hi.IsNaN() {
			nan++
		}
		wire[i] = core.PackHalves(lo, hi)
	}
	if nan > 0 { // the switch would add a NaN half as 0
		return nil, errQuantize(nan)
	}
	sum, err := w.AllReduceInt32(wire)
	if err != nil {
		return nil, err
	}
	out := make([]float32, len(u))
	for i, v := range sum {
		lo, hi := core.UnpackHalves(v)
		out[2*i] = lo.Float32()
		if 2*i+1 < len(out) {
			out[2*i+1] = hi.Float32()
		}
	}
	return out, nil
}

// AllReduceMeanFloat32 averages u elementwise across all workers: the
// switch sums, the hosts divide by n (§3.3).
func (w *Worker) AllReduceMeanFloat32(u []float32) ([]float32, error) {
	out, err := w.AllReduceFloat32(u)
	if err != nil {
		return nil, err
	}
	inv := 1 / float32(w.cluster.n)
	for i := range out {
		out[i] *= inv
	}
	return out, nil
}
