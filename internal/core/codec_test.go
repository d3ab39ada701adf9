package core

import (
	"math"
	"math/rand"
	"testing"

	"switchml/internal/packet"
	"switchml/internal/quant"
)

func TestPackUnpackHalves(t *testing.T) {
	lo := quant.Float16FromFloat32(1.5)
	hi := quant.Float16FromFloat32(-3.25)
	w := PackHalves(lo, hi)
	gotLo, gotHi := UnpackHalves(w)
	if gotLo != lo || gotHi != hi {
		t.Errorf("round trip: got (%#x,%#x), want (%#x,%#x)", gotLo, gotHi, lo, hi)
	}
}

func TestPackedHalfCodecValidation(t *testing.T) {
	if _, err := NewPackedHalfCodec(0); err == nil {
		t.Error("zero factor accepted")
	}
	c, err := NewPackedHalfCodec(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ratio() != 2 || c.Factor() != 1<<16 {
		t.Errorf("Ratio=%d Factor=%v", c.Ratio(), c.Factor())
	}
}

func TestPackedHalfCodecIngressEgress(t *testing.T) {
	c, _ := NewPackedHalfCodec(1 << 16)
	wire := []int32{PackHalves(quant.Float16FromFloat32(1.5), quant.Float16FromFloat32(2.5))}
	acc := make([]int32, 2)
	c.Ingress(acc, wire)
	if acc[0] != 3<<15 || acc[1] != 5<<15 {
		t.Errorf("ingress = %v, want [%d %d]", acc, 3<<15, 5<<15)
	}
	out := make([]int32, 1)
	c.Egress(out, acc)
	lo, hi := UnpackHalves(out[0])
	if lo.Float32() != 1.5 || hi.Float32() != 2.5 {
		t.Errorf("egress = (%v,%v), want (1.5,2.5)", lo.Float32(), hi.Float32())
	}
}

func TestPackedHalfCodecSaturation(t *testing.T) {
	c, _ := NewPackedHalfCodec(1e9)
	wire := []int32{PackHalves(quant.Float16FromFloat32(100), quant.Float16FromFloat32(-100))}
	acc := make([]int32, 2)
	c.Ingress(acc, wire)
	if acc[0] != math.MaxInt32 || acc[1] != math.MinInt32 {
		t.Errorf("saturation = %v", acc)
	}
}

func TestPackedHalfCodecIngressMatchesReference(t *testing.T) {
	// Every half, at factors exact, inexact and saturating, against the
	// conversion Ingress ran before quant.ToFixed: RoundToEven and two
	// clamps. A NaN half, which that rule stored as int32(NaN), must
	// ingest as 0.
	for _, f := range []float64{1, 3.7, 1 << 16, 1 << 20, 1e9} {
		c, err := NewPackedHalfCodec(f)
		if err != nil {
			t.Fatal(err)
		}
		wire := make([]int32, 1<<15)
		for i := range wire {
			wire[i] = PackHalves(quant.Float16(2*i), quant.Float16(2*i+1))
		}
		acc := make([]int32, 1<<16)
		c.Ingress(acc, wire)
		for h := range acc {
			v := quant.Float16(h)
			var want int32
			switch s := math.RoundToEven(float64(v.Float32()) * f); {
			case v.IsNaN():
				want = 0
			case s > math.MaxInt32:
				want = math.MaxInt32
			case s < math.MinInt32:
				want = math.MinInt32
			default:
				want = int32(s)
			}
			if acc[h] != want {
				t.Fatalf("f=%v half %#04x (%v): ingress %d, want %d", f, h, v.Float32(), acc[h], want)
			}
		}
	}
}

func TestPackedHalfCodecErrorBound(t *testing.T) {
	// Random gradients through the switch's float16 conversions stay
	// within the combined envelope: the half-precision ulp of the
	// aggregate (egress re-rounds to half) plus Theorem 1's n/f.
	c, err := NewPackedHalfCodec(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const n, d = 4, 256
	exact := make([]float64, d)
	agg := make([]int32, d)
	for w := 0; w < n; w++ {
		wire := make([]int32, d/2)
		for i := range wire {
			lo := quant.Float16FromFloat32((rng.Float32() - 0.5) * 8)
			hi := quant.Float16FromFloat32((rng.Float32() - 0.5) * 8)
			// Half-precision loss happens before the network, so the
			// exact reference sums the rounded halves.
			exact[2*i] += float64(lo.Float32())
			exact[2*i+1] += float64(hi.Float32())
			wire[i] = PackHalves(lo, hi)
		}
		acc := make([]int32, d)
		c.Ingress(acc, wire)
		for i := range agg {
			agg[i] += acc[i]
		}
	}
	out := make([]int32, d/2)
	c.Egress(out, agg)
	for i, v := range out {
		lo, hi := UnpackHalves(v)
		for j, h := range []quant.Float16{lo, hi} {
			want := exact[2*i+j]
			tol := math.Abs(want)/1024 + float64(n)/(1<<16) + 1e-3
			if err := math.Abs(float64(h.Float32()) - want); err > tol {
				t.Fatalf("element %d: error %v exceeds tolerance %v", 2*i+j, err, tol)
			}
		}
	}
}

func TestSwitchWithPackedHalfCodec(t *testing.T) {
	// End-to-end aggregation through a float16 switch: two workers,
	// values aggregated as fixed point internally, results returned
	// as packed halves.
	codec, err := NewPackedHalfCodec(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSwitch(SwitchConfig{
		Workers: 2, PoolSize: 2, SlotElems: 4, LossRecovery: true, Codec: codec,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(wid uint16, vals ...float32) *packet.Packet {
		wire := make([]int32, len(vals)/2)
		for i := range wire {
			wire[i] = PackHalves(quant.Float16FromFloat32(vals[2*i]), quant.Float16FromFloat32(vals[2*i+1]))
		}
		return packet.NewUpdate(wid, 0, 0, 0, 0, wire)
	}
	sw.Handle(mk(0, 1.5, 2.5, -1, 0.125))
	r := sw.Handle(mk(1, 0.5, 0.5, 3, 0.375))
	if r.Pkt == nil || !r.Multicast {
		t.Fatal("no completion")
	}
	want := []float32{2, 3, 2, 0.5}
	for i, v := range r.Pkt.Vector {
		lo, hi := UnpackHalves(v)
		if lo.Float32() != want[2*i] || hi.Float32() != want[2*i+1] {
			t.Errorf("result[%d] = (%v,%v), want (%v,%v)", i, lo.Float32(), hi.Float32(), want[2*i], want[2*i+1])
		}
	}
	// The shadow copy must serve codec-encoded retransmissions too.
	rr := sw.Handle(mk(0, 1.5, 2.5, -1, 0.125))
	if rr.Pkt == nil || rr.Multicast {
		t.Fatal("no unicast reply")
	}
	lo, _ := UnpackHalves(rr.Pkt.Vector[0])
	if lo.Float32() != 2 {
		t.Errorf("retransmitted result = %v, want 2", lo.Float32())
	}
}

func TestCodecSwitchMemoryDoubles(t *testing.T) {
	codec, _ := NewPackedHalfCodec(1 << 16)
	plain, _ := NewSwitch(SwitchConfig{Workers: 2, PoolSize: 8, SlotElems: 32, LossRecovery: true})
	packed, _ := NewSwitch(SwitchConfig{Workers: 2, PoolSize: 8, SlotElems: 32, LossRecovery: true, Codec: codec})
	if packed.MemoryBytes() <= plain.MemoryBytes() {
		t.Errorf("packed-half switch memory %d should exceed plain %d (more accumulators per packet, §3.7)",
			packed.MemoryBytes(), plain.MemoryBytes())
	}
}

func TestE2EPackedHalfUnderLoss(t *testing.T) {
	// The full harness with the codec and random loss: workers pack
	// float values, the switch aggregates fixed-point internally, and
	// every worker converges to the same half-precision aggregate.
	codec, err := NewPackedHalfCodec(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	n, s, k, d := 3, 2, 4, 128
	sw, err := NewSwitch(SwitchConfig{Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true, Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{
		t: t, sw: sw, done: make([]bool, n),
		dropUp:   func(*packet.Packet) bool { return rng.Float64() < 0.1 },
		dropDown: func(int, *packet.Packet) bool { return rng.Float64() < 0.1 },
	}
	floats := make([][]float32, n)
	exact := make([]float64, d)
	us := make([][]int32, n)
	for i := range floats {
		floats[i] = make([]float32, d)
		us[i] = make([]int32, d/2)
		for j := range floats[i] {
			floats[i][j] = float32(rng.Intn(64)) * 0.25
			exact[j] += float64(floats[i][j])
		}
		for j := range us[i] {
			us[i][j] = PackHalves(
				quant.Float16FromFloat32(floats[i][2*j]),
				quant.Float16FromFloat32(floats[i][2*j+1]))
		}
		w, err := NewWorker(WorkerConfig{ID: uint16(i), Workers: n, PoolSize: s, SlotElems: k, LossRecovery: true})
		if err != nil {
			t.Fatal(err)
		}
		h.workers = append(h.workers, w)
	}
	got := h.aggregate(us)
	for j, v := range got {
		lo, hi := UnpackHalves(v)
		for half, f := range []float32{lo.Float32(), hi.Float32()} {
			idx := 2*j + half
			tol := math.Abs(exact[idx])/1024 + float64(n)/(1<<16) + 1e-3
			if err := math.Abs(float64(f) - exact[idx]); err > tol {
				t.Fatalf("element %d: got %v want %v (tol %v)", idx, f, exact[idx], tol)
			}
		}
	}
}

func TestCodecLengthPanics(t *testing.T) {
	c, _ := NewPackedHalfCodec(100)
	for name, fn := range map[string]func(){
		"ingress": func() { c.Ingress(make([]int32, 3), make([]int32, 2)) },
		"egress":  func() { c.Egress(make([]int32, 2), make([]int32, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s length mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}
