package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFloat16KnownValues(t *testing.T) {
	cases := []struct {
		f    float32
		bits Float16
	}{
		{0, 0x0000},
		{float32(math.Copysign(0, -1)), 0x8000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7BFF},                 // Largest finite half.
		{5.9604644775390625e-8, 1},      // Smallest positive subnormal.
		{6.097555160522461e-05, 0x03FF}, // Largest subnormal.
		{float32(math.Inf(1)), 0x7C00},
		{float32(math.Inf(-1)), 0xFC00},
	}
	for _, c := range cases {
		if got := Float16FromFloat32(c.f); got != c.bits {
			t.Errorf("Float16FromFloat32(%v) = %#06x, want %#06x", c.f, got, c.bits)
		}
		if got := c.bits.Float32(); got != c.f {
			t.Errorf("Float16(%#06x).Float32() = %v, want %v", c.bits, got, c.f)
		}
	}
}

func TestFloat16Overflow(t *testing.T) {
	if got := Float16FromFloat32(1e6); !got.IsInf() || got&f16SignMask != 0 {
		t.Errorf("1e6 -> %#06x, want +Inf", got)
	}
	if got := Float16FromFloat32(-1e6); !got.IsInf() || got&f16SignMask == 0 {
		t.Errorf("-1e6 -> %#06x, want -Inf", got)
	}
}

func TestFloat16Underflow(t *testing.T) {
	if got := Float16FromFloat32(1e-10); got != 0 {
		t.Errorf("1e-10 -> %#06x, want +0", got)
	}
	if got := Float16FromFloat32(-1e-10); got != 0x8000 {
		t.Errorf("-1e-10 -> %#06x, want -0", got)
	}
}

func TestFloat16NaN(t *testing.T) {
	h := Float16FromFloat32(float32(math.NaN()))
	if !h.IsNaN() {
		t.Errorf("NaN -> %#06x, not a half NaN", h)
	}
	if f := h.Float32(); !math.IsNaN(float64(f)) {
		t.Errorf("half NaN -> %v, want NaN", f)
	}
}

func TestFloat16RoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1 and the next half
	// (1 + 2^-10); RNE rounds to the even significand, i.e. 1.
	halfway := float32(1) + float32(1)/2048
	if got := Float16FromFloat32(halfway); got != 0x3C00 {
		t.Errorf("halfway rounds to %#06x, want 0x3C00 (even)", got)
	}
	// 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; RNE rounds up
	// to the even significand 1+2^-9.
	halfway2 := float32(1) + 3*float32(1)/2048
	if got := Float16FromFloat32(halfway2); got != 0x3C02 {
		t.Errorf("halfway2 rounds to %#06x, want 0x3C02", got)
	}
}

func TestFloat16ExhaustiveRoundTrip(t *testing.T) {
	// Every half value (including subnormals) must survive the trip
	// through float32 and back bit-exactly. NaNs compare by class.
	for bits := 0; bits < 1<<16; bits++ {
		h := Float16(bits)
		f := h.Float32()
		back := Float16FromFloat32(f)
		if h.IsNaN() {
			if !back.IsNaN() {
				t.Fatalf("NaN %#06x round-tripped to %#06x", bits, back)
			}
			continue
		}
		if back != h {
			t.Fatalf("half %#06x -> %v -> %#06x", bits, f, back)
		}
	}
}

func TestFloat16MonotonicQuick(t *testing.T) {
	// Conversion must be monotone: a <= b implies half(a) <= half(b)
	// as real numbers (for finite, non-NaN inputs within range).
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		ha, hb := Float16FromFloat32(a).Float32(), Float16FromFloat32(b).Float32()
		return ha <= hb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFloat16RelativeError(t *testing.T) {
	// For values in the normal half range, relative rounding error is
	// at most 2^-11.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		v := float32(math.Pow(2, -14+rng.Float64()*29)) // [2^-14, 2^15)
		if rng.Intn(2) == 0 {
			v = -v
		}
		got := Float16FromFloat32(v).Float32()
		rel := math.Abs(float64(got-v)) / math.Abs(float64(v))
		if rel > 1.0/2048 {
			t.Fatalf("relative error for %v is %v", v, rel)
		}
	}
}

func TestHalf16Pipeline(t *testing.T) {
	// End-to-end float16 aggregation from this package's pieces, the
	// path core.PackedHalfCodec ships: workers send halves, the switch
	// turns each into fixed point by ToFixed and sums, then sends the
	// dequantized sum back as a half. With two workers contributing 1.5
	// and 2.5, the aggregate must be 4 (exactly representable).
	q, err := NewFixedPoint(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	wire := []Float16{Float16FromFloat32(1.5), Float16FromFloat32(2.5)}
	var agg int32
	for _, h := range wire {
		fx, saturated := ToFixed(h.Float32(), q.Factor())
		if saturated {
			t.Fatalf("ToFixed(%v) saturated", h.Float32())
		}
		agg += fx
	}
	sum := make([]float32, 1)
	q.Dequantize(sum, []int32{agg})
	if res := Float16FromFloat32(sum[0]).Float32(); res != 4 {
		t.Errorf("aggregate = %v, want 4", res)
	}
}
