package quant

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// quantizeRef is the conversion loop Quantize ran before ToFixed: one
// math.RoundToEven and two clamps per element. It is kept as the oracle
// the kernel must match bit for bit. It predates the NaN rule: it
// stores int32(NaN), whatever the platform makes of that, and does not
// count it, so checkQuantize applies the rule on top.
func quantizeRef(dst []int32, src []float32, f float64) (saturated int) {
	for i, v := range src {
		s := math.RoundToEven(float64(v) * f)
		switch {
		case s > math.MaxInt32:
			dst[i] = math.MaxInt32
			saturated++
		case s < math.MinInt32:
			dst[i] = math.MinInt32
			saturated++
		default:
			dst[i] = int32(s)
		}
	}
	return saturated
}

// checkQuantize runs Quantize and the reference on src at factor f and
// fails on any difference in values or in the saturation count. A NaN
// must come out as 0 and count as saturated. One guard element past
// dst's end must be left alone.
func checkQuantize(t *testing.T, f float64, src []float32) {
	t.Helper()
	q, err := NewFixedPoint(f)
	if err != nil {
		t.Fatal(err)
	}
	const guard = 0x5a5a5a5a
	got := make([]int32, len(src)+1)
	got[len(src)] = guard
	sat := q.Quantize(got[:len(src)], src)
	want := make([]int32, len(src))
	wantSat := quantizeRef(want, src, f)
	for i, v := range src {
		if v != v {
			want[i] = 0
			wantSat++
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("f=%v len=%d: element %d (%v, bits %#08x) = %d, want %d",
				f, len(src), i, src[i], math.Float32bits(src[i]), got[i], want[i])
		}
	}
	if sat != wantSat {
		t.Fatalf("f=%v len=%d: saturated = %d, want %d", f, len(src), sat, wantSat)
	}
	if got[len(src)] != guard {
		t.Fatalf("f=%v len=%d: Quantize wrote past dst", f, len(src))
	}
}

// testScales are the factors the differential tests run at: the
// identity, the benchmark's 2¹⁶, a large power of two, a decimal, a
// factor that makes few products exact, a shrinking one, and the
// largest factor Theorem 2 allows two workers bounded by 1.
func testScales(t *testing.T) []float64 {
	safe, err := MaxSafeFactor(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []float64{1, 1 << 16, 1 << 20, 1e6, 3.7, 1e-3, safe}
}

// specialBits are float32 patterns random draws rarely hit: signed
// zeros, the smallest and largest subnormals, the normal boundary,
// infinities and NaNs (quiet, signalling, negative).
var specialBits = []uint32{
	0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007fffff, 0x807fffff,
	0x00800000, 0x80800000, 0x7f7fffff, 0xff7fffff, 0x7f800000, 0xff800000,
	0x7fc00000, 0x7f800001, 0xffc00000, 0x7fffffff,
}

func TestQuantizeMatchesReferenceRandomBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := make([]float32, 1<<20)
	for i := range src {
		src[i] = math.Float32frombits(rng.Uint32())
	}
	for i, b := range specialBits {
		src[i*61] = math.Float32frombits(b)
	}
	for _, f := range testScales(t) {
		checkQuantize(t, f, src)
	}
}

func TestQuantizeMatchesReferenceInRange(t *testing.T) {
	// Random bit patterns saturate at most factors; these stay on the
	// fast path: |v·f| within 2³⁰ at every scale.
	rng := rand.New(rand.NewSource(12))
	for _, f := range testScales(t) {
		lim := math.Min(1<<30/f, math.MaxFloat32)
		src := make([]float32, 1<<16)
		for i := range src {
			src[i] = float32((2*rng.Float64() - 1) * lim)
		}
		checkQuantize(t, f, src)
	}
}

func TestQuantizeTiesAndBoundaries(t *testing.T) {
	rows := []struct {
		name string
		v    float32
		f    float64
		want int32
		sat  bool
	}{
		{"+0.5 ties to 0", 0.5, 1, 0, false},
		{"-0.5 ties to 0", -0.5, 1, 0, false},
		{"+1.5 ties to 2", 1.5, 1, 2, false},
		{"-1.5 ties to -2", -1.5, 1, -2, false},
		{"+2.5 ties to 2", 2.5, 1, 2, false},
		{"-2.5 ties to -2", -2.5, 1, -2, false},
		{"0.5 scaled ties", 1, 2.5, 2, false},
		{"-0", float32(math.Copysign(0, -1)), 1, 0, false},
		{"subnormal", math.Float32frombits(1), 1 << 20, 0, false},
		{"2^31-1.5 ties down", 1, 1<<31 - 1.5, math.MaxInt32 - 1, false},
		{"2^31-1", 1, 1<<31 - 1, math.MaxInt32, false},
		{"2^31-0.5 ties up and saturates", 1, 1<<31 - 0.5, math.MaxInt32, true},
		{"2^31+0.5", 1, 1<<31 + 0.5, math.MaxInt32, true},
		{"-2^31", -1, 1 << 31, math.MinInt32, false},
		{"-2^31-0.5 ties to -2^31", -1, 1<<31 + 0.5, math.MinInt32, false},
		{"-2^31-1", -1, 1<<31 + 1, math.MinInt32, true},
		{"-2^31-1.5 ties down and saturates", -1, 1<<31 + 1.5, math.MinInt32, true},
		{"2^51", 1, 1 << 51, math.MaxInt32, true},
		{"2^51+0.5", 1, 1<<51 + 0.5, math.MaxInt32, true},
		{"-2^51", -1, 1 << 51, math.MinInt32, true},
		{"2^52", 1, 1 << 52, math.MaxInt32, true},
		{"-2^52", -1, 1 << 52, math.MinInt32, true},
		{"1.5·2^52", 1, 0x1.8p52, math.MaxInt32, true},
		{"-1.5·2^52", -1, 0x1.8p52, math.MinInt32, true},
		{"2^53", 1, 1 << 53, math.MaxInt32, true},
		{"-2^53", -1, 1 << 53, math.MinInt32, true},
		{"+Inf", float32(math.Inf(1)), 1, math.MaxInt32, true},
		{"-Inf", float32(math.Inf(-1)), 1, math.MinInt32, true},
		{"product overflows to +Inf", math.MaxFloat32, math.MaxFloat64, math.MaxInt32, true},
		{"NaN stores 0", float32(math.NaN()), 1 << 16, 0, true},
		{"negative NaN stores 0", math.Float32frombits(0xffc00000), 1, 0, true},
	}
	for _, r := range rows {
		got, sat := ToFixed(r.v, r.f)
		if got != r.want || sat != r.sat {
			t.Errorf("%s: ToFixed(%v, %v) = %d, %v; want %d, %v", r.name, r.v, r.f, got, sat, r.want, r.sat)
		}
		// The same element at every position of an 8-wide block and
		// of the tail, among in-range neighbours.
		for _, n := range []int{1, 8, 17} {
			for pos := 0; pos < n; pos++ {
				src := make([]float32, n)
				for i := range src {
					src[i] = float32(i) / 4
				}
				src[pos] = r.v
				checkQuantize(t, r.f, src)
			}
		}
	}
}

func TestQuantizeNaNSaturates(t *testing.T) {
	// [NaN, 1, +Inf]: the NaN used to be stored as int32(NaN), −2³¹ on
	// amd64, and not counted, so a NaN gradient joined the sum.
	q, _ := NewFixedPoint(1 << 16)
	dst := make([]int32, 3)
	sat := q.Quantize(dst, []float32{float32(math.NaN()), 1, float32(math.Inf(1))})
	if sat != 2 || dst[0] != 0 || dst[1] != 1<<16 || dst[2] != math.MaxInt32 {
		t.Errorf("Quantize([NaN 1 +Inf]) = %v, saturated %d; want [0 65536 2147483647], 2", dst, sat)
	}
}

func TestQuantizeMatchesReferenceEveryLength(t *testing.T) {
	// Lengths 0–17 cover an empty call, the tail alone, one block, a
	// block and a tail; 312 is the tuned packet size. Each length runs
	// in range, with a saturating element, and with a NaN.
	rng := rand.New(rand.NewSource(13))
	lengths := []int{312}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, f := range testScales(t) {
		for _, n := range lengths {
			src := make([]float32, n)
			for i := range src {
				src[i] = float32((2*rng.Float64() - 1) * math.Min(1e4, 1<<30/f))
			}
			checkQuantize(t, f, src)
			if n == 0 {
				continue
			}
			src[rng.Intn(n)] = float32(math.Inf(1))
			checkQuantize(t, f, src)
			src[rng.Intn(n)] = float32(math.NaN())
			checkQuantize(t, f, src)
		}
	}
}

func TestRoundMagicBits(t *testing.T) {
	// fixedLo is written from roundMagic's bit pattern.
	if b := math.Float64bits(roundMagic); b != 0x4338000000000000 || b-fixedLo != 1<<31 {
		t.Errorf("roundMagic bits %#x, fixedLo %#x", b, uint64(fixedLo))
	}
}

func TestDequantizeLengthMismatchPanics(t *testing.T) {
	q, _ := NewFixedPoint(1)
	defer func() {
		if recover() == nil {
			t.Error("Dequantize length mismatch did not panic")
		}
	}()
	q.Dequantize(make([]float32, 1), make([]int32, 2))
}

// FuzzQuantize holds Quantize to the reference on fuzz-chosen factors
// and element bit patterns: up to 64 little-endian float32s, eight
// blocks and any tail, which is all the kernel's control flow; trailing
// bytes are ignored, so the fuzzer's minimizer cuts long inputs at
// once instead of spending its minute on every one. Factors
// NewFixedPoint refuses are skipped.
func FuzzQuantize(f *testing.F) {
	le := func(vs ...uint32) []byte {
		b := make([]byte, 0, 4*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	f.Add(float64(1<<16), le(0x3f000000, 0x3fc00000, 0x40200000, 0xbf000000))    // ±0.5, 1.5, 2.5
	f.Add(1.0, le(specialBits...))                                               // zeros, subnormals, Inf, NaN
	f.Add(float64(1<<31)-0.5, le(0x3f800000, 0xbf800000, 0x3f800000, 0x3f800000, // 8 wide, then a tail
		0x3f800000, 0x3f800000, 0x3f800000, 0x3f800000, 0x3f000000))
	f.Add(3.7, []byte{})
	f.Add(1e-3, []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, scale float64, data []byte) {
		if !(scale > 0) || math.IsInf(scale, 0) {
			return
		}
		src := make([]float32, min(len(data)/4, 64))
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		checkQuantize(t, scale, src)
	})
}
