// Package quant implements the numerical representations SwitchML
// uses to aggregate floating-point gradients on an integer-only
// switch dataplane (paper §3.7 and Appendix C).
//
// Two representations are provided:
//
//   - 32-bit fixed point: workers multiply each gradient by a scaling
//     factor f, round to int32, aggregate integers in the switch, and
//     divide the aggregate by f on receipt. For a suitable f this is
//     essentially lossless (Appendix C, Theorems 1 and 2).
//   - 16-bit floating point: workers convert float32 gradients to
//     IEEE 754 half precision; the switch converts halves to 32-bit
//     fixed point internally (emulating the Tofino lookup-table
//     implementation, core.PackedHalfCodec), aggregates, and converts
//     back. This halves the bytes on the wire at the cost of precision.
//
// The package also provides the scaling-factor profiling procedure
// from Appendix C: observe the maximum gradient magnitude over the
// first iterations and choose f so the largest aggregate remains
// representable.
package quant

import (
	"errors"
	"fmt"
	"math"
)

// MaxInt31 is the largest magnitude the paper allows a scaled value or
// aggregate to take (Appendix C uses the bound 2^31).
const MaxInt31 = float64(1 << 31)

// ErrOverflow reports that a scaled gradient (Assumption 1) or an
// aggregate (Assumption 2) would exceed the representable range.
var ErrOverflow = errors.New("quant: scaled value overflows int32 range")

// FixedPoint converts between float32 vectors and scaled int32
// vectors. It is safe for concurrent use; all state is immutable.
type FixedPoint struct {
	f float64
}

// NewFixedPoint returns a converter with scaling factor f. The factor
// must be positive and finite.
func NewFixedPoint(f float64) (*FixedPoint, error) {
	if !(f > 0) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("quant: scaling factor must be positive and finite, got %v", f)
	}
	return &FixedPoint{f: f}, nil
}

// Factor returns the scaling factor f.
func (q *FixedPoint) Factor() float64 { return q.f }

// Quantize writes round(f*src[i]) into dst and reports how many
// elements saturated. dst and src must have equal length. Each element
// follows ToFixed: values whose scaled magnitude exceeds the int32
// range are clamped, mirroring the saturating arithmetic of real
// dataplanes, and a NaN is stored as 0; both count as saturated. A
// non-zero count signals the caller chose f too large (Assumption 1
// violated) or handed over a NaN.
func (q *FixedPoint) Quantize(dst []int32, src []float32) (saturated int) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("quant: Quantize length mismatch %d != %d", len(dst), len(src)))
	}
	// Read once: the compiler must assume a store to dst may alias q.f
	// and would reload it for every element.
	f := q.f
	for len(src) >= 8 && len(dst) >= 8 {
		s, d := (*[8]float32)(src), (*[8]int32)(dst)
		b0, b1, b2, b3 := fixedBits(s[0], f), fixedBits(s[1], f), fixedBits(s[2], f), fixedBits(s[3], f)
		b4, b5, b6, b7 := fixedBits(s[4], f), fixedBits(s[5], f), fixedBits(s[6], f), fixedBits(s[7], f)
		d[0], d[1], d[2], d[3] = int32(uint32(b0)), int32(uint32(b1)), int32(uint32(b2)), int32(uint32(b3))
		d[4], d[5], d[6], d[7] = int32(uint32(b4)), int32(uint32(b5)), int32(uint32(b6)), int32(uint32(b7))
		// One test for the eight: each offset is below 2³² iff its
		// element is in range, so their OR is below 2³² iff all are.
		if (b0-fixedLo)|(b1-fixedLo)|(b2-fixedLo)|(b3-fixedLo)|(b4-fixedLo)|(b5-fixedLo)|(b6-fixedLo)|(b7-fixedLo) >= 1<<32 {
			saturated += quantizeEach(d[:], s[:], f)
		}
		src, dst = src[8:], dst[8:]
	}
	return saturated + quantizeEach(dst, src, f)
}

// quantizeEach is Quantize one element at a time: its tail, and any
// block of eight that holds an element off the fast path.
func quantizeEach(dst []int32, src []float32, f float64) (saturated int) {
	for i, v := range src {
		x, sat := ToFixed(v, f)
		dst[i] = x
		if sat {
			saturated++
		}
	}
	return saturated
}

// roundMagic is 1.5·2⁵². Adding it to a float64 r with |r| < 2⁵¹ lands
// the sum in [2⁵², 2⁵³), where the spacing of float64 values is 1, so
// the addition itself rounds r to an integer k, ties to even (the
// constant is even), and the sum's bit pattern is roundMagic's plus k.
// Its low 32 bits are therefore k in two's complement, because
// roundMagic's are zero.
const roundMagic = 0x1.8p52

// fixedLo is the bit pattern of roundMagic (0x4338000000000000) less
// 2³¹: a sum whose pattern lies in [fixedLo, fixedLo+2³²) holds a k in
// the int32 range. NaN, ±Inf and every r outside [−2³¹−0.5, 2³¹−0.5)
// fall outside it.
const fixedLo = 0x4338000000000000 - 1<<31

// fixedBits returns the bit pattern of f·v + roundMagic. The explicit
// conversion rounds the product before the add: without it Go may fuse
// the two into one FMA on arm64, ppc64le and s390x, which rounds once
// and changes results.
func fixedBits(v float32, f float64) uint64 {
	return math.Float64bits(float64(float64(v)*f) + roundMagic)
}

// ToFixed is the one rule by which a float32 becomes a fixed-point
// int32 at factor f: round(f·v) to nearest, ties to even, computed in
// float64. A result outside the int32 range saturates to its bound and
// a NaN becomes 0; either reports saturated. Quantize applies it to
// workers' gradients and core.PackedHalfCodec to halves at the switch
// ingress.
func ToFixed(v float32, f float64) (q int32, saturated bool) {
	if b := fixedBits(v, f); b-fixedLo < 1<<32 {
		return int32(uint32(b)), false
	}
	return toFixedSlow(float64(v) * f), true
}

// toFixedSlow handles what ToFixed's fast path excludes: saturation,
// ±Inf and NaN.
func toFixedSlow(r float64) int32 {
	s := math.RoundToEven(r)
	switch {
	case s > math.MaxInt32:
		return math.MaxInt32
	case s < math.MinInt32:
		return math.MinInt32
	default: // NaN: every comparison is false
		return 0
	}
}

// Dequantize writes src[i]/f into dst. dst and src must have equal
// length.
func (q *FixedPoint) Dequantize(dst []float32, src []int32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("quant: Dequantize length mismatch %d != %d", len(dst), len(src)))
	}
	inv := 1 / q.f
	for i, v := range src {
		dst[i] = float32(float64(v) * inv)
	}
}

// ErrorBound returns the worst-case difference between the exact
// float aggregation across n workers and the fixed-point aggregate,
// per Theorem 1 (Appendix C): n/f.
func (q *FixedPoint) ErrorBound(n int) float64 {
	return float64(n) / q.f
}

// MaxSafeFactor returns the largest scaling factor guaranteed not to
// overflow when n workers aggregate gradients bounded by |Δ| ≤ B, per
// Theorem 2 (Appendix C): f ≤ (2^31 − n) / (n·B).
func MaxSafeFactor(n int, bound float64) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("quant: worker count must be positive, got %d", n)
	}
	if !(bound > 0) {
		return 0, fmt.Errorf("quant: gradient bound must be positive, got %v", bound)
	}
	f := (MaxInt31 - float64(n)) / (float64(n) * bound)
	if !(f > 0) {
		return 0, ErrOverflow
	}
	return f, nil
}

// Profiler implements the scaling-factor selection procedure of
// Appendix C: it records the maximum absolute gradient value observed
// during the first iterations of training, from which a safe factor
// can be derived. The zero value is ready to use.
type Profiler struct {
	maxAbs float64
	seen   int
}

// Observe folds a gradient vector into the profile.
func (p *Profiler) Observe(grad []float32) {
	for _, v := range grad {
		a := math.Abs(float64(v))
		if a > p.maxAbs {
			p.maxAbs = a
		}
	}
	p.seen += len(grad)
}

// MaxAbs returns the largest gradient magnitude observed so far.
func (p *Profiler) MaxAbs() float64 { return p.maxAbs }

// Elements returns how many gradient elements have been observed.
func (p *Profiler) Elements() int { return p.seen }

// Factor derives the recommended scaling factor for n workers from
// the observed maximum, applying the given safety headroom (e.g. 2.0
// leaves a 2x margin for gradients larger than any yet observed). It
// returns an error if nothing has been observed or all observations
// were zero.
func (p *Profiler) Factor(n int, headroom float64) (float64, error) {
	if p.seen == 0 || p.maxAbs == 0 {
		return 0, errors.New("quant: profiler has no non-zero observations")
	}
	if headroom < 1 {
		return 0, fmt.Errorf("quant: headroom must be >= 1, got %v", headroom)
	}
	return MaxSafeFactor(n, p.maxAbs*headroom)
}
