package quant

import "math"

// Float16 is an IEEE 754 binary16 value stored in its raw bit pattern.
// The switch-side float16 pipeline (paper §3.7, Appendix C: "it turns
// out to be possible to implement 16-bit floating point conversion on
// a Barefoot Network's Tofino chip using lookup tables") is emulated
// by core.PackedHalfCodec, which converts halves to 32-bit fixed point
// at the switch ingress and back at egress.
type Float16 uint16

const (
	f16SignMask = 0x8000
	f16ExpMask  = 0x7C00
	f16FracMask = 0x03FF
	f16ExpBias  = 15
	f32ExpBias  = 127
)

// Float16FromFloat32 converts a float32 to the nearest half-precision
// value using round-to-nearest-even, with overflow to infinity and
// gradual underflow to subnormals, matching IEEE 754 semantics.
func Float16FromFloat32(f float32) Float16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & f16SignMask
	exp := int32(bits>>23) & 0xFF
	frac := bits & 0x7FFFFF

	switch {
	case exp == 0xFF: // Inf or NaN.
		if frac != 0 {
			// NaN: preserve a quiet NaN payload bit.
			return Float16(sign | f16ExpMask | 0x0200)
		}
		return Float16(sign | f16ExpMask)
	case exp == 0 && frac == 0: // Signed zero.
		return Float16(sign)
	}

	// Unbiased exponent of the float32 value.
	e := exp - f32ExpBias
	switch {
	case e > 15: // Overflow: round to infinity.
		return Float16(sign | f16ExpMask)
	case e >= -14: // Normal half range.
		// 23-bit fraction to 10-bit fraction with RNE.
		halfExp := uint16(e+f16ExpBias) << 10
		return Float16(sign | roundFrac(uint32(halfExp)|frac>>13, frac&0x1FFF, 0x1000))
	case e >= -25: // Subnormal half range (incl. rounding into it).
		// A subnormal half encodes round(v * 2^24). The float32
		// significand m = 1.frac scaled to 24 bits represents
		// v * 2^(23-e), so the target is m >> (-e-1) with RNE.
		m := frac | 0x800000 // 24-bit significand.
		shift := uint32(-e - 1)
		kept := m >> shift
		rem := m & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		return Float16(sign | roundFrac(kept, rem, half))
	default: // Underflow to zero.
		return Float16(sign)
	}
}

// roundFrac applies round-to-nearest-even: value is the truncated
// result, rem the discarded bits, half the value of the highest
// discarded bit position.
func roundFrac(value, rem, half uint32) uint16 {
	if rem > half || (rem == half && value&1 == 1) {
		value++
	}
	return uint16(value)
}

// Float32 converts the half-precision value back to float32 exactly
// (every binary16 value is representable in binary32).
func (h Float16) Float32() float32 {
	sign := uint32(h&f16SignMask) << 16
	exp := uint32(h&f16ExpMask) >> 10
	frac := uint32(h & f16FracMask)

	switch {
	case exp == 0x1F: // Inf or NaN.
		return math.Float32frombits(sign | 0x7F800000 | frac<<13)
	case exp == 0:
		if frac == 0 { // Signed zero.
			return math.Float32frombits(sign)
		}
		// Subnormal half: normalize.
		e := int32(-14)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		frac &= f16FracMask
		return math.Float32frombits(sign | uint32(e+f32ExpBias)<<23 | frac<<13)
	default: // Normal.
		return math.Float32frombits(sign | (exp-f16ExpBias+f32ExpBias)<<23 | frac<<13)
	}
}

// IsNaN reports whether the half-precision value is a NaN.
func (h Float16) IsNaN() bool {
	return h&f16ExpMask == f16ExpMask && h&f16FracMask != 0
}

// IsInf reports whether the half-precision value is an infinity.
func (h Float16) IsInf() bool {
	return h&f16ExpMask == f16ExpMask && h&f16FracMask == 0
}
