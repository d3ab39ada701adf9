package core

import "switchml/internal/quant"

// Codec converts between the wire representation of a packet's vector
// and the switch's internal integer accumulator representation. The
// default (nil) codec is the identity: the wire carries 32-bit
// fixed-point values and the switch adds them directly.
//
// The float16 deployment of §3.7 uses PackedHalfCodec: each 32-bit
// wire element carries two IEEE-754 half-precision values, the switch
// converts them to 32-bit fixed point at ingress (the Tofino
// lookup-table conversion), aggregates, and converts back at egress.
// This halves the bytes on the wire per gradient element.
type Codec interface {
	// Ratio is the number of accumulator values per wire element
	// (1 for identity, 2 for packed halves).
	Ratio() int
	// Ingress expands wire elements into accumulator values;
	// len(dst) = Ratio() * len(wire).
	Ingress(dst []int32, wire []int32)
	// Egress compresses accumulator values back into wire elements;
	// len(dst) = len(acc) / Ratio().
	Egress(dst []int32, acc []int32)
}

// PackedHalfCodec implements the paper's 16-bit floating point mode:
// two halves per 32-bit wire element, fixed-point aggregation inside
// the switch with the given scaling factor.
type PackedHalfCodec struct {
	factor float64
}

// NewPackedHalfCodec returns a codec whose internal fixed-point
// representation uses scaling factor f.
func NewPackedHalfCodec(f float64) (*PackedHalfCodec, error) {
	if _, err := quant.NewFixedPoint(f); err != nil {
		return nil, err
	}
	return &PackedHalfCodec{factor: f}, nil
}

// Factor returns the in-switch scaling factor.
func (c *PackedHalfCodec) Factor() float64 { return c.factor }

// Ratio implements Codec.
func (c *PackedHalfCodec) Ratio() int { return 2 }

// PackHalves packs two float16 bit patterns into one int32 wire
// element (low half first).
func PackHalves(lo, hi quant.Float16) int32 {
	return int32(uint32(lo) | uint32(hi)<<16)
}

// UnpackHalves splits a wire element into its two halves.
func UnpackHalves(w int32) (lo, hi quant.Float16) {
	return quant.Float16(uint32(w) & 0xFFFF), quant.Float16(uint32(w) >> 16)
}

// Ingress implements Codec: halves become fixed-point values by
// quant.ToFixed, saturating at the int32 bounds; a NaN half becomes 0.
func (c *PackedHalfCodec) Ingress(dst []int32, wire []int32) {
	if len(dst) != 2*len(wire) {
		panic("core: PackedHalfCodec.Ingress length mismatch")
	}
	for i, w := range wire {
		lo, hi := UnpackHalves(w)
		dst[2*i], _ = quant.ToFixed(lo.Float32(), c.factor)
		dst[2*i+1], _ = quant.ToFixed(hi.Float32(), c.factor)
	}
}

// Egress implements Codec.
func (c *PackedHalfCodec) Egress(dst []int32, acc []int32) {
	if 2*len(dst) != len(acc) {
		panic("core: PackedHalfCodec.Egress length mismatch")
	}
	inv := 1 / c.factor
	for i := range dst {
		lo := quant.Float16FromFloat32(float32(float64(acc[2*i]) * inv))
		hi := quant.Float16FromFloat32(float32(float64(acc[2*i+1]) * inv))
		dst[i] = PackHalves(lo, hi)
	}
}
