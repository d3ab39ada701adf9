package packet

import "encoding/binary"

// The payload's byte order is little-endian (see Marshal). On a
// little-endian host that is the elements' in-memory order, and the
// codec moves them with a copy (elems_native.go); elsewhere it swaps
// each element in one pass (elems_swap.go). Both build on the pair
// below, which is compiled, and tested, on every host.

// putElemsPortable writes vec little-endian into dst, which holds
// exactly ElemBytes·len(vec) bytes. Elements move eight to a pass
// through fixed-size array views, so the pass itself carries no bounds
// check: slicing and checking per element costs more than the swap it
// guards.
func putElemsPortable(dst []byte, vec []int32) {
	dst = dst[:ElemBytes*len(vec)]
	for len(vec) >= 8 && len(dst) >= 8*ElemBytes {
		s, d := (*[8]int32)(vec), (*[8 * ElemBytes]byte)(dst)
		binary.LittleEndian.PutUint32(d[0:4], uint32(s[0]))
		binary.LittleEndian.PutUint32(d[4:8], uint32(s[1]))
		binary.LittleEndian.PutUint32(d[8:12], uint32(s[2]))
		binary.LittleEndian.PutUint32(d[12:16], uint32(s[3]))
		binary.LittleEndian.PutUint32(d[16:20], uint32(s[4]))
		binary.LittleEndian.PutUint32(d[20:24], uint32(s[5]))
		binary.LittleEndian.PutUint32(d[24:28], uint32(s[6]))
		binary.LittleEndian.PutUint32(d[28:32], uint32(s[7]))
		vec, dst = vec[8:], dst[8*ElemBytes:]
	}
	for i, v := range vec {
		binary.LittleEndian.PutUint32(dst[ElemBytes*i:], uint32(v))
	}
}

// decodeElemsPortable is putElemsPortable's inverse: it fills vec from
// the first ElemBytes·len(vec) little-endian bytes of src.
func decodeElemsPortable(vec []int32, src []byte) {
	src = src[:ElemBytes*len(vec)]
	for len(vec) >= 8 && len(src) >= 8*ElemBytes {
		d, s := (*[8]int32)(vec), (*[8 * ElemBytes]byte)(src)
		d[0] = int32(binary.LittleEndian.Uint32(s[0:4]))
		d[1] = int32(binary.LittleEndian.Uint32(s[4:8]))
		d[2] = int32(binary.LittleEndian.Uint32(s[8:12]))
		d[3] = int32(binary.LittleEndian.Uint32(s[12:16]))
		d[4] = int32(binary.LittleEndian.Uint32(s[16:20]))
		d[5] = int32(binary.LittleEndian.Uint32(s[20:24]))
		d[6] = int32(binary.LittleEndian.Uint32(s[24:28]))
		d[7] = int32(binary.LittleEndian.Uint32(s[28:32]))
		vec, src = vec[8:], src[8*ElemBytes:]
	}
	for i := range vec {
		vec[i] = int32(binary.LittleEndian.Uint32(src[ElemBytes*i:]))
	}
}

// AddElems adds a payload's elements into dst where they lie:
// dst[i] += element i of src, for the len(src)/ElemBytes elements src
// holds (dst holds at least that many). It is the software switch's
// ingress add, one pass from the receive buffer into the slot, eight
// elements to a pass like the codec's; on a little-endian host each
// element is one load.
func AddElems(dst []int32, src []byte) {
	n := len(src) / ElemBytes
	dst, src = dst[:n], src[:ElemBytes*n]
	for len(dst) >= 8 && len(src) >= 8*ElemBytes {
		d, s := (*[8]int32)(dst), (*[8 * ElemBytes]byte)(src)
		d[0] += int32(binary.LittleEndian.Uint32(s[0:4]))
		d[1] += int32(binary.LittleEndian.Uint32(s[4:8]))
		d[2] += int32(binary.LittleEndian.Uint32(s[8:12]))
		d[3] += int32(binary.LittleEndian.Uint32(s[12:16]))
		d[4] += int32(binary.LittleEndian.Uint32(s[16:20]))
		d[5] += int32(binary.LittleEndian.Uint32(s[20:24]))
		d[6] += int32(binary.LittleEndian.Uint32(s[24:28]))
		d[7] += int32(binary.LittleEndian.Uint32(s[28:32]))
		dst, src = dst[8:], src[8*ElemBytes:]
	}
	for i := range dst {
		dst[i] += int32(binary.LittleEndian.Uint32(src[ElemBytes*i:]))
	}
}
