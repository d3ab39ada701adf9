//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package packet

import "unsafe"

// nativeOrder reports that this build moves payload elements with a
// copy: the host stores an int32 in the payload's byte order.
const nativeOrder = true

// putElems writes vec into dst, which holds exactly ElemBytes·len(vec)
// bytes: on this host the payload's byte order is memory order, so
// encoding is a copy.
func putElems(dst []byte, vec []int32) {
	copy(dst[:ElemBytes*len(vec)], elemBytes(vec))
}

// DecodeElems is putElems' inverse: it fills vec from the first
// ElemBytes·len(vec) bytes of src, which must hold that many — a
// payload ParseHeader returned holds exactly its packet's elements.
func DecodeElems(vec []int32, src []byte) {
	copy(elemBytes(vec), src[:ElemBytes*len(vec)])
}

// elemBytes is vec's storage seen as bytes: the package's one use of
// unsafe. It is sound because the view is exactly vec's length in
// bytes, a byte has no alignment to satisfy, and every int32 bit
// pattern is a valid run of four bytes and back; the view is only
// copied to or from, within the call that made it.
func elemBytes(vec []int32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vec))), ElemBytes*len(vec))
}
