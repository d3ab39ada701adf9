//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package packet

// nativeOrder reports that this build swaps each payload element: the
// host does not store an int32 in the payload's byte order.
const nativeOrder = false

// putElems writes vec little-endian into dst, which holds exactly
// ElemBytes·len(vec) bytes, swapping each element into the payload's
// byte order.
func putElems(dst []byte, vec []int32) { putElemsPortable(dst, vec) }

// DecodeElems is putElems' inverse: it fills vec from the first
// ElemBytes·len(vec) little-endian bytes of src, which must hold that
// many — a payload ParseHeader returned holds exactly its packet's
// elements.
func DecodeElems(vec []int32, src []byte) { decodeElemsPortable(vec, src) }
