package packet

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// refMarshal is the codec's reference encoder: the layout documented
// on Marshal written out one field and one element at a time — header
// fields big-endian, elements little-endian — with encoding/binary and
// no knowledge of the host's byte order. Tests hold the fast paths to
// it byte for byte.
func refMarshal(p *Packet) []byte {
	buf := make([]byte, marshalHeaderBytes+ElemBytes*len(p.Vector))
	binary.BigEndian.PutUint16(buf[4:6], magic)
	buf[6] = byte(p.Kind)
	buf[7] = p.Ver
	binary.BigEndian.PutUint16(buf[8:10], p.WorkerID)
	binary.BigEndian.PutUint16(buf[10:12], p.JobID)
	binary.BigEndian.PutUint32(buf[12:16], p.Idx)
	binary.BigEndian.PutUint64(buf[16:24], p.Off)
	for i, v := range p.Vector {
		binary.LittleEndian.PutUint32(buf[marshalHeaderBytes+ElemBytes*i:], uint32(v))
	}
	binary.BigEndian.PutUint32(buf[0:4], crc32.ChecksumIEEE(buf[4:]))
	return buf
}

// refVector is the reference element decoder for a marshalled buffer
// that already passed validation.
func refVector(buf []byte) []int32 {
	payload := buf[marshalHeaderBytes:]
	vec := make([]int32, len(payload)/ElemBytes)
	for i := range vec {
		vec[i] = int32(binary.LittleEndian.Uint32(payload[ElemBytes*i:]))
	}
	return vec
}

// refUnmarshal is the reference decoder: the layout documented on
// Marshal read back one field at a time, with the checks in the order
// UnmarshalInto documents and the same sentinels.
func refUnmarshal(buf []byte) (Header, []int32, error) {
	switch {
	case len(buf) < marshalHeaderBytes:
		return Header{}, nil, ErrShortBuffer
	case binary.BigEndian.Uint16(buf[4:6]) != magic:
		return Header{}, nil, ErrBadMagic
	case (len(buf)-marshalHeaderBytes)%ElemBytes != 0:
		return Header{}, nil, ErrBadLength
	case crc32.ChecksumIEEE(buf[4:]) != binary.BigEndian.Uint32(buf[0:4]):
		return Header{}, nil, ErrChecksum
	case Kind(buf[6]) > KindAdoptJob:
		return Header{}, nil, ErrBadKind
	}
	h := Header{
		Kind:     Kind(buf[6]),
		Ver:      buf[7],
		WorkerID: binary.BigEndian.Uint16(buf[8:10]),
		JobID:    binary.BigEndian.Uint16(buf[10:12]),
		Idx:      binary.BigEndian.Uint32(buf[12:16]),
		Off:      binary.BigEndian.Uint64(buf[16:24]),
	}
	return h, refVector(buf), nil
}

// checkAgainstReference marshals p at the given byte offset into a
// larger buffer — a GRO train hands the decoder segments at arbitrary
// offsets, and a window block stages them at arbitrary ones — and
// holds both directions to the reference.
func checkAgainstReference(t *testing.T, p *Packet, offset int) {
	t.Helper()
	want := refMarshal(p)
	arena := make([]byte, offset, offset+len(want)+3)
	for i := range arena {
		arena[i] = 0xA5
	}
	arena = p.AppendMarshal(arena)
	if got := arena[offset:]; !bytes.Equal(got, want) {
		t.Fatalf("%v at offset %d: marshal differs from the reference\n got: %x\nwant: %x", p, offset, got, want)
	}
	for i, b := range arena[:offset] {
		if b != 0xA5 {
			t.Fatalf("%v at offset %d: AppendMarshal wrote byte %d of the prefix", p, offset, i)
		}
	}
	var q Packet
	if err := UnmarshalInto(&q, arena[offset:]); err != nil {
		t.Fatalf("%v at offset %d: decoder rejected the reference image: %v", p, offset, err)
	}
	ref := refVector(want)
	if len(q.Vector) != len(ref) {
		t.Fatalf("%v at offset %d: decoded %d elements, reference %d", p, offset, len(q.Vector), len(ref))
	}
	for i := range ref {
		if q.Vector[i] != ref[i] || q.Vector[i] != p.Vector[i] {
			t.Fatalf("%v at offset %d: vector[%d] = %d, reference %d, sent %d", p, offset, i, q.Vector[i], ref[i], p.Vector[i])
		}
	}
}

// seedVector builds the FuzzCodec payload shape: n elements counting
// up from fill.
func seedVector(n int, fill int32) []int32 {
	vec := make([]int32, n)
	for i := range vec {
		vec[i] = fill + int32(i)
	}
	return vec
}

// TestCodecMatchesReference runs the unrolled element loops against
// the byte-wise reference over every seed of the fuzz corpus and over
// the lengths on either side of each loop boundary (empty, one, the
// paper's k and its neighbours, a full MTU), each at even and odd
// buffer offsets.
func TestCodecMatchesReference(t *testing.T) {
	var pkts []*Packet
	for _, s := range codecSeeds {
		pkts = append(pkts, &Packet{Kind: s.kind, WorkerID: s.worker, JobID: s.job, Ver: s.ver,
			Idx: s.idx, Off: s.off, Vector: seedVector(s.n, s.fill)})
	}
	for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33, MTUElems} {
		// Extremes and a sign change inside one eight-element pass.
		vec := seedVector(n, -3)
		if n > 1 {
			vec[0], vec[n-1] = -1<<31, 1<<31-1
		}
		pkts = append(pkts, &Packet{Kind: KindUpdate, WorkerID: 1, Ver: 1, Idx: 63, Off: 1 << 33, Vector: vec})
	}
	for _, p := range pkts {
		for _, offset := range []int{0, 1, 2, 3, 5, 152} {
			checkAgainstReference(t, p, offset)
		}
	}
}

// TestPayloadIsHostOrder holds the codec to its byte-order claim on the
// hosts the software path runs on: on a little-endian host an encoded
// payload is the vector's in-memory bytes, so the worker's encode and
// decode and the aggregator's ingress and egress swap no element (four
// swaps a round trip in the big-endian layout, zero now), and the
// build takes the copy path (elems_native.go).
func TestPayloadIsHostOrder(t *testing.T) {
	littleHost := binary.NativeEndian.Uint16([]byte{1, 0}) == 1
	if littleHost != nativeOrder {
		t.Fatalf("host little-endian %v, but the build's copy path is %v: the elems_native.go build list is wrong", littleHost, nativeOrder)
	}
	if !littleHost {
		t.Skip("big-endian host: the payload is swapped by design (TestPortableCodecMatchesReferences covers it)")
	}
	for _, n := range []int{1, 7, 8, 9, DefaultElems, 312, MTUElems} {
		vec := seedVector(n, -1<<31+5)
		var mem []byte
		for _, v := range vec {
			mem = binary.NativeEndian.AppendUint32(mem, uint32(v))
		}
		h := Header{Kind: KindUpdate, Idx: 3}
		wire := AppendWire(nil, &h, vec)
		if !bytes.Equal(wire[marshalHeaderBytes:], mem) {
			t.Fatalf("n=%d: payload %x is not the vector's memory %x", n, wire[marshalHeaderBytes:], mem)
		}
		back := make([]int32, n)
		DecodeElems(back, wire[marshalHeaderBytes:])
		for i := range vec {
			if back[i] != vec[i] {
				t.Fatalf("n=%d: element %d decoded %d, want %d", n, i, back[i], vec[i])
			}
		}
	}
}

// TestPortableCodecMatchesReferences runs the byte-swapping pair that a
// big-endian build uses, on every host, against encoding/binary: it
// writes exactly the little-endian reference, which is not the
// big-endian one, and reads both back as the reference says. AddElems
// (the switch's ingress add) is held to the decoded sum.
func TestPortableCodecMatchesReferences(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33, 312, MTUElems} {
		vec := seedVector(n, 0x01020304)
		if n > 1 {
			vec[0], vec[n-1] = -1<<31, 1<<31-1
		}
		var le, be []byte
		for _, v := range vec {
			le = binary.LittleEndian.AppendUint32(le, uint32(v))
			be = binary.BigEndian.AppendUint32(be, uint32(v))
		}
		got := make([]byte, ElemBytes*n+3)
		putElemsPortable(got, vec)
		if !bytes.Equal(got[:ElemBytes*n], le) {
			t.Fatalf("n=%d: portable encoder %x, little-endian reference %x", n, got[:ElemBytes*n], le)
		}
		if n > 0 && bytes.Equal(got[:ElemBytes*n], be) {
			t.Fatalf("n=%d: portable encoder wrote the big-endian reference", n)
		}
		for _, b := range got[ElemBytes*n:] {
			if b != 0 {
				t.Fatalf("n=%d: portable encoder wrote past its elements", n)
			}
		}
		fromLE, fromBE := make([]int32, n), make([]int32, n)
		decodeElemsPortable(fromLE, le)
		decodeElemsPortable(fromBE, be)
		sum := seedVector(n, 1000)
		AddElems(sum, le)
		for i, v := range vec {
			if fromLE[i] != v {
				t.Fatalf("n=%d: element %d decoded %d from the little-endian reference, want %d", n, i, fromLE[i], v)
			}
			if want := int32(binary.LittleEndian.Uint32(be[ElemBytes*i:])); fromBE[i] != want {
				t.Fatalf("n=%d: element %d decoded %d from big-endian bytes, the reference reads %d", n, i, fromBE[i], want)
			}
			if want := 1000 + int32(i) + v; sum[i] != want {
				t.Fatalf("n=%d: AddElems element %d = %d, want %d", n, i, sum[i], want)
			}
		}
	}
}
