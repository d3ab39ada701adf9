package packet

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"
)

// goldenVector is the 32-element payload of the full-chunk goldens:
// small negatives and positives, and the most negative int32 last.
func goldenVector() []int32 {
	vec := make([]int32, DefaultElems)
	for i := range vec {
		vec[i] = int32(i*i) - 100
	}
	vec[DefaultElems-1] = -1 << 31
	return vec
}

// goldenFullUpdateOldLayout is the full update of the goldens below in
// the wire layout before the checksum moved to the front: magic at
// [0,2), the checksum at [20,24). It pins what a receiver does with a
// datagram from an endpoint still speaking that layout.
const goldenFullUpdateOldLayout = "534d0001000100070000000500000001000000a0a9bccfe2ffffff9cffffff9d" +
	"ffffffa0ffffffa5ffffffacffffffb5ffffffc0ffffffcdffffffdcffffffed" +
	"00000000000000150000002c00000045000000600000007d0000009c000000bd" +
	"000000e0000001050000012c0000015500000180000001ad000001dc0000020d" +
	"0000024000000275000002ac000002e50000032080000000"

// goldenFullUpdateBigEndian is the same full update in the layout
// before the payload became little-endian: the header as now, "SM" as
// the magic, every element big-endian. It pins what a receiver does
// with a datagram from an endpoint still speaking that layout.
const goldenFullUpdateBigEndian = "a9bccfe2534d0001000100070000000500000001000000a0ffffff9cffffff9d" +
	"ffffffa0ffffffa5ffffffacffffffb5ffffffc0ffffffcdffffffdcffffffed" +
	"00000000000000150000002c00000045000000600000007d0000009c000000bd" +
	"000000e0000001050000012c0000015500000180000001ad000001dc0000020d" +
	"0000024000000275000002ac000002e50000032080000000"

// goldens are byte-exact datagrams, one per shape the transport sends:
// a full update, a tensor's short tail update, a result and a control
// packet with a vector. They were frozen from the encoder; a change to
// any byte is a wire-format change and needs a reason.
var goldens = []struct {
	name string
	p    *Packet
	wire string
}{
	{"full update", &Packet{Kind: KindUpdate, WorkerID: 1, JobID: 7, Ver: 1, Idx: 5, Off: 1<<32 + 160, Vector: goldenVector()},
		"fa99aeef534c0001000100070000000500000001000000a09cffffff9dffffff" +
			"a0ffffffa5ffffffacffffffb5ffffffc0ffffffcdffffffdcffffffedffffff" +
			"00000000150000002c00000045000000600000007d0000009c000000bd000000" +
			"e0000000050100002c0100005501000080010000ad010000dc0100000d020000" +
			"4002000075020000ac020000e50200002003000000000080"},
	{"short tail update", &Packet{Kind: KindUpdate, WorkerID: 1, JobID: 7, Ver: 0, Idx: 9, Off: 1<<32 + 16448, Vector: []int32{3, -2, 1}},
		"03a200d4534c00000001000700000009000000010000404003000000feffffff" +
			"01000000"},
	{"result", &Packet{Kind: KindResult, WorkerID: 0, JobID: 7, Ver: 1, Idx: 5, Off: 1<<32 + 160, Vector: goldenVector()},
		"f7fb1dfd534c0101000000070000000500000001000000a09cffffff9dffffff" +
			"a0ffffffa5ffffffacffffffb5ffffffc0ffffffcdffffffdcffffffedffffff" +
			"00000000150000002c00000045000000600000007d0000009c000000bd000000" +
			"e0000000050100002c0100005501000080010000ad010000dc0100000d020000" +
			"4002000075020000ac020000e50200002003000000000080"},
	{"control with vector", &Packet{Kind: KindReconfig, WorkerID: 2, JobID: 9, Off: 1 << 20, Vector: []int32{0, 2, 3}},
		"ff5a72ae534c0300000200090000000000000000001000000000000002000000" +
			"03000000"},
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWireGolden holds the encoder, both encoders' entry points and the
// decoder to the frozen datagrams, byte for byte and field for field.
func TestWireGolden(t *testing.T) {
	for _, g := range goldens {
		want := mustHex(t, g.wire)
		if got := g.p.Marshal(); !bytes.Equal(got, want) {
			t.Errorf("%s: Marshal\n got %x\nwant %x", g.name, got, want)
		}
		h := g.p.Header()
		if got := AppendWire(nil, &h, g.p.Vector); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendWire\n got %x\nwant %x", g.name, got, want)
		}
		var q Packet
		if err := UnmarshalInto(&q, want); err != nil {
			t.Fatalf("%s: decoder rejected the golden: %v", g.name, err)
		}
		if q.Header() != g.p.Header() || len(q.Vector) != len(g.p.Vector) {
			t.Fatalf("%s: decoded %v, want %v", g.name, &q, g.p)
		}
		for i := range q.Vector {
			if q.Vector[i] != g.p.Vector[i] {
				t.Fatalf("%s: vector[%d] = %d, want %d", g.name, i, q.Vector[i], g.p.Vector[i])
			}
		}
	}
}

// TestPreviousLayoutRejected pins what becomes of a datagram from an
// endpoint still on an earlier layout: the magic check refuses it, so a
// mixed-version deployment counts it corrupted rather than misparsing
// it. The layouts differ only where each change moved something: the
// checksum's position (the oldest), then the magic and the payload's
// byte order (the big-endian one).
func TestPreviousLayoutRejected(t *testing.T) {
	cur := mustHex(t, goldens[0].wire)
	for _, old := range []struct {
		name string
		wire []byte
	}{
		{"checksum last", mustHex(t, goldenFullUpdateOldLayout)},
		{"big-endian payload", mustHex(t, goldenFullUpdateBigEndian)},
	} {
		var p Packet
		if err := UnmarshalInto(&p, old.wire); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("%s: UnmarshalInto = %v, want %v", old.name, err, ErrBadMagic)
		}
		var h Header
		if _, err := ParseHeader(&h, old.wire); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("%s: ParseHeader = %v, want %v", old.name, err, ErrBadMagic)
		}
	}
	old, be := mustHex(t, goldenFullUpdateOldLayout), mustHex(t, goldenFullUpdateBigEndian)
	if !bytes.Equal(old[20:24], be[0:4]) || !bytes.Equal(old[0:20], be[4:24]) || !bytes.Equal(old[24:], be[24:]) {
		t.Errorf("the two earlier layouts differ by more than the checksum's position:\nchecksum last %x\nbig-endian    %x", old, be)
	}
	if !bytes.Equal(be[6:24], cur[6:24]) || len(be) != len(cur) {
		t.Fatalf("the big-endian layout's header differs beyond the magic:\nbig-endian %x\ncurrent    %x", be, cur)
	}
	for i := marshalHeaderBytes; i < len(cur); i += ElemBytes {
		if binary.BigEndian.Uint32(be[i:]) != binary.LittleEndian.Uint32(cur[i:]) {
			t.Fatalf("element at byte %d: big-endian layout %x, current %x — not the same value in the other order", i, be[i:i+4], cur[i:i+4])
		}
	}
}
