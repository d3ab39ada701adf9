package packet

import (
	"testing"
)

// TestAppendMarshalMatchesMarshal checks the two encoders produce
// identical bytes and that AppendMarshal really appends.
func TestAppendMarshalMatchesMarshal(t *testing.T) {
	p := NewUpdate(7, 3, 1, 42, 1<<40, []int32{1, -2, 3, -2147483648, 2147483647})
	want := p.Marshal()
	prefix := []byte{0xAA, 0xBB}
	got := p.AppendMarshal(append([]byte(nil), prefix...))
	if len(got) != len(prefix)+len(want) {
		t.Fatalf("AppendMarshal length = %d, want %d", len(got), len(prefix)+len(want))
	}
	if got[0] != 0xAA || got[1] != 0xBB {
		t.Error("AppendMarshal clobbered the prefix")
	}
	for i := range want {
		if got[len(prefix)+i] != want[i] {
			t.Fatalf("byte %d: got %#x want %#x", i, got[len(prefix)+i], want[i])
		}
	}
}

// TestUnmarshalIntoReusesVector checks capacity reuse and that a
// failed parse leaves the destination untouched.
func TestUnmarshalIntoReusesVector(t *testing.T) {
	big := NewUpdate(1, 0, 0, 2, 64, make([]int32, DefaultElems))
	buf := big.Marshal()
	var p Packet
	if err := UnmarshalInto(&p, buf); err != nil {
		t.Fatalf("UnmarshalInto: %v", err)
	}
	firstCap := cap(p.Vector)
	small := NewUpdate(2, 0, 1, 3, 96, []int32{9, 8, 7})
	if err := UnmarshalInto(&p, small.Marshal()); err != nil {
		t.Fatalf("UnmarshalInto: %v", err)
	}
	if cap(p.Vector) != firstCap {
		t.Errorf("vector capacity not reused: %d -> %d", firstCap, cap(p.Vector))
	}
	if p.WorkerID != 2 || len(p.Vector) != 3 || p.Vector[2] != 7 {
		t.Errorf("decode mismatch: %v", &p)
	}
	// A corrupted buffer must not modify p.
	bad := append([]byte(nil), buf...)
	bad[25] ^= 0xFF
	before := p.String()
	if err := UnmarshalInto(&p, bad); err == nil {
		t.Fatal("corrupted buffer accepted")
	}
	if p.String() != before {
		t.Errorf("failed parse modified destination: %v -> %v", before, p.String())
	}
}

// TestRoundTripZeroAlloc is the tentpole assertion: a steady-state
// marshal/unmarshal round trip performs no allocation.
func TestRoundTripZeroAlloc(t *testing.T) {
	src := NewUpdate(3, 0, 1, 42, 4096, make([]int32, DefaultElems))
	wire := make([]byte, 0, src.MarshalledSize())
	var dst Packet
	// Warm up so dst.Vector has capacity.
	wire = src.AppendMarshal(wire[:0])
	if err := UnmarshalInto(&dst, wire); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		wire = src.AppendMarshal(wire[:0])
		if err := UnmarshalInto(&dst, wire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("marshal/unmarshal round trip allocates %.1f/op, want 0", allocs)
	}
}

// TestWireInPlaceZeroAlloc is the AllocsPerRun gate behind the
// //switchml:hotpath annotations on AppendWire and ParseHeader: encoding
// a header beside the sender's own elements, and decoding a header and
// then its elements into the receiver's own buffer, touch no heap.
func TestWireInPlaceZeroAlloc(t *testing.T) {
	src, dst := make([]int32, DefaultElems), make([]int32, DefaultElems)
	for i := range src {
		src[i] = int32(i) - 7
	}
	h := Header{Kind: KindResult, WorkerID: 3, Ver: 1, Idx: 42, Off: 4096}
	wire := make([]byte, 0, WireLen(len(src)))
	var got Header
	allocs := testing.AllocsPerRun(100, func() {
		wire = AppendWire(wire[:0], &h, src)
		payload, err := ParseHeader(&got, wire)
		if err != nil {
			t.Fatal(err)
		}
		DecodeElems(dst, payload)
	})
	if allocs != 0 {
		t.Errorf("in-place encode/decode allocates %.1f/op, want 0", allocs)
	}
	if got != h || dst[0] != src[0] || dst[DefaultElems-1] != src[DefaultElems-1] {
		t.Errorf("round trip decoded %+v %v, sent %+v %v", got, dst, h, src)
	}
}

// TestSetUpdateZeroAlloc covers the pooled-sender path: rewriting a
// packet in place with a same-size vector must not allocate.
func TestSetUpdateZeroAlloc(t *testing.T) {
	vec := make([]int32, DefaultElems)
	p := GetPacket()
	defer PutPacket(p)
	p.SetUpdate(0, 0, 0, 0, 0, vec) // warm the vector capacity
	allocs := testing.AllocsPerRun(100, func() {
		p.SetUpdate(5, 1, 1, 9, 288, vec)
	})
	if allocs != 0 {
		t.Errorf("SetUpdate allocates %.1f/op, want 0", allocs)
	}
	if p.WorkerID != 5 || p.Idx != 9 || len(p.Vector) != DefaultElems {
		t.Errorf("SetUpdate fields wrong: %v", p)
	}
}

// TestPacketPoolResets checks pooled packets come back empty.
func TestPacketPoolResets(t *testing.T) {
	p := GetPacket()
	p.SetUpdate(3, 1, 1, 7, 320, []int32{1, 2, 3})
	PutPacket(p)
	q := GetPacket()
	defer PutPacket(q)
	if q.Kind != KindUpdate || q.WorkerID != 0 || q.Idx != 0 || q.Off != 0 || len(q.Vector) != 0 {
		t.Errorf("pooled packet not reset: %v", q)
	}
}

// TestPatchWorkerID checks the in-place rewrite keeps the packet
// valid and only changes the worker id.
func TestPatchWorkerID(t *testing.T) {
	p := NewControl(KindReconfig, 0, 5, 0, []int32{0, 2, 3})
	buf := p.Marshal()
	if err := PatchWorkerID(buf, 2); err != nil {
		t.Fatalf("PatchWorkerID: %v", err)
	}
	q, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("patched packet rejected: %v", err)
	}
	if q.WorkerID != 2 {
		t.Errorf("WorkerID = %d, want 2", q.WorkerID)
	}
	if q.Kind != KindReconfig || q.JobID != 5 || len(q.Vector) != 3 {
		t.Errorf("patch disturbed other fields: %v", q)
	}
	if err := PatchWorkerID(make([]byte, 4), 1); err == nil {
		t.Error("short buffer accepted")
	}
}
