package core

import (
	"bytes"
	"slices"
	"testing"

	"switchml/internal/packet"
)

// wireRig is FuzzWireIngress's pair of switches under one
// configuration: wire takes datagrams as the UDP aggregator does
// (packet.ParseHeader, then ShardedSwitch.HandleWire), decoded as the
// rack and the allocating wrappers do (packet.UnmarshalInto, then
// Switch.HandleInto).
type wireRig struct {
	wire    *ShardedSwitch
	decoded *Switch
	pkt     packet.Packet
	out     packet.Packet
	dst     []byte
}

// newWireRig builds the pair from one selector byte: loss recovery,
// quorum with either late policy, and the float16 codec are each on for
// some values.
func newWireRig(t *testing.T, sel byte) *wireRig {
	t.Helper()
	cfg := SwitchConfig{Workers: 3, PoolSize: 2, SlotElems: 4, LossRecovery: sel&1 == 0}
	if cfg.LossRecovery && sel&2 != 0 {
		cfg.Quorum = 2
		cfg.LatePolicy = LatePolicy(sel >> 2 & 1)
	}
	if sel&8 != 0 {
		c, err := NewPackedHalfCodec(1 << 10)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Codec = c
	}
	wire, err := NewShardedSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &wireRig{wire: wire, decoded: decoded, dst: make([]byte, 0, 256)}
}

// feed hands one datagram to both switches and requires the same
// verdict: the same decode error, and the same reply — byte for byte,
// and multicast or not.
func (r *wireRig) feed(t *testing.T, d []byte) {
	t.Helper()
	var h packet.Header
	payload, werr := packet.ParseHeader(&h, d)
	derr := packet.UnmarshalInto(&r.pkt, d)
	if werr != derr {
		t.Fatalf("%x: ParseHeader = %v, UnmarshalInto = %v", d, werr, derr)
	}
	if werr != nil {
		return
	}
	got, multicast := r.wire.HandleWire(&h, payload, r.dst[:0])
	resp := r.decoded.HandleInto(&r.pkt, &r.out)
	var want []byte
	if resp.Pkt != nil {
		want = resp.Pkt.AppendMarshal(nil)
	}
	if !bytes.Equal(got, want) || (resp.Pkt != nil && multicast != resp.Multicast) {
		t.Fatalf("%v: wire reply %x (multicast %v), decoded %x (multicast %v)", &r.pkt, got, multicast, want, resp.Multicast)
	}
}

// same requires identical counters and slot state: every register of
// both pools, the bitmaps, and the quorum carries.
func (r *wireRig) same(t *testing.T) {
	t.Helper()
	a, b := r.wire.sw, r.decoded
	if a.Stats() != b.Stats() {
		t.Fatalf("counters differ: wire %+v, decoded %+v", a.Stats(), b.Stats())
	}
	for v := range a.pools {
		for i := range a.pools[v] {
			x, y := &a.pools[v][i], &b.pools[v][i]
			if x.elems != y.elems || x.off != y.off || x.count != y.count || x.carried != y.carried ||
				!slices.Equal(x.vector, y.vector) || !slices.Equal(x.carry, y.carry) ||
				!slices.Equal(x.seen, y.seen) || !slices.Equal(x.lateSeen, y.lateSeen) {
				t.Fatalf("slot %d/%d differs:\nwire    %+v\ndecoded %+v", v, i, *x, *y)
			}
		}
	}
}

// wireStream cuts fuzz input into datagrams. Each starts with a control
// byte c: with c&3 == 0 the next byte is a length and that many bytes
// go out verbatim (short, odd-length and corrupted buffers); otherwise
// the next bytes pick an update's fields, mostly in range of the rig's
// 3 workers, 2 slots and 4 elements, and it is marshalled — its kind
// replaced when c&16, a byte flipped when c&4, and cut to an odd length
// when c&8.
func wireStream(data []byte) [][]byte {
	var out [][]byte
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for len(data) > 0 {
		c := next()
		if c&3 == 0 {
			n := min(int(next()), len(data))
			out = append(out, data[:n])
			data = data[n:]
			continue
		}
		f := next()
		p := packet.Packet{
			Kind:     packet.KindUpdate,
			WorkerID: uint16(f % 4),
			Ver:      f >> 2 % 3,
			Idx:      uint32(f >> 4 % 3),
			Off:      uint64(next()%6) * 4,
			JobID:    uint16(f >> 6 / 3),
		}
		if c&16 != 0 {
			p.Kind = packet.Kind(next() % 18)
		}
		n := int(next() % 6)
		for i := 0; i < n; i++ {
			p.Vector = append(p.Vector, int32(next())<<24|int32(next())-128)
		}
		d := p.Marshal()
		if c&4 != 0 {
			d[int(next())%len(d)] ^= 1 << (c >> 5)
		}
		if c&8 != 0 {
			d = d[:len(d)-1-int(c>>5%3)]
		}
		out = append(out, d)
	}
	return out
}

// FuzzWireIngress holds the aggregator's wire ingress to the decoded
// one over arbitrary datagram sequences (wireStream), in every switch
// configuration newWireRig can build: after each datagram the replies,
// the counters and every slot's state must be identical. Seeded with a
// clean aggregation, retransmissions, a stale phase, a quorum
// straggler, corrupted, short and odd-length buffers.
func FuzzWireIngress(f *testing.F) {
	// One update of worker w to slot 0, version v, offset off: fields
	// byte w | v<<2, offset byte off/4, four elements.
	upd := func(w, v, off byte) []byte {
		return []byte{1, w | v<<2, off, 4, 1, 2, 3, 4, 5, 6, 7, 8}
	}
	clean := slices.Concat(upd(0, 0, 0), upd(1, 0, 0), upd(2, 0, 0))
	f.Add(byte(0), clean)
	f.Add(byte(1), clean)
	f.Add(byte(2), slices.Concat(clean, upd(0, 0, 0), upd(0, 1, 1), upd(1, 1, 1), upd(2, 0, 0)))
	f.Add(byte(6), slices.Concat(upd(0, 0, 0), upd(1, 0, 0), upd(2, 0, 0), upd(0, 1, 1), upd(2, 1, 1), upd(0, 0, 2)))
	f.Add(byte(8), slices.Concat(clean, upd(1, 0, 0)))
	f.Add(byte(10), slices.Concat(clean, upd(2, 0, 0), upd(0, 1, 1)))
	f.Add(byte(0), []byte{5, 1, 0, 4, 1, 2, 3, 4, 5, 6, 7, 8, 3, 9, 9, 9, 0, 7, 0, 1, 2, 3, 4, 5, 6, 0, 0})
	f.Add(byte(0), []byte{9, 2, 0, 3, 1, 2, 3, 4, 5, 6, 0x28, 1, 1, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		r := newWireRig(t, sel)
		for _, d := range wireStream(data) {
			r.feed(t, d)
			r.same(t)
		}
	})
}

// TestWireIngressOnePassEachWay counts the element passes of the wire
// ingress (ShardedSwitch.HandleWire's body) on the identity codec. Between the socket buffer and the
// slot there is one: the switch reads the payload when it aggregates,
// not a copy taken earlier — bytes changed after ParseHeader show up in
// the slot — and stages nothing on the way, its scratch staying unused.
// Between the slot and the socket buffer there is one: the reply is
// appended in place to the caller's buffer, equal to the slot's
// registers encoded, again with nothing staged. (The decoded path takes
// two each way: UnmarshalInto into a Packet then the slot, and the slot
// into a Packet then AppendMarshal.)
func TestWireIngressOnePassEachWay(t *testing.T) {
	sw, err := NewSwitch(SwitchConfig{Workers: 2, PoolSize: 2, SlotElems: 8, LossRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 1024)
	send := func(w uint16, vec []int32, edit int32) []byte {
		d := packet.NewUpdate(w, 0, 0, 1, 64, vec).Marshal()
		var h packet.Header
		payload, err := packet.ParseHeader(&h, d)
		if err != nil {
			t.Fatal(err)
		}
		// The datagram changes under the header: only a switch that reads
		// the elements where they lie, when it aggregates, sees it.
		wire := packet.AppendWire(nil, &h, []int32{edit})
		copy(payload[:packet.ElemBytes], wire[packet.WireLen(0):])
		out, _ := sw.handleWire(&h, payload, dst, sw.scratch)
		return out
	}
	if out := send(0, []int32{1, 2, 3}, 100); len(out) != 0 {
		t.Fatalf("first contribution replied %x", out)
	}
	out := send(1, []int32{10, 20, 30}, 1000)
	want := []int32{1100, 22, 33}
	if got := sw.pools[0][1].vector[:3]; !slices.Equal(got, want) {
		t.Fatalf("slot holds %v, want %v: the payload was not read where it lay", got, want)
	}
	if len(out) == 0 || &out[0] != &dst[:1][0] {
		t.Fatal("the result was not appended in place to the caller's buffer")
	}
	h := packet.Header{Kind: packet.KindResult, WorkerID: 1, Idx: 1, Off: 64}
	if ref := packet.AppendWire(nil, &h, want); !bytes.Equal(out, ref) {
		t.Fatalf("result %x, want the slot's registers encoded %x", out, ref)
	}
	for i, v := range sw.scratch {
		if v != 0 {
			t.Fatalf("scratch[%d] = %d: elements were staged on the way", i, v)
		}
	}
}

// TestWireIngressZeroAlloc is the AllocsPerRun gate on HandleWire: a
// job's updates aggregated from their datagrams and the completions'
// results appended to a block with room allocate nothing.
func TestWireIngressZeroAlloc(t *testing.T) {
	const n, k = 4, 32
	ss, err := NewShardedSwitch(SwitchConfig{Workers: n, PoolSize: 8, SlotElems: k, LossRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]int32, k)
	block := make([]byte, 0, 2*packet.WireLen(k))
	var wire []byte
	round := 0
	step := func() {
		block = block[:0]
		for w := 0; w < n; w++ {
			h := packet.Header{Kind: packet.KindUpdate, WorkerID: uint16(w), Ver: uint8(round % 2), Off: uint64(round * k)}
			wire = packet.AppendWire(wire[:0], &h, vec)
			var ph packet.Header
			payload, err := packet.ParseHeader(&ph, wire)
			if err != nil {
				t.Fatal(err)
			}
			block, _ = ss.HandleWire(&ph, payload, block)
		}
		if len(block) != packet.WireLen(k) {
			t.Fatalf("round %d left %d bytes, want one result", round, len(block))
		}
		round++
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("wire ingress allocates %.2f/op, want 0", allocs)
	}
}
