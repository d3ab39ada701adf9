package packet

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// FuzzUnmarshal exercises the wire decoder with arbitrary bytes: it
// must never panic, and any buffer it accepts must re-marshal to the
// identical bytes (the decoder admits exactly the encoder's image).
func FuzzUnmarshal(f *testing.F) {
	f.Add(NewUpdate(1, 2, 1, 3, 128, []int32{1, -2, 3}).Marshal())
	f.Add(NewUpdate(0, 0, 0, 0, 0, nil).Marshal())
	big := NewUpdate(65535, 65535, 1, 1<<31, 1<<60, make([]int32, MTUElems))
	big.Kind = KindResultUnicast
	f.Add(big.Marshal())
	f.Add([]byte{})
	f.Add([]byte{0x53, 0x4D})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return
		}
		out := p.Marshal()
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted buffer does not round-trip:\n in: %x\nout: %x", data, out)
		}
	})
}

// FuzzParseHeader holds the two-step decode a worker uses on results —
// ParseHeader, then DecodeElems into a destination of its own — to
// UnmarshalInto and to the byte-wise reference decoder (equiv_test.go)
// over arbitrary bytes: all three reject with the same sentinel, or all
// accept and yield identical fields and elements. The destination is
// filled with a marker and has one guard element past its end, so a
// decode that writes too little or too much shows. Seeded from
// codecSeeds' wire images, the earlier layouts' goldens and a few
// malformed buffers.
func FuzzParseHeader(f *testing.F) {
	for _, s := range codecSeeds {
		p := &Packet{Kind: s.kind, WorkerID: s.worker, JobID: s.job, Ver: s.ver, Idx: s.idx, Off: s.off, Vector: seedVector(s.n, s.fill)}
		f.Add(p.Marshal())
	}
	for _, old := range []string{goldenFullUpdateOldLayout, goldenFullUpdateBigEndian} {
		if b, err := hex.DecodeString(old); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte{})
	f.Add(make([]byte, marshalHeaderBytes-1))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		var h Header
		payload, err := ParseHeader(&h, data)
		var p Packet
		perr := UnmarshalInto(&p, data)
		rh, rvec, rerr := refUnmarshal(data)
		if err != perr || err != rerr {
			t.Fatalf("ParseHeader = %v, UnmarshalInto = %v, reference = %v", err, perr, rerr)
		}
		if err != nil {
			if h != (Header{}) {
				t.Fatalf("a rejected buffer wrote the header: %+v", h)
			}
			return
		}
		if h != rh || p.Header() != rh {
			t.Fatalf("ParseHeader %+v, UnmarshalInto %+v, reference %+v", h, p.Header(), rh)
		}
		if len(payload) != ElemBytes*len(rvec) || len(p.Vector) != len(rvec) {
			t.Fatalf("payload of %d bytes and %d elements decoded, reference %d elements", len(payload), len(p.Vector), len(rvec))
		}
		const marker = 0x5EED
		dst := make([]int32, len(rvec)+1)
		for i := range dst {
			dst[i] = marker
		}
		DecodeElems(dst[:len(rvec)], payload)
		for i, v := range rvec {
			if dst[i] != v || p.Vector[i] != v {
				t.Fatalf("element %d: %d decoded in place, %d by UnmarshalInto, reference %d", i, dst[i], p.Vector[i], v)
			}
		}
		if dst[len(rvec)] != marker {
			t.Fatalf("DecodeElems wrote past its destination")
		}
	})
}

// codecSeed is one FuzzCodec seed-corpus entry. The corpus must name
// every declared Kind — TestCodecSeedCorpus (and the kinddispatch
// analyzer) enforce the enumeration, so a newly added kind cannot
// skip the codec round-trip fuzz.
type codecSeed struct {
	kind        Kind
	worker, job uint16
	ver         uint8
	idx         uint32
	off         uint64
	n           int
	fill        int32
}

// codecSeeds enumerates KindUpdate..KindAdoptJob with field shapes
// representative of each kind's real use:
//   - data plane: updates and results carry dense vectors; the
//     unicast repair result is a retransmission-path frame.
//   - control plane: reconfiguration round-trips carry the new
//     membership bitmap in the vector, reports and resumes carry
//     frontier offsets in Off with empty vectors.
//   - degraded mode: probes carry a sequence in Idx (and the failback
//     generation in JobID), fallback syncs announce tensor boundaries
//     in Off/Vector, fallback data packs round+step in Idx with a
//     real payload, and fallback acks are tiny Off∈{0,1} frames.
//   - elastic membership: joins and leaves are tiny control frames (a
//     join may carry the proposed membership echo in Vector, a leave
//     is always empty); state-fetch requests carry the segment offset
//     in Off, state-data replies the total length in Idx and a
//     payload.
var codecSeeds = []codecSeed{
	{KindUpdate, 0, 0, 0, 0, 0, 0, 0},
	{KindUpdate, 7, 3, 1, 127, 1 << 40, 32, -5},
	{KindResult, 65535, 65535, 1, 1 << 31, 1 << 60, MTUElems, 1 << 30},
	{KindResultUnicast, 3, 9, 0, 17, 1 << 20, 16, 11},
	{KindReconfig, 0, 9, 0, 0, 0, 2, 0b1011},
	{KindReport, 3, 9, 0, 0, 1 << 20, 0, 0},
	{KindResume, 0, 10, 0, 0, 1 << 20, 0, 0},
	{KindHeartbeat, 12, 9, 0, 0, 0, 0, 0},
	{KindProbe, 0, 11, 0, 42, 0, 0, 0},
	{KindProbeAck, 0, 11, 0, 42, 0, 0, 0},
	{KindFallbackSync, 2, 9, 1, 5, 1 << 20, 2, 1 << 12},
	{KindFallbackData, 1, 9, 0, 5<<16 | 3, 96, 32, -7},
	{KindFallbackAck, 1, 9, 0, 3, 1, 0, 0},
	{KindJoin, 5, 9, 0, 0, 0, 0, 0},
	{KindJoin, 5, 12, 1, 1, 1 << 33, 1, 0b111101},
	{KindLeave, 2, 9, 0, 0, 1 << 20, 0, 0},
	{KindLeave, 65535, 65535, 1, 7, 1 << 60, 0, 0},
	{KindStateReq, 5, 12, 0, 0, 4096, 0, 0},
	{KindStateData, 0, 12, 0, 1 << 20, 4096, 64, -9},
	{KindAdoptJob, 2, 13, 0, 0, 1 << 20, 0, 0},
	{KindAdoptJob, 2, 13, 1, 3, 1 << 20, 0, 0},
}

// TestCodecSeedCorpus asserts the seed corpus enumerates every
// declared kind, KindUpdate through KindAdoptJob: the structured
// fuzzer only mutates from its seeds, so a kind without one starts
// from zero coverage.
func TestCodecSeedCorpus(t *testing.T) {
	seeded := make(map[Kind]bool)
	for _, s := range codecSeeds {
		seeded[s.kind] = true
	}
	for k := KindUpdate; k <= KindAdoptJob; k++ {
		if !seeded[k] {
			t.Errorf("kind %v (%d) has no FuzzCodec seed", k, uint8(k))
		}
	}
	if n := KindAdoptJob - KindUpdate + 1; len(seeded) != int(n) {
		t.Errorf("corpus seeds %d distinct kinds, the protocol declares %d", len(seeded), n)
	}
}

// FuzzCodec drives the codec from the structured side: any packet
// built from arbitrary field values must marshal and unmarshal back to
// an identical packet, and its wire image must survive the decoder's
// validation, and both directions must agree with the byte-wise
// reference codec (equiv_test.go). With FuzzParseHeader it is the
// `make fuzz` smoke gate.
func FuzzCodec(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add(uint8(s.kind), s.worker, s.job, s.ver, s.idx, s.off, s.n, s.fill)
	}

	f.Fuzz(func(t *testing.T, kind uint8, worker, job uint16, ver uint8, idx uint32, off uint64, n int, fill int32) {
		k := Kind(kind % (uint8(KindAdoptJob) + 1))
		if n < 0 {
			n = -n
		}
		n %= MTUElems + 1
		vec := seedVector(n, fill)
		p := &Packet{Kind: k, WorkerID: worker, JobID: job, Ver: ver, Idx: idx, Off: off, Vector: vec}
		buf := p.Marshal()
		if len(buf) != p.MarshalledSize() {
			t.Fatalf("marshal produced %d bytes, MarshalledSize says %d", len(buf), p.MarshalledSize())
		}
		// Differential against the byte-wise reference, at a buffer
		// offset the inputs pick (odd ones included).
		checkAgainstReference(t, p, int(idx%5))
		q, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("decoder rejected encoder output for %v: %v", p, err)
		}
		if q.Kind != p.Kind || q.WorkerID != p.WorkerID || q.JobID != p.JobID ||
			q.Ver != p.Ver || q.Idx != p.Idx || q.Off != p.Off || len(q.Vector) != len(p.Vector) {
			t.Fatalf("round-trip mismatch:\n in: %v\nout: %v", p, q)
		}
		for i := range vec {
			if q.Vector[i] != vec[i] {
				t.Fatalf("vector[%d] = %d, want %d", i, q.Vector[i], vec[i])
			}
		}
		// Control broadcasts (reconfig, resume) are marshalled once and
		// patched per destination; the patch must preserve validity and
		// change only the worker id.
		patched := worker ^ 0x5aa5
		if err := PatchWorkerID(buf, patched); err != nil {
			t.Fatalf("PatchWorkerID rejected a valid buffer: %v", err)
		}
		r, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("decoder rejected patched buffer: %v", err)
		}
		if r.WorkerID != patched {
			t.Fatalf("patched worker id = %d, want %d", r.WorkerID, patched)
		}
		if r.Kind != p.Kind || r.JobID != p.JobID || r.Ver != p.Ver ||
			r.Idx != p.Idx || r.Off != p.Off || len(r.Vector) != len(p.Vector) {
			t.Fatalf("patch disturbed other fields:\n in: %v\nout: %v", p, r)
		}
	})
}
