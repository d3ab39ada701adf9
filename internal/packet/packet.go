// Package packet defines the SwitchML wire format.
//
// A SwitchML packet carries a small, fixed-size vector of 32-bit
// integers together with the protocol fields of Algorithms 3 and 4 of
// the paper: the worker id (wid), the single-bit pool version (ver),
// the aggregator slot index (idx) and the element offset into the
// tensor stream (off). Updates flow from workers to the switch;
// results flow back either as a multicast (normal completion) or as a
// unicast (retransmitted result).
//
// Two sizes matter and they are deliberately distinct:
//
//   - WireSize is the number of bytes the packet occupies on the
//     simulated wire. It uses the paper's per-packet header budget of
//     52 bytes (1516-byte MTU frames carry 366 elements; 180-byte
//     frames carry 32), so that goodput and timing in the simulator
//     match the paper's accounting exactly.
//   - Marshal/Unmarshal produce the byte representation used by the
//     real UDP transport. That header is self-describing (24 bytes,
//     led by a CRC32 over the rest of the datagram) and does not need
//     to match the simulated budget because the kernel supplies IP/UDP
//     framing.
//
//switchml:deterministic
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// Protocol constants from the paper's deployment (§3.3, §3.6).
const (
	// DefaultElems is k, the number of 32-bit elements aggregated per
	// packet by the switch pipeline. The paper's Tofino program
	// processes 32 elements per packet in the ingress pipeline.
	DefaultElems = 32

	// MTUElems is the number of elements an MTU-sized packet would
	// carry (§5.5 "Limited payload size"): 1516-byte frames including
	// all headers leave room for 366 four-byte elements.
	MTUElems = 366

	// HeaderBytes is the paper's total per-packet header budget: a
	// 180-byte frame carries 32 elements (128 bytes), and a 1516-byte
	// frame carries 366 elements (1464 bytes); both leave 52 bytes of
	// headers.
	HeaderBytes = 52

	// ElemBytes is the size of one vector element on the wire.
	ElemBytes = 4

	// marshalHeaderBytes is the size of the self-describing header
	// produced by Marshal (excludes the vector payload).
	marshalHeaderBytes = 24

	// crcBytes is the checksum field that leads the datagram; it covers
	// every byte after it.
	crcBytes = 4

	// magic identifies marshalled SwitchML packets in the current
	// layout: "SL", SwitchML with a little-endian payload. The layout
	// before it, the same header over a big-endian payload, carried
	// "SM" here.
	magic = 0x534C // "SL"
)

// Kind discriminates the direction and role of a packet.
type Kind uint8

const (
	// KindUpdate is a model-update packet travelling from a worker to
	// the switch.
	KindUpdate Kind = iota
	// KindResult is an aggregated result multicast from the switch to
	// every worker.
	KindResult
	// KindResultUnicast is an aggregated result retransmitted to a
	// single worker that re-sent an update for an already-complete
	// slot (Algorithm 3, lines 19-21).
	KindResultUnicast
	// KindReconfig is a control message from the aggregator's failure
	// controller to the workers: a new job generation (JobID) is in
	// effect after a membership change, and each worker must report
	// its progress frontier. Vector carries the surviving worker ids.
	KindReconfig
	// KindReport is a worker's reply to KindReconfig: Off carries the
	// worker's progress frontier as a global stream offset — the first
	// element whose aggregate it has not received.
	KindReport
	// KindResume is the controller's resume directive: Off carries the
	// global recovery frontier (the minimum reported stream offset);
	// every worker re-aggregates its interrupted tensor from that
	// chunk boundary under the new job generation.
	KindResume
	// KindHeartbeat is an explicit worker liveness beacon, sent while
	// a worker is alive but has no updates in flight so the silence
	// detector does not evict it between tensors.
	KindHeartbeat
	// KindProbe is a switch health probe from a degraded worker: Idx
	// carries the probe sequence number. During failback the probe
	// doubles as the generation fence — JobID carries the new job
	// generation the aggregator must adopt (wiping its pool) before
	// any worker resumes the switch path.
	KindProbe
	// KindProbeAck is the aggregator's echo of a KindProbe, crediting
	// the sender's probation window. Idx echoes the probe sequence and
	// JobID the aggregator's current generation.
	KindProbeAck
	// KindFallbackSync is the degraded-mode barrier: each worker
	// announces its tensor boundary and chunk frontier (Off), its ring
	// round sequence (Idx) and its switch-health vote (Ver) to every
	// peer. A round's ring all-reduce starts only when all n
	// announcements agree on the boundary.
	KindFallbackSync
	// KindFallbackData is one segment of ring all-reduce payload
	// between mesh peers while degraded: JobID is the degraded round,
	// Idx the segment's sequence number in the round's ring schedule,
	// Off its element offset in the round's buffer.
	KindFallbackData
	// KindFallbackAck is the mesh ARQ's control for KindFallbackData
	// (allreduce.ARQ): a cumulative ack, Idx the round's receive segments
	// applied and Off the segment that drew it; with Ver 1, the sender's
	// end-of-round notice that every segment it sent is acked.
	KindFallbackAck
	// KindJoin is a graceful-join handshake from a worker that wants to
	// enter a running job. The aggregator queues it, fences the job at
	// the next chunk-aligned step boundary and admits the sender under a
	// bumped generation. Retried until the fence is observed.
	KindJoin
	// KindLeave is a graceful-leave announcement: the sender finishes
	// its in-flight window, holds at the membership fence boundary and
	// is retired under the new generation without tripping liveness.
	KindLeave
	// KindStateReq asks a mesh peer for one segment of its model state
	// during a join: Off is the element offset of the requested segment.
	// It travels over the PR 5 fallback mesh, not the aggregator path.
	KindStateReq
	// KindStateData answers a KindStateReq: Off echoes the segment
	// offset, Idx carries the total state length in elements and Vector
	// the segment payload.
	KindStateData
	// KindAdoptJob is the warm-standby failover handshake. A worker
	// whose aggregator went silent re-homes to the next rung of its
	// standby ladder by sending KindAdoptJob with JobID carrying the
	// proposed (bumped) generation and Off its chunk frontier. The
	// standby echoes the packet with Ver=1 as a collection ack while it
	// gathers the member roll call; once every member has adopted, it
	// wipes its pool under the proposed generation and releases the job
	// with KindResume at the minimum adopted frontier.
	KindAdoptJob
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	//switchml:dispatch
	switch k {
	case KindUpdate:
		return "update"
	case KindResult:
		return "result"
	case KindResultUnicast:
		return "result-unicast"
	case KindReconfig:
		return "reconfig"
	case KindReport:
		return "report"
	case KindResume:
		return "resume"
	case KindHeartbeat:
		return "heartbeat"
	case KindProbe:
		return "probe"
	case KindProbeAck:
		return "probe-ack"
	case KindFallbackSync:
		return "fallback-sync"
	case KindFallbackData:
		return "fallback-data"
	case KindFallbackAck:
		return "fallback-ack"
	case KindJoin:
		return "join"
	case KindLeave:
		return "leave"
	case KindStateReq:
		return "state-req"
	case KindStateData:
		return "state-data"
	case KindAdoptJob:
		return "adopt-job"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Errors returned by the decoder. They are fixed sentinels so the
// receive loop's reject path — exercised by every corrupted datagram
// on a lossy network — allocates nothing.
var (
	// ErrShortBuffer means the buffer cannot hold even the header.
	ErrShortBuffer = errors.New("packet: short buffer")
	// ErrBadMagic means the buffer does not start with the SwitchML
	// magic number.
	ErrBadMagic = errors.New("packet: bad magic")
	// ErrBadLength means the payload is not a whole number of
	// elements.
	ErrBadLength = errors.New("packet: payload not a multiple of the element size")
	// ErrChecksum means the CRC32 over header and payload failed.
	ErrChecksum = errors.New("packet: checksum mismatch")
	// ErrBadKind means the kind byte names no known packet kind.
	ErrBadKind = errors.New("packet: unknown kind")
)

// Packet is a single SwitchML protocol message.
//
// The zero value is not useful; construct packets with NewUpdate or by
// copying and rewriting a received packet, as the switch does.
//
// The //switchml:wire directives declare each field's width in the
// switch register model (internal/p4sim); cmd/switchml-vet proves
// that every constant stored in a field fits its register.
type Packet struct {
	// Kind says whether this is an update or a (possibly unicast)
	// result.
	Kind Kind //switchml:wire bits=5
	// WorkerID identifies the sending worker for updates, and the
	// destination worker for unicast results. It indexes the per-slot
	// seen bitmap, whose words are sized by the worker count (§4).
	WorkerID uint16 //switchml:wire bits=16
	// JobID identifies the training job in multi-tenant deployments
	// (§6 "Multi-job"). Each job owns a disjoint pool of aggregators.
	JobID uint16 //switchml:wire bits=16
	// Ver is the single-bit pool version used to alternate between the
	// active pool and its shadow copy (Algorithm 3): on the switch it
	// selects the upper or lower half of a 64-bit register pair
	// (Appendix B), so only 0 and 1 are representable.
	Ver uint8 //switchml:wire bits=1
	// Idx is the aggregator slot index within the pool.
	Idx uint32 //switchml:wire bits=32
	// Off is the element offset of this packet's vector within the
	// tensor stream.
	Off uint64 //switchml:wire bits=64
	// Vector is the payload: at most k (or MTUElems) int32 values. The
	// final chunk of a tensor may be shorter than k.
	Vector []int32
}

// Header is a packet's protocol fields: everything but the vector. It
// is what a receiver checks before it knows where, if anywhere, the
// elements belong, and what a sender stamps beside elements that stay
// in its own buffer: ParseHeader decodes it and leaves the payload on
// the wire, AppendWire encodes it in front of the caller's elements, so
// a host can move elements between the wire and its own tensors with no
// Packet in between. The field widths are Packet's.
type Header struct {
	Kind     Kind   //switchml:wire bits=5
	Ver      uint8  //switchml:wire bits=1
	WorkerID uint16 //switchml:wire bits=16
	JobID    uint16 //switchml:wire bits=16
	Idx      uint32 //switchml:wire bits=32
	Off      uint64 //switchml:wire bits=64
}

// Header returns p's protocol fields.
func (p *Packet) Header() Header {
	return Header{Kind: p.Kind, Ver: p.Ver, WorkerID: p.WorkerID, JobID: p.JobID, Idx: p.Idx, Off: p.Off}
}

// NewUpdate builds an update packet for the given worker, slot and
// offset, copying vec so the caller may reuse its buffer.
func NewUpdate(worker uint16, job uint16, ver uint8, idx uint32, off uint64, vec []int32) *Packet {
	p := &Packet{}
	p.SetUpdate(worker, job, ver, idx, off, vec)
	return p
}

// SetUpdate rewrites p in place as an update packet, copying vec into
// p.Vector (reusing its capacity when possible). It is the
// allocation-free counterpart of NewUpdate for pooled packets.
func (p *Packet) SetUpdate(worker uint16, job uint16, ver uint8, idx uint32, off uint64, vec []int32) {
	p.Kind = KindUpdate
	p.WorkerID = worker
	p.JobID = job
	p.Ver = ver
	p.Idx = idx
	p.Off = off
	//switchml:allow hotpath -- guarded grow: a pooled packet's vector reaches the job's SlotElems capacity once, then is reused
	p.Vector = append(p.Vector[:0], vec...)
}

// NewControl builds a control-plane packet (reconfig, report, resume
// or heartbeat) addressed to or from the given worker. Off carries the
// kind-specific argument (chunk frontier); vec, which may be nil, is
// copied.
//
//switchml:allow hotpath -- control-plane constructor: directives and handshakes are built per recovery or membership step, never per update (data-path senders rewrite pooled packets with SetUpdate)
func NewControl(kind Kind, worker uint16, job uint16, off uint64, vec []int32) *Packet {
	p := &Packet{}
	p.SetControl(kind, worker, job, off, vec)
	return p
}

// SetControl rewrites p in place as a control packet, copying vec into
// p.Vector (reusing its capacity when possible).
func (p *Packet) SetControl(kind Kind, worker uint16, job uint16, off uint64, vec []int32) {
	p.Kind = kind
	p.WorkerID = worker
	p.JobID = job
	p.Ver = 0
	p.Idx = 0
	p.Off = off
	p.Vector = append(p.Vector[:0], vec...)
}

// Clone returns a deep copy of the packet. The switch clones packets
// when multicasting so that per-port mutation cannot alias.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Vector = make([]int32, len(p.Vector))
	copy(q.Vector, p.Vector)
	return &q
}

// WireSize returns the simulated on-the-wire size in bytes, using the
// paper's 52-byte header budget.
func (p *Packet) WireSize() int {
	return HeaderBytes + ElemBytes*len(p.Vector)
}

// String renders a compact description, useful in traces and tests.
func (p *Packet) String() string {
	return fmt.Sprintf("%s{w%d j%d v%d idx%d off%d n%d}",
		p.Kind, p.WorkerID, p.JobID, p.Ver, p.Idx, p.Off, len(p.Vector))
}

// MarshalledSize returns the length of the buffer Marshal will
// produce.
func (p *Packet) MarshalledSize() int { return WireLen(len(p.Vector)) }

// WireLen returns the marshalled length of a packet carrying elems
// elements.
func WireLen(elems int) int { return marshalHeaderBytes + ElemBytes*elems }

// Marshal serializes the packet into the self-describing byte format
// used by the real transport. The layout is fixed-width; the header
// fields are big-endian, the vector elements little-endian:
//
//	offset size field
//	0      4    crc32 (IEEE) of bytes [4,len): the header below and the payload
//	4      2    magic "SM"
//	6      1    kind
//	7      1    ver
//	8      2    worker id
//	10     2    job id
//	12     4    idx
//	16     8    off
//	24     4*n  vector elements, little-endian
//
// The checksum leads so that what it covers is one contiguous run of
// bytes: one crc32 call per datagram. The elements are in the byte
// order of the hosts that run the software path, not the network
// order the paper's switch parses: on a little-endian host the encoder
// and decoder copy them (elems_native.go), and every hop moves each
// element once. p4sim models the Tofino's parser and is unaffected; it
// carries Packet values, never these bytes.
//
// A datagram from an endpoint on an earlier layout fails the magic
// check (ErrBadMagic), so a mixed-version deployment counts it
// corrupted instead of misparsing it: the big-endian-payload layout
// carried "SM" at [4,6), and the one before it kept the magic at [0,2)
// and the checksum at [20,24).
func (p *Packet) Marshal() []byte {
	return p.AppendMarshal(make([]byte, 0, p.MarshalledSize()))
}

// AppendMarshal appends the wire form of the packet to dst and
// returns the extended slice. When dst has sufficient spare capacity
// no allocation is performed, so senders can reuse one buffer across
// packets (typically sliced to dst[:0] before each call).
//
//switchml:hotpath
func (p *Packet) AppendMarshal(dst []byte) []byte {
	return appendWire(dst, p.Kind, p.Ver, p.WorkerID, p.JobID, p.Idx, p.Off, p.Vector)
}

// AppendWire appends the wire form of a packet with header *h and
// vector vec to dst and returns the extended slice — AppendMarshal for a
// sender whose elements live in its own buffer rather than a Packet's.
// Like AppendMarshal it allocates only when dst lacks the capacity.
//
//switchml:hotpath
func AppendWire(dst []byte, h *Header, vec []int32) []byte {
	return appendWire(dst, h.Kind, h.Ver, h.WorkerID, h.JobID, h.Idx, h.Off, vec)
}

// appendWire is both encoders. The header arrives as fields, not as a
// Header value: per packet, copying a struct that was just written
// field by field — a Header built from a Packet, say — costs a
// store-forwarding stall, more than the rest of the header's encoding.
func appendWire(dst []byte, kind Kind, ver uint8, worker, job uint16, idx uint32, off uint64, vec []int32) []byte {
	base := len(dst)
	size := WireLen(len(vec))
	if cap(dst)-base < size {
		//switchml:allow hotpath -- guarded grow fallback: pooled buffers retain MTU capacity, so steady state never enters
		grown := make([]byte, base, base+size)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+size]
	buf := dst[base:]
	binary.BigEndian.PutUint16(buf[4:6], magic)
	buf[6] = byte(kind)
	buf[7] = ver
	binary.BigEndian.PutUint16(buf[8:10], worker)
	binary.BigEndian.PutUint16(buf[10:12], job)
	binary.BigEndian.PutUint32(buf[12:16], idx)
	binary.BigEndian.PutUint64(buf[16:24], off)
	putElems(buf[marshalHeaderBytes:], vec)
	binary.BigEndian.PutUint32(buf[0:crcBytes], bodyChecksum(buf))
	return dst
}

// bodyChecksum computes the packet checksum of a marshalled buffer:
// one pass over everything after the checksum field.
func bodyChecksum(buf []byte) uint32 {
	return crc32.ChecksumIEEE(buf[crcBytes:])
}

// PatchWorkerID rewrites the worker-id field of a marshalled packet
// in place, updating the checksum. Control broadcasts (reconfig,
// resume) that differ only in the destination worker are marshalled
// once and patched per peer instead of re-marshalled.
func PatchWorkerID(buf []byte, worker uint16) error {
	if len(buf) < marshalHeaderBytes {
		return ErrShortBuffer
	}
	binary.BigEndian.PutUint16(buf[8:10], worker)
	binary.BigEndian.PutUint32(buf[0:crcBytes], bodyChecksum(buf))
	return nil
}

// Unmarshal parses a packet previously produced by Marshal. It
// verifies the magic number, the payload alignment and the checksum;
// corrupted packets are rejected so callers can simply drop them, as
// the paper's workers do (§3.4: "A simple checksum can be used to
// detect corruption and discard corrupted packets").
func Unmarshal(buf []byte) (*Packet, error) {
	p := &Packet{}
	if err := UnmarshalInto(p, buf); err != nil {
		return nil, err
	}
	return p, nil
}

// UnmarshalInto parses a marshalled packet into p, reusing p.Vector's
// capacity so a receive loop can decode every datagram into one
// packet without allocating. On error p is left unmodified and the
// error is one of the package's fixed sentinels, so rejecting a flood
// of corrupted datagrams allocates nothing either. The same
// validation as Unmarshal applies.
//
//switchml:hotpath
func UnmarshalInto(p *Packet, buf []byte) error {
	var h Header
	payload, err := ParseHeader(&h, buf)
	if err != nil {
		return err
	}
	p.Kind, p.Ver, p.WorkerID, p.JobID, p.Idx, p.Off = h.Kind, h.Ver, h.WorkerID, h.JobID, h.Idx, h.Off
	n := len(payload) / ElemBytes
	if cap(p.Vector) >= n {
		p.Vector = p.Vector[:n]
	} else {
		//switchml:allow hotpath -- guarded grow fallback: a pooled packet's vector reaches MTU capacity once, then is reused
		p.Vector = make([]int32, n)
	}
	DecodeElems(p.Vector, payload)
	return nil
}

// ParseHeader is UnmarshalInto up to the vector: the same checks in the
// same order — length, magic, payload alignment, checksum, kind — with
// the same sentinels, then the header decoded into h and the payload,
// the vector's ElemBytes-aligned little-endian elements, returned where
// they lie in buf. On error h is left unmodified. A receiver that must
// check a packet's fields before it knows where the elements belong (a
// worker's result) decodes them afterwards with DecodeElems, straight
// into their destination, or not at all; one that aggregates them adds
// them where they lie (AddElems).
//
//switchml:hotpath
func ParseHeader(h *Header, buf []byte) ([]byte, error) {
	if len(buf) < marshalHeaderBytes {
		return nil, ErrShortBuffer
	}
	if binary.BigEndian.Uint16(buf[4:6]) != magic {
		return nil, ErrBadMagic
	}
	payload := buf[marshalHeaderBytes:]
	if len(payload)%ElemBytes != 0 {
		return nil, ErrBadLength
	}
	if bodyChecksum(buf) != binary.BigEndian.Uint32(buf[0:crcBytes]) {
		return nil, ErrChecksum
	}
	k := Kind(buf[6])
	if k > KindAdoptJob {
		return nil, ErrBadKind
	}
	// Field by field, like AppendWire's reads: no struct copy per packet.
	h.Kind, h.Ver = k, buf[7]
	h.WorkerID, h.JobID = binary.BigEndian.Uint16(buf[8:10]), binary.BigEndian.Uint16(buf[10:12])
	h.Idx, h.Off = binary.BigEndian.Uint32(buf[12:16]), binary.BigEndian.Uint64(buf[16:24])
	return payload, nil
}

// The packet pool for the hot path. Senders get a packet, fill it,
// transmit, and put it back; steady-state traffic then recycles storage
// instead of allocating per packet. Putting is optional — paths that
// hand packets to asynchronous consumers (the simulator's in-flight
// links) simply never return them, and the pool falls back to
// allocation.
var pktPool = sync.Pool{New: func() any { return &Packet{Vector: make([]int32, 0, DefaultElems)} }}

// GetPacket returns a pooled packet with zeroed protocol fields and
// an empty vector (capacity retained from prior use).
//
//switchml:acquire
func GetPacket() *Packet {
	p := pktPool.Get().(*Packet)
	v := p.Vector[:0]
	*p = Packet{Vector: v}
	return p
}

// PutPacket returns a packet to the pool. The caller must not retain
// any reference to p or its vector.
//
//switchml:release
func PutPacket(p *Packet) {
	if p == nil {
		return
	}
	pktPool.Put(p)
}
