package netsim

import (
	"fmt"

	"switchml/internal/telemetry"
)

// Message is anything that can travel over a link. WireSize is the
// size in bytes used for serialization-delay and statistics
// accounting; it should include all header overheads.
type Message interface {
	WireSize() int
}

// ReliableMessage marks messages carried by a reliable byte-stream
// transport (the hosts' kernel TCP stack) rather than the aggregation
// protocol's raw UDP. Links exempt such messages from their loss,
// corruption and duplication processes: the real transport retransmits
// below the level the simulator models, so loss surfaces as extra
// latency there, never as a missing message. Blackouts (SetDown) still
// apply — no transport survives a severed link.
type ReliableMessage interface {
	Message
	Reliable() bool
}

// Node receives messages delivered by links.
type Node interface {
	// Deliver is invoked inside the simulation loop when a message
	// arrives. Implementations may send on other links and schedule
	// events but must not block.
	Deliver(msg Message)
}

// Recycler is told what a link did with a message it will not deliver
// exactly once, so a sender whose messages are pooled can keep the
// books. The ownership rule on a link is: Send hands the message to
// the link, and each delivery hands it on to the destination node. A
// message the link loses reaches no node, so the link gives it back
// through Dropped; a message the link duplicates reaches the node
// twice, so the link asks Duplicate for the message to deliver the
// second time (a copy, or the same message with one more reference
// counted). A link without a Recycler delivers the same message twice
// and forgets dropped ones, which is right for garbage-collected
// messages.
type Recycler interface {
	// Dropped is called once for every message Send loses (loss
	// process, corruption, blackout).
	Dropped(msg Message)
	// Duplicate is called when the duplication fault fires and returns
	// the message for the extra delivery.
	Duplicate(msg Message) Message
}

// NodeFunc adapts a function to the Node interface.
type NodeFunc func(msg Message)

// Deliver implements Node.
func (f NodeFunc) Deliver(msg Message) { f(msg) }

// LinkStats counts traffic over one unidirectional link.
type LinkStats struct {
	// Sent is the number of messages handed to the link.
	Sent uint64
	// Dropped is the number of messages lost for any reason (loss
	// process, blackout, or corruption).
	Dropped uint64
	// Delivered is the number of messages handed to the destination,
	// including injected duplicates.
	Delivered uint64
	// Bytes is the total wire bytes of sent messages, including
	// dropped ones (they occupied the wire before being lost).
	Bytes uint64
	// MaxQueue is the maximum serialization backlog observed, as a
	// virtual-time span.
	MaxQueue Time
	// Blackholed counts messages dropped because the link was down
	// (included in Dropped).
	Blackholed uint64
	// Corrupted counts messages mangled in flight; the simulator
	// models the receiver's checksum discarding them, so they are also
	// included in Dropped.
	Corrupted uint64
	// Duplicated counts extra deliveries injected by the duplication
	// fault.
	Duplicated uint64
}

// Link is a unidirectional point-to-point link with a given bandwidth
// and propagation delay. Messages are serialized FIFO: a message
// handed to a busy link waits until the previous one finishes
// transmitting. Loss is applied independently per message, modelling
// the uniform random loss probability the paper injects per link in
// §5.5.
type Link struct {
	sim *Sim
	// name appears in debugging output.
	name string
	// bitsPerSec is the link bandwidth.
	bitsPerSec float64
	// prop is the one-way propagation delay.
	prop Time
	// loss is the drop process; nil means lossless.
	loss LossModel
	// down blackholes every message while set (link blackout fault).
	down bool
	// dupRate is the probability a delivered message is delivered
	// twice (duplication fault).
	dupRate float64
	// corruptRate is the probability a message is mangled in flight;
	// the receiver's checksum discards it, so it behaves as a counted
	// drop.
	corruptRate float64
	// dst receives delivered messages.
	dst Node
	// nextFree is the virtual time at which the transmitter becomes
	// idle.
	nextFree Time
	// flights are the deliveries in progress. Arrival times never
	// decrease (nextFree is monotone, prop constant), so they drain in
	// FIFO order through one callback.
	flights *Queue[flight]
	// recycler, when set, learns of dropped and duplicated messages.
	recycler Recycler
	stats    LinkStats
}

// flight is one delivery in progress.
type flight struct {
	msg  Message
	size int
}

// LinkConfig describes a link to be created.
type LinkConfig struct {
	// Name identifies the link in diagnostics.
	Name string
	// BitsPerSec is the bandwidth, e.g. 10e9 for 10 Gbps.
	BitsPerSec float64
	// Propagation is the one-way propagation delay.
	Propagation Time
	// LossRate is the per-message drop probability in [0,1),
	// modelling independent Bernoulli loss.
	LossRate float64
	// Loss, when non-nil, overrides LossRate with an arbitrary (and
	// possibly stateful, e.g. Gilbert–Elliott burst) loss process. The
	// model instance must be exclusive to this link.
	Loss LossModel
	// DupRate is the probability in [0,1) that a delivered message is
	// delivered twice.
	DupRate float64
	// CorruptRate is the probability in [0,1) that a message is
	// mangled in flight and discarded by the receiver's checksum.
	CorruptRate float64
}

// NewLink creates a link inside sim delivering to dst.
func NewLink(sim *Sim, cfg LinkConfig, dst Node) *Link {
	if cfg.BitsPerSec <= 0 {
		panic(fmt.Sprintf("netsim: link %q bandwidth must be positive", cfg.Name))
	}
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		panic(fmt.Sprintf("netsim: link %q loss rate %v out of [0,1)", cfg.Name, cfg.LossRate))
	}
	if dst == nil {
		panic(fmt.Sprintf("netsim: link %q has no destination", cfg.Name))
	}
	if cfg.DupRate < 0 || cfg.DupRate >= 1 {
		panic(fmt.Sprintf("netsim: link %q dup rate %v out of [0,1)", cfg.Name, cfg.DupRate))
	}
	if cfg.CorruptRate < 0 || cfg.CorruptRate >= 1 {
		panic(fmt.Sprintf("netsim: link %q corrupt rate %v out of [0,1)", cfg.Name, cfg.CorruptRate))
	}
	loss := cfg.Loss
	if loss == nil && cfg.LossRate > 0 {
		loss = Bernoulli{P: cfg.LossRate}
	}
	l := &Link{
		sim:         sim,
		name:        cfg.Name,
		bitsPerSec:  cfg.BitsPerSec,
		prop:        cfg.Propagation,
		loss:        loss,
		dupRate:     cfg.DupRate,
		corruptRate: cfg.CorruptRate,
		dst:         dst,
	}
	l.flights = NewQueue(sim, l.deliver)
	return l
}

// SetRecycler installs the observer of dropped and duplicated
// messages; see Recycler for the ownership rule it serves.
func (l *Link) SetRecycler(r Recycler) { l.recycler = r }

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Stats returns a snapshot of the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }

// SetLossRate changes the drop probability to an independent Bernoulli
// process; experiments use this to inject loss mid-run.
func (l *Link) SetLossRate(rate float64) {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("netsim: loss rate %v out of [0,1)", rate))
	}
	if rate == 0 {
		l.loss = nil
		return
	}
	l.loss = Bernoulli{P: rate}
}

// SetLossModel installs an arbitrary loss process (nil = lossless).
// The model instance must be exclusive to this link.
func (l *Link) SetLossModel(m LossModel) { l.loss = m }

// SetDown blacks the link out (every message is dropped) or restores
// it; fault scenarios use it for blackout windows. State transitions
// are traced as LinkDown/LinkUp events.
func (l *Link) SetDown(down bool) {
	if l.down == down {
		return
	}
	l.down = down
	t := telemetry.EvLinkUp
	if down {
		t = telemetry.EvLinkDown
	}
	l.trace(t, l.sim.Now(), 0)
}

// Down reports whether the link is blacked out.
func (l *Link) Down() bool { return l.down }

// SetDupRate changes the duplication fault probability.
func (l *Link) SetDupRate(rate float64) {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("netsim: dup rate %v out of [0,1)", rate))
	}
	l.dupRate = rate
}

// SetCorruptRate changes the corruption fault probability.
func (l *Link) SetCorruptRate(rate float64) {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("netsim: corrupt rate %v out of [0,1)", rate))
	}
	l.corruptRate = rate
}

// SerializationDelay returns how long a message of the given size
// occupies the transmitter.
func (l *Link) SerializationDelay(bytes int) Time {
	return Time(float64(bytes*8) / l.bitsPerSec * 1e9)
}

// trace emits a packet event for this link at virtual time ts.
func (l *Link) trace(t telemetry.EventType, ts Time, size int) {
	if l.sim.tracer == nil {
		return
	}
	e := telemetry.Ev(t, int64(ts))
	e.Actor = l.name
	e.Size = int32(size)
	l.sim.tracer.Emit(e)
}

// Send enqueues msg for transmission. It returns the virtual time at
// which the message will finish serializing (even if it is then
// dropped), which callers can use for back-to-back pacing. The link
// owns msg from here on: the caller must not touch it again.
//
//switchml:hotpath
func (l *Link) Send(msg Message) Time {
	now := l.sim.Now()
	start := l.nextFree
	if start < now {
		start = now
	}
	if backlog := start - now; backlog > l.stats.MaxQueue {
		l.stats.MaxQueue = backlog
	}
	size := msg.WireSize()
	txDone := start + l.SerializationDelay(size)
	l.nextFree = txDone
	l.stats.Sent++
	l.stats.Bytes += uint64(size)
	l.trace(telemetry.EvPacketSent, now, size)

	if l.down {
		l.stats.Blackholed++
		l.drop(msg, txDone, size)
		return txDone
	}
	// Only a link with a fault process needs to ask whether the message
	// is exempt from it.
	reliable := false
	if l.loss != nil || l.corruptRate > 0 || l.dupRate > 0 {
		rm, ok := msg.(ReliableMessage)
		reliable = ok && rm.Reliable()
	}
	if !reliable && l.loss != nil && l.loss.Drop(l.sim.Rand()) {
		// Stamped at txDone: the message occupied the wire before the
		// loss process ate it.
		l.drop(msg, txDone, size)
		return txDone
	}
	if !reliable && l.corruptRate > 0 && l.sim.Rand().Float64() < l.corruptRate {
		// The mangled frame reaches the receiver, fails the checksum
		// and is discarded — indistinguishable from a drop above the
		// link layer (§3.4), but counted separately.
		l.stats.Corrupted++
		l.drop(msg, txDone, size)
		return txDone
	}
	arrival := txDone + l.prop
	l.flights.Push(arrival, flight{msg, size})
	if !reliable && l.dupRate > 0 && l.sim.Rand().Float64() < l.dupRate {
		l.stats.Duplicated++
		if l.recycler != nil {
			msg = l.recycler.Duplicate(msg)
		}
		l.flights.Push(arrival, flight{msg, size})
	}
	return txDone
}

// drop accounts for a message lost on the wire and gives it back to
// the sender's recycler.
func (l *Link) drop(msg Message, txDone Time, size int) {
	l.stats.Dropped++
	l.trace(telemetry.EvPacketDropped, txDone, size)
	if l.recycler != nil {
		l.recycler.Dropped(msg)
	}
}

// deliver hands an arrived message to the destination; it is the
// flights queue's callback.
//
//switchml:hotpath
func (l *Link) deliver(f flight) {
	l.stats.Delivered++
	l.trace(telemetry.EvPacketRecv, l.sim.Now(), f.size)
	l.dst.Deliver(f.msg)
}

// Busy reports whether the transmitter has queued work beyond the
// current time.
func (l *Link) Busy() bool { return l.nextFree > l.sim.Now() }

// NextFree returns when the transmitter becomes idle.
func (l *Link) NextFree() Time { return l.nextFree }
