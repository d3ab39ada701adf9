package switchml

import (
	"errors"
	"time"

	"switchml/internal/faults"
	"switchml/internal/netsim"
	"switchml/internal/rack"
	"switchml/internal/transport"
)

// This file is the public face of the fault-injection and failure-
// recovery machinery (§5.6 of the paper): scripted fault scenarios
// for the simulator, seeded packet injectors and liveness detection
// for the real UDP deployment.

// FaultKind enumerates scripted fault actions for SimParams.Faults.
type FaultKind int

const (
	// FaultCrashWorker kills a worker host: it stops sending,
	// receiving and timing out, as a process crash would.
	FaultCrashWorker FaultKind = iota + 1
	// FaultRestartWorker revives a crashed worker; it rejoins when the
	// job restarts at the next aggregation step boundary.
	FaultRestartWorker
	// FaultRestartSwitch reboots the switch, wiping all register state
	// (pools, bitmaps, counters) mid-job.
	FaultRestartSwitch
	// FaultLinkDown starts a blackout window on the target worker's
	// access links (both directions; Worker -1 targets every link).
	FaultLinkDown
	// FaultLinkUp ends a blackout window.
	FaultLinkUp
	// FaultSetLossRate changes the Bernoulli loss rate of the target
	// worker's access links mid-run.
	FaultSetLossRate
	// FaultSetBurstLoss installs a Gilbert–Elliott burst-loss process
	// on the target worker's access links mid-run.
	FaultSetBurstLoss
	// FaultKillSwitch fails the switch's aggregation program: update
	// packets are silently dropped and probes go unanswered, but the
	// crossbar keeps forwarding host-to-host traffic — the failure mode
	// the degradation controller (SimParams.Health) rides out by
	// falling back to host all-reduce. Worker is ignored.
	FaultKillSwitch
	// FaultReviveSwitch brings a killed aggregation program back; the
	// degraded job probes it and, after SimParams.Health.Probation
	// consecutive answers, fails back to the switch path.
	FaultReviveSwitch
	// FaultJoinWorker gracefully admits a worker into the running job.
	// The target must be outside the current membership — listed in
	// SimParams.Detached, or previously departed — and is fenced in at
	// the next step boundary under a bumped generation, resuming at
	// the global stream frontier.
	FaultJoinWorker
	// FaultLeaveWorker gracefully retires a worker: it finishes its
	// in-flight step (the drain), then departs at the step boundary
	// without ever tripping the failure detector — the voluntary,
	// telemetry-distinct counterpart of FaultCrashWorker.
	FaultLeaveWorker
	// FaultKillStandby fails a warm-standby aggregation program
	// (requires SimParams.StandbySwitches). Worker carries the standby
	// rank, 1-based: rank 1 is the first standby behind the primary. A
	// job homed on that rung re-enters the failover ladder; a job
	// homed elsewhere only notices if it later descends onto the dead
	// rung.
	FaultKillStandby
	// FaultReviveStandby brings a killed standby's aggregation program
	// back with wiped register state. Worker is the standby rank,
	// 1-based.
	FaultReviveStandby
)

// FaultAction is one scripted fault event.
type FaultAction struct {
	// Kind selects the fault.
	Kind FaultKind
	// At is the trigger time. With Step zero it is absolute virtual
	// time; with Step positive it is relative to the start of that
	// aggregation step (1-based), so "crash worker 2 at step 3, 40 µs
	// in" is scripted deterministically.
	At time.Duration
	// Step anchors At to an aggregation step; zero means absolute.
	Step int
	// Worker is the target worker id; -1 targets every link for the
	// link-scoped actions and is ignored by FaultRestartSwitch. For
	// FaultKillStandby and FaultReviveStandby it carries the standby
	// rank instead (1-based).
	Worker int
	// Rate is the loss rate for FaultSetLossRate.
	Rate float64
	// Burst is the chain for FaultSetBurstLoss.
	Burst BurstLossParams
}

// FaultScenario is a deterministic fault script: every action fires
// at its scripted virtual time, so a given (scenario, seed) pair
// replays bit-identically.
type FaultScenario struct {
	Actions []FaultAction
}

func (s *FaultScenario) internal() *faults.Scenario {
	if s == nil {
		return nil
	}
	out := &faults.Scenario{Actions: make([]faults.Action, len(s.Actions))}
	for i, a := range s.Actions {
		out.Actions[i] = faults.Action{
			Kind:   faults.ActionKind(a.Kind),
			At:     netsim.Time(a.At),
			Step:   a.Step,
			Worker: a.Worker,
			Rate:   a.Rate,
			Burst:  a.Burst.internal(),
		}
	}
	return out
}

// BurstLossParams configures a Gilbert–Elliott two-state burst-loss
// chain: a good state with rare loss and a bad state with heavy loss,
// with the given transition probabilities evaluated per packet. The
// stationary mean loss rate is
// LossGood·P(good) + LossBad·P(bad) with
// P(bad) = PGoodToBad/(PGoodToBad+PBadToGood).
type BurstLossParams struct {
	// PGoodToBad is the per-packet probability of entering a burst.
	PGoodToBad float64
	// PBadToGood is the per-packet probability of a burst ending.
	PBadToGood float64
	// LossGood is the drop probability in the good state.
	LossGood float64
	// LossBad is the drop probability in the bad state.
	LossBad float64
}

func (b BurstLossParams) internal() netsim.GEConfig {
	return netsim.GEConfig{
		PGoodToBad: b.PGoodToBad,
		PBadToGood: b.PBadToGood,
		LossGood:   b.LossGood,
		LossBad:    b.LossBad,
	}
}

// LivenessParams tunes the failure detector: a worker silent past
// SilenceAfter — while at least one peer keeps making progress — is
// declared failed, evicted from the membership, and the survivors are
// resumed from the global progress frontier under a new job
// generation.
type LivenessParams struct {
	// SilenceAfter is the silence threshold. Zero selects the host's
	// default (16×RTO in the simulator, 2 s over UDP). It should
	// comfortably exceed the maximum retransmission backoff (64×RTO).
	SilenceAfter time.Duration
	// CheckEvery is the detector sweep period (default
	// SilenceAfter/4). Detection latency is at most
	// SilenceAfter+CheckEvery past the failed worker's last packet.
	CheckEvery time.Duration
}

func (l *LivenessParams) rack() *rack.LivenessConfig {
	if l == nil {
		return nil
	}
	return &rack.LivenessConfig{
		SilenceAfter: netsim.Time(l.SilenceAfter),
		CheckEvery:   netsim.Time(l.CheckEvery),
	}
}

func (l *LivenessParams) transport() *transport.LivenessConfig {
	if l == nil {
		return nil
	}
	return &transport.LivenessConfig{
		SilenceAfter: l.SilenceAfter,
		CheckEvery:   l.CheckEvery,
	}
}

// ErrSwitchUnavailable is the typed, retryable verdict for an
// aggregation fabric that stopped answering: the switch program died
// (or the UDP aggregator went silent) and no fallback was available
// to ride it out. It is distinct from input errors — the tensors were
// fine; retry once the fabric (or a Health fallback) is back. Test
// with errors.Is. On a UDP Peer the retry is a call with the same
// slice: it continues the failed call's tensor where it stopped, and a
// call with any other slice returns ErrTensorOpen until it has.
var ErrSwitchUnavailable = errors.New("switchml: switch unavailable")

// fabricErr attaches ErrSwitchUnavailable to errors whose root cause
// is a dead aggregation fabric, preserving the full original chain.
func fabricErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, rack.ErrSwitchDown) || errors.Is(err, transport.ErrAggregatorSilent) {
		return &switchUnavailableError{err}
	}
	return err
}

type switchUnavailableError struct{ err error }

func (e *switchUnavailableError) Error() string { return e.err.Error() }
func (e *switchUnavailableError) Unwrap() []error {
	return []error{e.err, ErrSwitchUnavailable}
}

// HealthParams tunes the switch health monitor and degradation
// controller: the subsystem that keeps a job running when the switch
// itself dies. It is distinct from LivenessParams, which suspects
// individual silent workers; health suspects the fabric when no
// aggregation results flow anywhere while updates are outstanding.
// On suspicion the job degrades to host ring all-reduce at a chunk
// boundary (no tensor is ever half-aggregated by two fabrics), probes
// the switch while degraded, and fails back after Probation
// consecutive answers.
type HealthParams struct {
	// SuspectAfter is how long the switch path may stay completely
	// silent before the job degrades; zero selects 8×RTO. It doubles
	// as hysteresis: a switch that answers even occasionally never
	// trips it.
	SuspectAfter time.Duration
	// ProbeEvery is the probe period while degraded; zero selects
	// SuspectAfter/4.
	ProbeEvery time.Duration
	// Probation is the number of consecutive answered probes required
	// before failing back; zero selects 3, negative pins the job in
	// degraded mode forever (the pure host-all-reduce baseline).
	Probation int
	// BurstBytes segments the degraded-mode ring transfers; zero
	// selects 64 KiB.
	BurstBytes int
}

func (h *HealthParams) rack() *rack.HealthConfig {
	if h == nil {
		return nil
	}
	return &rack.HealthConfig{
		SuspectAfter: netsim.Time(h.SuspectAfter),
		ProbeEvery:   netsim.Time(h.ProbeEvery),
		Probation:    h.Probation,
		BurstBytes:   h.BurstBytes,
	}
}

// FaultInjection seeds a deterministic per-datagram fault process for
// the UDP deployment: loopback networks never drop, duplicate or
// corrupt, so chaos tests inject those faults at the sockets instead.
type FaultInjection struct {
	// Seed drives the injector's private random stream.
	Seed int64
	// DropRate is the per-datagram drop probability.
	DropRate float64
	// Burst, when non-nil, replaces DropRate with a Gilbert–Elliott
	// burst process.
	Burst *BurstLossParams
	// DupRate is the per-datagram duplication probability.
	DupRate float64
	// CorruptRate is the per-datagram corruption probability;
	// corrupted datagrams are caught by the packet checksum and
	// dropped by the receiver.
	CorruptRate float64
}

func (f *FaultInjection) internal() *faults.InjectorConfig {
	if f == nil {
		return nil
	}
	cfg := &faults.InjectorConfig{
		Seed:        f.Seed,
		DropRate:    f.DropRate,
		DupRate:     f.DupRate,
		CorruptRate: f.CorruptRate,
	}
	if f.Burst != nil {
		ge := f.Burst.internal()
		cfg.Burst = &ge
	}
	return cfg
}
