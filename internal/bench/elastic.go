package bench

import (
	"encoding/json"
	"fmt"

	"switchml/internal/core"
	"switchml/internal/faults"
	"switchml/internal/netsim"
	"switchml/internal/rack"
)

// ElasticReport is the machine-readable BENCH_elastic.json schema: the
// cost of elastic membership. The churn section measures the
// disruption window of a graceful join and a graceful drain — the
// extra time the fence-commit step takes over the surrounding steady
// state — and the quorum section measures what straggler mitigation
// buys: the non-straggler members' aggregation rate with 1–2 slow
// workers, at full participation versus an N-of-M quorum.
type ElasticReport struct {
	Schema      string  `json:"schema"`
	Workers     int     `json:"workers"`
	LinkGbps    float64 `json:"link_gbps"`
	TensorElems int     `json:"tensor_elems"`
	// SteadyStepNs is the pre-churn steady-state step time.
	SteadyStepNs int64 `json:"steady_step_ns"`
	// JoinCommitStepNs is the step in which the joiner's fence
	// committed; JoinDisruptionNs its overhead versus the post-join
	// steady state (PostJoinStepNs).
	JoinCommitStepNs int64 `json:"join_commit_step_ns"`
	PostJoinStepNs   int64 `json:"post_join_step_ns"`
	JoinDisruptionNs int64 `json:"join_disruption_ns"`
	// DrainCommitStepNs / PostDrainStepNs / DrainDisruptionNs are the
	// same window for the graceful leave.
	DrainCommitStepNs int64 `json:"drain_commit_step_ns"`
	PostDrainStepNs   int64 `json:"post_drain_step_ns"`
	DrainDisruptionNs int64 `json:"drain_disruption_ns"`
	// Quorum rows compare member-visible TAT with stragglers present.
	Quorum []ElasticQuorumRow `json:"quorum"`
	// Counters is the churn run's protocol-counter dump.
	Counters map[string]uint64 `json:"counters"`
}

// ElasticQuorumRow is one straggler-mitigation measurement.
type ElasticQuorumRow struct {
	// Stragglers is how many of the workers run at StragglerGbps.
	Stragglers int `json:"stragglers"`
	// Quorum is the N of N-of-M (0 = full participation).
	Quorum int `json:"quorum"`
	// MemberTATNs is the slowest NON-straggler member's tensor
	// aggregation time — what quorum protects. TATNs includes the
	// stragglers (they still finish, via late/gone handling).
	MemberTATNs int64 `json:"member_tat_ns"`
	TATNs       int64 `json:"tat_ns"`
	// MemberATEPerSec is elems/s from the members' point of view.
	MemberATEPerSec float64 `json:"member_ate_per_sec"`
	// QuorumCompletions counts slots that completed at the quorum
	// threshold rather than full participation.
	QuorumCompletions uint64 `json:"quorum_completions"`
}

// RunElastic measures elastic membership: the join and drain
// disruption windows (a 4-worker job admits a 5th, then drains one)
// and the quorum throughput recovery with 1–2 stragglers on an
// 8-worker job.
func RunElastic(o Options) (*Table, error) {
	o.fill()
	elems := o.mb100() / 5

	// --- Churn: steady state, admit worker 4 at step 3, drain worker
	// 1 at step 6, steady again. Scripted actions fire during their
	// step and commit at the next step boundary.
	churn, err := rack.NewRack(rack.Config{
		Workers:        5,
		LinkBitsPerSec: 10e9,
		LossRecovery:   true,
		RTO:            100 * netsim.Microsecond,
		Seed:           o.Seed,
		Tracer:         o.Tracer,
		Detached:       []int{4},
		Faults: &faults.Scenario{Actions: []faults.Action{
			{Kind: faults.JoinWorker, Worker: 4, Step: 3},
			{Kind: faults.LeaveWorker, Worker: 1, Step: 6},
		}},
	})
	if err != nil {
		return nil, err
	}
	tensor := make([]int32, elems)
	for j := range tensor {
		tensor[j] = int32(j % 13)
	}
	const steps = 9
	stepTAT := make([]netsim.Time, steps+1)
	for step := 1; step <= steps; step++ {
		res, err := churn.AllReduceShared(tensor)
		if err != nil {
			return nil, fmt.Errorf("elastic: churn step %d: %w", step, err)
		}
		if len(res.Failed) != 0 {
			return nil, fmt.Errorf("elastic: churn step %d declared failures %v (graceful churn must not trip liveness)", step, res.Failed)
		}
		stepTAT[step] = res.TAT
	}
	counters := churn.Counters()
	// Join fires in step 3 and commits at the step-4 boundary; the
	// leave fires in step 6 and commits at the step-7 boundary.
	steady, joinCommit, postJoin := stepTAT[2], stepTAT[4], stepTAT[5]
	drainCommit, postDrain := stepTAT[7], stepTAT[8]

	// --- Quorum: 8 workers, stragglers at 25% line rate. Full
	// participation self-clocks everyone down to the straggler; an
	// N-of-M quorum completes slots without it, so the members' TAT
	// recovers to near full rate while the straggler catches up on
	// late/gone replies.
	const (
		qWorkers       = 8
		stragglerFrac  = 0.25
		stragglerFirst = 3
	)
	var rows []ElasticQuorumRow
	for _, tc := range []struct{ stragglers, quorum int }{
		{0, 0}, {1, 0}, {1, qWorkers - 1}, {2, qWorkers - 2},
	} {
		cfg := rack.Config{
			Workers: qWorkers, LossRecovery: true, Seed: o.Seed, Tracer: o.Tracer,
			Quorum:     tc.quorum,
			LatePolicy: core.LateDrop,
			// The RTO must sit above the straggler-stretched RTT (§6).
			RTO: netsim.Time(float64(10*netsim.Millisecond) / stragglerFrac),
		}
		straggler := make(map[int]bool, tc.stragglers)
		if tc.stragglers > 0 {
			rates := make([]float64, qWorkers)
			for i := 0; i < tc.stragglers; i++ {
				rates[stragglerFirst+i] = 10e9 * stragglerFrac
				straggler[stragglerFirst+i] = true
			}
			cfg.WorkerLinkBitsPerSec = rates
		}
		r, err := rack.NewRack(cfg)
		if err != nil {
			return nil, err
		}
		res, err := r.AllReduceShared(tensor)
		if err != nil {
			return nil, fmt.Errorf("elastic: quorum run (%d stragglers, quorum %d): %w",
				tc.stragglers, tc.quorum, err)
		}
		var memberTAT netsim.Time
		for w, done := range res.Done {
			if straggler[w] || done == 0 {
				continue
			}
			if d := done - res.Start; d > memberTAT {
				memberTAT = d
			}
		}
		rows = append(rows, ElasticQuorumRow{
			Stragglers:        tc.stragglers,
			Quorum:            tc.quorum,
			MemberTATNs:       int64(memberTAT),
			TATNs:             int64(res.TAT),
			MemberATEPerSec:   float64(elems) / (float64(memberTAT) / 1e9),
			QuorumCompletions: r.Switch().Stats().QuorumCompletions,
		})
	}

	report := &ElasticReport{
		Schema:            "switchml-elastic-v1",
		Workers:           5,
		LinkGbps:          10,
		TensorElems:       elems,
		SteadyStepNs:      int64(steady),
		JoinCommitStepNs:  int64(joinCommit),
		PostJoinStepNs:    int64(postJoin),
		JoinDisruptionNs:  int64(joinCommit - postJoin),
		DrainCommitStepNs: int64(drainCommit),
		PostDrainStepNs:   int64(postDrain),
		DrainDisruptionNs: int64(drainCommit - postDrain),
		Quorum:            rows,
		Counters:          counters,
	}
	artifact, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:       "elastic",
		Title:    fmt.Sprintf("Elastic membership: churn disruption and quorum straggler mitigation (%d elems)", elems),
		Header:   []string{"measurement", "value", "vs steady/full"},
		Counters: counters,
		Artifact: artifact,
		Rows: [][]string{
			{"steady step (4 members)", fmt.Sprint(steady.Duration()), "1.00x"},
			{"join-commit step", fmt.Sprint(joinCommit.Duration()),
				fmt.Sprintf("%+v window", (joinCommit - postJoin).Duration())},
			{"drain-commit step", fmt.Sprint(drainCommit.Duration()),
				fmt.Sprintf("%+v window", (drainCommit - postDrain).Duration())},
		},
	}
	full := rows[1] // 1 straggler, full participation
	for _, row := range rows {
		label := fmt.Sprintf("%d straggler(s), full participation", row.Stragglers)
		if row.Quorum > 0 {
			label = fmt.Sprintf("%d straggler(s), quorum %d-of-%d", row.Stragglers, row.Quorum, qWorkers)
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("member TAT %v", netsim.Time(row.MemberTATNs).Duration()),
			fmt.Sprintf("%.2fx member ATE vs 1-straggler full", row.MemberATEPerSec/full.MemberATEPerSec),
		})
	}
	t.Notes = append(t.Notes,
		"join/drain windows are the fence-commit step's overhead over the adjacent steady state;",
		"graceful churn never trips the failure detector (asserted per step)",
		"quorum rows: member TAT excludes the stragglers, which finish late via late/gone handling")
	return t, nil
}
