// Package top polls the debug endpoints of a SwitchML aggregator and
// its workers and assembles a live cluster view: per-worker send and
// receive rates, RTT estimator state, health mode, loss and
// retransmission columns, shard balance on the aggregator, and
// threshold anomaly flags (loss spike, shard imbalance, probation
// flapping, receive-buffer overrun, pool-size mismatch).
// cmd/switchml-top renders it as a terminal dashboard or a JSON
// document for scripting.
package top

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"switchml/internal/transport"
)

// Config names the endpoints to poll and tunes the anomaly thresholds.
type Config struct {
	// Agg is the aggregator's debug base URL
	// (e.g. "http://127.0.0.1:6060"); empty skips the aggregator row.
	Agg string
	// Workers are the workers' debug base URLs.
	Workers []string
	// Timeout bounds each HTTP request (default 2 s).
	Timeout time.Duration
	// LossRateWarn flags a worker whose retransmitted fraction of sent
	// chunks over the poll interval exceeds it (default 0.05).
	LossRateWarn float64
	// ImbalanceWarn flags the aggregator when the max/mean ratio of
	// per-shard datagram rates exceeds it (default 2.0).
	ImbalanceWarn float64
	// FlapWarn flags a worker with at least this many health-state
	// transitions (degrades plus failbacks) within the last FlapWindow
	// polls (default 3 within 20).
	FlapWarn   int
	FlapWindow int
}

func (c *Config) fill() {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.LossRateWarn <= 0 {
		c.LossRateWarn = 0.05
	}
	if c.ImbalanceWarn <= 0 {
		c.ImbalanceWarn = 2.0
	}
	if c.FlapWarn <= 0 {
		c.FlapWarn = 3
	}
	if c.FlapWindow <= 0 {
		c.FlapWindow = 20
	}
}

// AggView is the aggregator's row of the cluster view.
type AggView struct {
	Addr  string `json:"addr"`
	Epoch uint16 `json:"epoch"`
	Down  bool   `json:"down"`
	// RxRate/TxRate are datagrams per second over the poll interval
	// (zero on the first poll).
	RxRate float64 `json:"rx_rate"`
	TxRate float64 `json:"tx_rate"`
	Shards int     `json:"shards"`
	// ShardImbalance is max/mean of the per-shard datagram rates; 1.0
	// is perfectly balanced, 0 when no shard moved.
	ShardImbalance float64 `json:"shard_imbalance"`
	// Occupancy is the slot pool's busy fraction.
	Occupancy   float64 `json:"occupancy"`
	Completions uint64  `json:"completions"`
	// Adoptions counts warm-standby adoption roll calls this
	// aggregator has committed — non-zero marks a standby that took
	// over a job whose primary went silent.
	Adoptions  uint64 `json:"adoptions"`
	AliveCount int    `json:"alive"`
	Workers    int    `json:"workers"`
	// Membership is the elastic-membership roll call: each worker's
	// status ("member", "draining" or "departed"), with the counts
	// summarised in Members/DrainingCount/DepartedCount.
	Membership    []string `json:"membership,omitempty"`
	Members       int      `json:"members"`
	DrainingCount int      `json:"draining"`
	DepartedCount int      `json:"departed"`
	// QuorumCompletions counts slots completed at the quorum
	// threshold rather than full participation (0 when quorum is
	// off); LateDropped/LateReconciled the fate of the stragglers'
	// late updates.
	QuorumCompletions uint64 `json:"quorum_completions"`
	LateDropped       uint64 `json:"late_dropped"`
	LateReconciled    uint64 `json:"late_reconciled"`
	// Batch and NetMode describe the shard loops' I/O strategy
	// (recvmmsg/sendmmsg burst ceiling and the selected mode);
	// SendErrors is the cumulative udp_send_errors counter — datagrams
	// the kernel refused that would previously vanish silently.
	Batch      int    `json:"batch"`
	NetMode    string `json:"net_mode,omitempty"`
	SendErrors uint64 `json:"udp_send_errors"`
	// PoolSize is s. RcvbufDrops is the cumulative count of datagrams
	// (whole trains, with segmentation offload) the kernel dropped at a
	// shard socket's full receive buffer; RcvbufBytes the buffer it
	// granted and RcvbufNeedBytes what every worker's window in flight
	// can occupy. Drops during a poll interval raise the overrun flag.
	// BeyondPool counts updates for slots the pool does not have, which
	// the workers' dial hello keeps at 0.
	PoolSize        int    `json:"pool_size"`
	RcvbufDrops     uint64 `json:"udp_rcvbuf_drops"`
	RcvbufBytes     int    `json:"rcvbuf_bytes"`
	RcvbufNeedBytes int    `json:"rcvbuf_need_bytes"`
	BeyondPool      uint64 `json:"updates_beyond_pool"`
	// NewRcvbufDrops is the drop counter's growth over the poll
	// interval, what the overrun flag fires on.
	NewRcvbufDrops uint64 `json:"udp_rcvbuf_drops_new"`
}

// WorkerView is one worker's row of the cluster view.
type WorkerView struct {
	Addr   string `json:"addr"`
	Worker int    `json:"worker"`
	// State is "SWITCH", "STANDBY" (homed on a warm-standby rung of
	// the failover ladder) or "DEGRADED" (on the host mesh).
	State string `json:"state"`
	// HomeRank is the failover-ladder rung serving the job: 0 the
	// primary aggregator, higher ranks the configured standbys.
	HomeRank int `json:"home_rank"`
	// Rehomes counts re-homings between ladder rungs (descents and
	// fail-up climbs alike).
	Rehomes uint64  `json:"rehomes"`
	Epoch   uint16  `json:"epoch"`
	SRTTMs  float64 `json:"srtt_ms"`
	RTOMs   float64 `json:"rto_ms"`
	// PTOMs is the probe timeout of overtake and tail-probe recovery:
	// 0 before the first round-trip sample, equal to RTOMs when the
	// path is too slow to probe ahead of the timer.
	PTOMs float64 `json:"pto_ms"`
	// FrontierOff is the contiguous-progress stream offset;
	// PendingChunks the in-flight count at the last safe publication.
	FrontierOff   int64   `json:"frontier_off"`
	PendingChunks int64   `json:"pending_chunks"`
	RxRate        float64 `json:"rx_rate"`
	TxRate        float64 `json:"tx_rate"`
	// LossRate is retransmitted/sent chunks over the poll interval.
	LossRate        float64 `json:"loss_rate"`
	Retransmissions uint64  `json:"retransmissions"`
	Degrades        uint64  `json:"degrades"`
	Failbacks       uint64  `json:"failbacks"`
	// EarlyRetransmissions is the share of Retransmissions triggered
	// by lap detection rather than an RTO expiry: close to the total
	// when recovery rides the ack clock, zero when it waits for timers.
	// ProbeRetransmissions is the share triggered a probe timeout after
	// the loss, by the overtake and tail-probe rules: what repairs the
	// drained tail of a tensor. The rest waited for the RTO — the
	// table's timer/lap/probe column shows all three.
	EarlyRetransmissions uint64 `json:"early_retransmissions"`
	ProbeRetransmissions uint64 `json:"probe_retransmissions"`
	// SendErrors is the worker's cumulative udp_send_errors counter.
	SendErrors uint64 `json:"udp_send_errors"`
	// PoolSize is the window this worker keeps in flight; RcvbufDrops
	// the cumulative count of result datagrams dropped at its socket's
	// full receive buffer and NewRcvbufDrops its growth over the poll
	// interval (the overrun flag's worker half).
	PoolSize       int    `json:"pool_size"`
	RcvbufDrops    uint64 `json:"udp_rcvbuf_drops"`
	NewRcvbufDrops uint64 `json:"udp_rcvbuf_drops_new"`
}

// ClusterView is one poll's assembled cluster state.
type ClusterView struct {
	At time.Time `json:"at"`
	// IntervalSec is the rate base: seconds since the previous poll
	// (zero on the first, whose rates are all zero).
	IntervalSec float64      `json:"interval_sec"`
	Agg         *AggView     `json:"agg,omitempty"`
	Workers     []WorkerView `json:"workers"`
	// Flags are the anomaly verdicts tripped this poll.
	Flags []string `json:"flags,omitempty"`
	// Errors lists endpoints that failed to answer.
	Errors []string `json:"errors,omitempty"`
}

// Poller polls the cluster and remembers the previous poll so rates
// and flap detection have a baseline. Not safe for concurrent use.
type Poller struct {
	cfg    Config
	client *http.Client
	// now is the clock, swappable in tests.
	now func() time.Time

	prevAt      time.Time
	prevAgg     *transport.AggDebugState
	prevWorkers map[string]*transport.ClientDebugState
	// flaps holds each worker URL's recent per-poll health-transition
	// deltas, newest last, at most FlapWindow entries.
	flaps map[string][]uint64
}

// NewPoller builds a poller over cfg.
func NewPoller(cfg Config) *Poller {
	cfg.fill()
	return &Poller{
		cfg:         cfg,
		client:      &http.Client{Timeout: cfg.Timeout},
		now:         time.Now,
		prevWorkers: make(map[string]*transport.ClientDebugState),
		flaps:       make(map[string][]uint64),
	}
}

// fetch GETs url/debug/state into v.
func (p *Poller) fetch(base string, v any) error {
	resp, err := p.client.Get(strings.TrimRight(base, "/") + "/debug/state")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", base, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Poll fetches every endpoint once and assembles the view. Endpoints
// that fail to answer are reported in ClusterView.Errors; the error
// return is non-nil only when nothing answered.
func (p *Poller) Poll() (*ClusterView, error) {
	at := p.now()
	v := &ClusterView{At: at}
	if !p.prevAt.IsZero() {
		v.IntervalSec = at.Sub(p.prevAt).Seconds()
	}
	rate := func(cur, prev uint64) float64 {
		if v.IntervalSec <= 0 || cur < prev {
			return 0
		}
		return float64(cur-prev) / v.IntervalSec
	}

	answered := 0
	var agg *transport.AggDebugState
	if p.cfg.Agg != "" {
		var st transport.AggDebugState
		if err := p.fetch(p.cfg.Agg, &st); err != nil {
			v.Errors = append(v.Errors, fmt.Sprintf("agg %s: %v", p.cfg.Agg, err))
		} else {
			answered++
			agg = &st
			av := &AggView{
				Addr:              p.cfg.Agg,
				Epoch:             st.Epoch,
				Down:              st.Down,
				Shards:            st.Shards,
				Occupancy:         st.Pool.Occupancy,
				Completions:       st.Switch.Completions,
				Adoptions:         st.Adoptions,
				Workers:           len(st.Alive),
				Membership:        st.Membership,
				QuorumCompletions: st.Switch.QuorumCompletions,
				LateDropped:       st.Switch.LateDropped,
				LateReconciled:    st.Switch.LateReconciled,
				Batch:             st.Batch,
				NetMode:           st.NetMode,
				SendErrors:        st.SendErrors,
				PoolSize:          st.Pool.PoolSize,
				RcvbufDrops:       st.RcvbufDrops,
				RcvbufBytes:       st.RcvbufBytes,
				RcvbufNeedBytes:   st.RcvbufNeedBytes,
				BeyondPool:        st.BeyondPool,
			}
			for _, alive := range st.Alive {
				if alive {
					av.AliveCount++
				}
			}
			for _, m := range st.Membership {
				switch m {
				case "draining":
					av.DrainingCount++
				case "departed":
					av.DepartedCount++
				default:
					av.Members++
				}
			}
			if p.prevAgg != nil {
				av.RxRate = rate(st.Received, p.prevAgg.Received)
				av.TxRate = rate(st.Sent, p.prevAgg.Sent)
				av.ShardImbalance = shardImbalance(st.ShardDatagrams, p.prevAgg.ShardDatagrams)
				av.NewRcvbufDrops = delta(st.RcvbufDrops, p.prevAgg.RcvbufDrops)
			}
			v.Agg = av
		}
	}

	for _, url := range p.cfg.Workers {
		var st transport.ClientDebugState
		if err := p.fetch(url, &st); err != nil {
			v.Errors = append(v.Errors, fmt.Sprintf("worker %s: %v", url, err))
			continue
		}
		answered++
		wv := WorkerView{
			Addr:            url,
			Worker:          st.Worker,
			State:           "SWITCH",
			Epoch:           st.Epoch,
			HomeRank:        st.HomeRank,
			Rehomes:         st.Failover.Rehomes,
			SRTTMs:          float64(st.SRTTNs) / 1e6,
			RTOMs:           float64(st.RTONs) / 1e6,
			PTOMs:           float64(st.PTONs) / 1e6,
			FrontierOff:     st.FrontierOff,
			PendingChunks:   st.PendingChunks,
			Retransmissions: st.Stats.Retransmissions,
			Degrades:        st.Fallback.Degrades,
			Failbacks:       st.Fallback.Failbacks,
			SendErrors:      st.SendErrors,
			PoolSize:        st.PoolSize,
			RcvbufDrops:     st.RcvbufDrops,
			// Of Retransmissions, how many did not wait for the timer.
			EarlyRetransmissions: st.Stats.EarlyRetransmissions,
			ProbeRetransmissions: st.Stats.ProbeRetransmissions,
		}
		if st.Degraded {
			wv.State = "DEGRADED"
		} else if st.HomeRank > 0 {
			wv.State = "STANDBY"
		}
		var flapDelta uint64
		if prev, ok := p.prevWorkers[url]; ok {
			wv.RxRate = rate(st.Received, prev.Received)
			wv.TxRate = rate(st.Sent, prev.Sent)
			wv.NewRcvbufDrops = delta(st.RcvbufDrops, prev.RcvbufDrops)
			sent := st.Stats.Sent - prev.Stats.Sent
			retx := st.Stats.Retransmissions - prev.Stats.Retransmissions
			if sent > 0 && st.Stats.Sent >= prev.Stats.Sent {
				wv.LossRate = float64(retx) / float64(sent)
			}
			flapDelta = (st.Fallback.Degrades - prev.Fallback.Degrades) +
				(st.Fallback.Failbacks - prev.Fallback.Failbacks)
		}
		stCopy := st
		p.prevWorkers[url] = &stCopy
		hist := append(p.flaps[url], flapDelta)
		if len(hist) > p.cfg.FlapWindow {
			hist = hist[len(hist)-p.cfg.FlapWindow:]
		}
		p.flaps[url] = hist
		v.Workers = append(v.Workers, wv)
	}

	p.flag(v)
	p.prevAgg, p.prevAt = agg, at
	if answered == 0 && (p.cfg.Agg != "" || len(p.cfg.Workers) > 0) {
		return v, fmt.Errorf("top: no endpoint answered: %s", strings.Join(v.Errors, "; "))
	}
	return v, nil
}

// delta is a cumulative counter's growth since the previous poll, 0
// across a restart.
func delta(cur, prev uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}

// shardImbalance is max/mean of the per-shard datagram deltas; 0 when
// nothing moved or the shard count changed.
func shardImbalance(cur, prev []uint64) float64 {
	if len(cur) == 0 || len(cur) != len(prev) {
		return 0
	}
	var sum, max uint64
	for i := range cur {
		d := cur[i] - prev[i]
		if cur[i] < prev[i] {
			return 0
		}
		sum += d
		if d > max {
			max = d
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(cur))
	return float64(max) / mean
}

// flag applies the anomaly thresholds to the assembled view.
func (p *Poller) flag(v *ClusterView) {
	for _, w := range v.Workers {
		if w.LossRate > p.cfg.LossRateWarn {
			v.Flags = append(v.Flags,
				fmt.Sprintf("loss-spike(w%d %.1f%%)", w.Worker, w.LossRate*100))
		}
	}
	if v.Agg != nil && v.Agg.ShardImbalance > p.cfg.ImbalanceWarn {
		v.Flags = append(v.Flags,
			fmt.Sprintf("shard-imbalance(%.2fx)", v.Agg.ShardImbalance))
	}
	// Any drop at a full receive buffer is an anomaly: the window is
	// sized to fit, so either the host granted less than was asked
	// (rmem_max) or the pool was configured past what it can carry.
	if a := v.Agg; a != nil && a.NewRcvbufDrops > 0 {
		v.Flags = append(v.Flags,
			fmt.Sprintf("overrun(agg %d drops, rcvbuf %d of %d needed)", a.NewRcvbufDrops, a.RcvbufBytes, a.RcvbufNeedBytes))
	}
	for _, w := range v.Workers {
		if w.NewRcvbufDrops > 0 {
			v.Flags = append(v.Flags, fmt.Sprintf("overrun(w%d %d drops)", w.Worker, w.NewRcvbufDrops))
		}
	}
	for _, w := range v.Workers {
		var transitions uint64
		for _, d := range p.flaps[w.Addr] {
			transitions += d
		}
		if transitions >= uint64(p.cfg.FlapWarn) {
			v.Flags = append(v.Flags,
				fmt.Sprintf("probation-flap(w%d %d transitions)", w.Worker, transitions))
		}
	}
	sort.Strings(v.Flags)
}

// Render writes the view as a fixed-width terminal table.
func Render(w io.Writer, v *ClusterView) {
	fmt.Fprintf(w, "switchml cluster  %s  interval %.1fs\n",
		v.At.Format("15:04:05"), v.IntervalSec)
	if v.Agg != nil {
		a := v.Agg
		up := "up"
		if a.Down {
			up = "DOWN"
		}
		io := ""
		if a.NetMode != "" {
			io = fmt.Sprintf(" io %s/%d", a.NetMode, a.Batch)
		}
		adopt := ""
		if a.Adoptions > 0 {
			adopt = fmt.Sprintf(" adoptions %d", a.Adoptions)
		}
		fmt.Fprintf(w,
			"agg %-24s %-4s epoch %-4d rx %8.0f/s tx %8.0f/s pool %d occ %4.0f%% shards %d (imbal %.2f) alive %d/%d serr %d rdrop %d%s%s\n",
			a.Addr, up, a.Epoch, a.RxRate, a.TxRate, a.PoolSize, a.Occupancy*100,
			a.Shards, a.ShardImbalance, a.AliveCount, a.Workers, a.SendErrors, a.RcvbufDrops, io, adopt)
		if a.DrainingCount > 0 || a.DepartedCount > 0 {
			// Elastic churn in progress: print the roll call.
			parts := make([]string, len(a.Membership))
			for i, m := range a.Membership {
				parts[i] = fmt.Sprintf("w%d=%s", i, m)
			}
			fmt.Fprintf(w, "membership %d member(s), %d draining, %d departed: %s\n",
				a.Members, a.DrainingCount, a.DepartedCount, strings.Join(parts, " "))
		}
		if a.QuorumCompletions > 0 {
			fmt.Fprintf(w, "quorum %d completion(s), %d late dropped, %d late reconciled\n",
				a.QuorumCompletions, a.LateDropped, a.LateReconciled)
		}
	}
	if len(v.Workers) > 0 {
		fmt.Fprintf(w, "%-3s %-9s %-4s %-5s %9s %9s %9s %10s %5s %10s %10s %6s %7s %16s %5s %5s %s\n",
			"wrk", "state", "home", "epoch", "srtt", "pto", "rto", "frontier", "pend",
			"rx/s", "tx/s", "loss", "retx", "timer/lap/probe", "serr", "rdrop", "deg/fb/rh")
		for _, wk := range v.Workers {
			// Which recovery the retransmissions came from, slowest first.
			by := fmt.Sprintf("%d/%d/%d", wk.Retransmissions-wk.EarlyRetransmissions-wk.ProbeRetransmissions,
				wk.EarlyRetransmissions, wk.ProbeRetransmissions)
			fmt.Fprintf(w, "%-3d %-9s %-4d %-5d %7.2fms %7.2fms %7.2fms %10d %5d %10.0f %10.0f %5.1f%% %7d %16s %5d %5d %d/%d/%d\n",
				wk.Worker, wk.State, wk.HomeRank, wk.Epoch, wk.SRTTMs, wk.PTOMs, wk.RTOMs,
				wk.FrontierOff, wk.PendingChunks, wk.RxRate, wk.TxRate,
				wk.LossRate*100, wk.Retransmissions, by, wk.SendErrors, wk.RcvbufDrops, wk.Degrades, wk.Failbacks, wk.Rehomes)
		}
	}
	for _, e := range v.Errors {
		fmt.Fprintf(w, "error: %s\n", e)
	}
	if len(v.Flags) > 0 {
		fmt.Fprintf(w, "flags: %s\n", strings.Join(v.Flags, " "))
	}
}
