// Command switchml-top is a live cluster monitor for SwitchML
// deployments: it polls the debug endpoints of an aggregator and its
// workers and renders per-worker rates, RTT estimator state, health
// mode, loss/retransmit columns, shard balance, and threshold anomaly
// flags (loss spike, shard imbalance, probation flapping).
//
// Usage:
//
//	switchml-top -agg http://host:6060 \
//	    -workers http://w0:6061,http://w1:6062 [-interval 1s]
//	    [-once] [-json] [-loss-warn 0.05] [-imbalance-warn 2.0]
//
// Without -once it refreshes a full-screen view every interval, like
// top(1). With -once it takes two polls a quarter-interval apart (so
// rates have a baseline) and prints the second view — add -json for a
// machine-readable document, the scripting mode CI smoke tests use.
//
// -selftest boots an in-process aggregator and two workers with debug
// listeners, drives a few collectives, polls itself, and validates
// the JSON document — a zero-dependency health check of the whole
// observability plane.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"switchml"
	"switchml/internal/top"
)

func main() {
	agg := flag.String("agg", "", "aggregator debug base URL (e.g. http://host:6060)")
	workersFlag := flag.String("workers", "", "comma-separated worker debug base URLs")
	interval := flag.Duration("interval", time.Second, "poll interval")
	once := flag.Bool("once", false, "poll twice, print one view, exit")
	jsonOut := flag.Bool("json", false, "print the view as JSON (with -once)")
	lossWarn := flag.Float64("loss-warn", 0.05, "loss-rate anomaly threshold")
	imbalWarn := flag.Float64("imbalance-warn", 2.0, "shard max/mean anomaly threshold")
	timeout := flag.Duration("timeout", 2*time.Second, "per-request HTTP timeout")
	selftest := flag.Bool("selftest", false,
		"boot an in-process cluster, poll it, validate the JSON view, exit")
	flag.Parse()

	if *selftest {
		if err := runSelftest(*jsonOut); err != nil {
			log.Fatalf("selftest: %v", err)
		}
		return
	}

	var workers []string
	for _, w := range strings.Split(*workersFlag, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workers = append(workers, w)
		}
	}
	if *agg == "" && len(workers) == 0 {
		log.Fatal("nothing to poll: set -agg and/or -workers (or -selftest)")
	}
	p := top.NewPoller(top.Config{
		Agg:           *agg,
		Workers:       workers,
		Timeout:       *timeout,
		LossRateWarn:  *lossWarn,
		ImbalanceWarn: *imbalWarn,
	})

	if *once {
		if _, err := p.Poll(); err != nil {
			log.Fatal(err)
		}
		time.Sleep(*interval / 4)
		v, err := p.Poll()
		if err != nil {
			log.Fatal(err)
		}
		emit(v, *jsonOut)
		return
	}
	for {
		v, err := p.Poll()
		if err != nil {
			log.Fatal(err)
		}
		// Clear the screen and repaint, top(1)-style.
		fmt.Print("\033[2J\033[H")
		top.Render(os.Stdout, v)
		time.Sleep(*interval)
	}
}

func emit(v *top.ClusterView, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			log.Fatal(err)
		}
		return
	}
	top.Render(os.Stdout, v)
}

// runSelftest stands up a real aggregator and two workers over
// loopback UDP, runs collectives while polling the debug endpoints,
// and validates the resulting view.
func runSelftest(asJSON bool) error {
	const n = 2
	agg, err := switchml.ListenAggregator("127.0.0.1:0", switchml.AggregatorParams{
		Workers: n, PoolSize: 16,
	})
	if err != nil {
		return err
	}
	defer agg.Close()
	aggDebug, err := agg.ServeDebug("127.0.0.1:0")
	if err != nil {
		return err
	}

	peers := make([]*switchml.Peer, n)
	workerURLs := make([]string, n)
	for i := 0; i < n; i++ {
		p, err := switchml.DialAggregator(agg.Addr(), switchml.PeerParams{
			ID: i, Workers: n,
			RTO: 50 * time.Millisecond, Timeout: 10 * time.Second,
			AdaptiveRTO: true,
		})
		if err != nil {
			return err
		}
		defer p.Close()
		peers[i] = p
		if workerURLs[i], err = p.ServeDebug("127.0.0.1:0"); err != nil {
			return err
		}
	}

	poller := top.NewPoller(top.Config{
		Agg:     "http://" + aggDebug,
		Workers: prefix(workerURLs),
	})
	if _, err := poller.Poll(); err != nil {
		return err
	}

	// Drive a few collectives so the second poll sees traffic.
	tensor := make([]int32, 1<<14)
	for i := range tensor {
		tensor[i] = int32(i % 17)
	}
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		errs := make([]error, n)
		for i, p := range peers {
			wg.Add(1)
			go func(i int, p *switchml.Peer) {
				defer wg.Done()
				out, err := p.AllReduceInt32(tensor)
				if err == nil && out[1] != int32(n) {
					err = fmt.Errorf("bad aggregate %d", out[1])
				}
				errs[i] = err
			}(i, p)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}

	v, err := poller.Poll()
	if err != nil {
		return err
	}
	// Validate the headline columns the smoke test depends on.
	if v.Agg == nil || v.Agg.RxRate <= 0 || v.Agg.TxRate <= 0 {
		return fmt.Errorf("aggregator rates missing: %+v", v.Agg)
	}
	if v.Agg.Shards <= 0 {
		return fmt.Errorf("shard count missing: %+v", v.Agg)
	}
	if v.Agg.Members != n || v.Agg.DrainingCount != 0 || v.Agg.DepartedCount != 0 {
		return fmt.Errorf("membership roll call wrong: %+v", v.Agg)
	}
	if len(v.Workers) != n {
		return fmt.Errorf("got %d worker rows, want %d", len(v.Workers), n)
	}
	for _, w := range v.Workers {
		if w.State != "SWITCH" {
			return fmt.Errorf("worker %d health state %q, want SWITCH", w.Worker, w.State)
		}
		if w.TxRate <= 0 {
			return fmt.Errorf("worker %d reports no send rate", w.Worker)
		}
		if w.RTOMs <= 0 {
			return fmt.Errorf("worker %d reports no RTO", w.Worker)
		}
		// Loopback loses nothing: an early retransmission here means
		// lap detection fired without a loss.
		if w.EarlyRetransmissions != 0 {
			return fmt.Errorf("worker %d: %d early retransmissions on a lossless run", w.Worker, w.EarlyRetransmissions)
		}
		if w.PoolSize != 16 {
			return fmt.Errorf("worker %d reports a pool of %d slots, want the aggregator's 16", w.Worker, w.PoolSize)
		}
	}
	// A 16-slot window cannot overrun a socket buffer.
	for _, f := range v.Flags {
		if strings.HasPrefix(f, "overrun") {
			return fmt.Errorf("anomaly flag %q on a healthy run", f)
		}
	}
	if v.Agg.PoolSize != 16 || v.Agg.RcvbufNeedBytes <= 0 {
		return fmt.Errorf("aggregator reports pool %d and a receive-buffer need of %d bytes", v.Agg.PoolSize, v.Agg.RcvbufNeedBytes)
	}
	// The view must round-trip as JSON for -json scripting.
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var rt top.ClusterView
	if err := json.Unmarshal(data, &rt); err != nil {
		return err
	}
	var doc struct {
		Workers []map[string]json.RawMessage `json:"workers"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	for i, w := range doc.Workers {
		for _, key := range []string{"loss_rate", "retransmissions", "early_retransmissions", "probe_retransmissions", "pto_ms", "pool_size", "udp_rcvbuf_drops"} {
			if _, ok := w[key]; !ok {
				return fmt.Errorf("worker row %d lacks the %q column", i, key)
			}
		}
	}
	emit(v, asJSON)
	fmt.Fprintln(os.Stderr, "selftest ok")
	return nil
}

func prefix(addrs []string) []string {
	out := make([]string, len(addrs))
	for i, a := range addrs {
		out[i] = "http://" + a
	}
	return out
}
