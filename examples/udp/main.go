// UDP: run SwitchML over real sockets — the §6 "parameter
// aggregator" deployment model — entirely on localhost.
//
// A software aggregator (the switch state machine behind a UDP
// socket) serves three worker processes, here goroutines with their
// own sockets. The same binary pattern works across machines: run
// cmd/switchml-agg on one host and cmd/switchml-worker on each
// worker.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"switchml"
)

func main() {
	const (
		workers = 3
		dim     = 100_000
	)
	agg, err := switchml.ListenAggregator("127.0.0.1:0", switchml.AggregatorParams{
		Workers: workers, PoolSize: 16,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer agg.Close()
	fmt.Printf("software aggregator listening on %s\n", agg.Addr())

	scale, err := switchml.MaxSafeScale(workers, 100)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	var wg sync.WaitGroup
	results := make([][]float32, workers)
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			peer, err := switchml.DialAggregator(agg.Addr(), switchml.PeerParams{
				ID: i, Workers: workers, Scale: scale,
			})
			if err != nil {
				log.Fatalf("worker %d: %v", i, err)
			}
			defer peer.Close()
			grad := make([]float32, dim)
			for j := range grad {
				grad[j] = float32(i+1) + float32(j%10)*0.1
			}
			results[i], err = peer.AllReduceFloat32(grad)
			if err != nil {
				log.Fatalf("worker %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	want := float64(1+2+3) + 3*float64(0%10)*0.1
	fmt.Printf("aggregated %d floats across %d UDP workers in %v\n", dim, workers, elapsed.Round(time.Millisecond))
	fmt.Printf("aggregate[0] = %.2f (want %.2f)\n", results[0][0], want)
	fmt.Printf("throughput: %.1fM elements/s end to end over loopback UDP\n",
		float64(dim)/elapsed.Seconds()/1e6)
}
