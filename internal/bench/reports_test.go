package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedReports regenerates the §5.6 reports tracked at the
// repository root at switchml-bench's defaults (scale 10, seed 1) and
// requires each byte for byte, so a committed report cannot drift from
// the simulator that produced it. A change meant to move one refreshes
// it with
//
//	go run ./cmd/switchml-bench -artifacts . elastic failover fallback
func TestCommittedReports(t *testing.T) {
	for _, id := range []string{"elastic", "failover", "fallback"} {
		tb, err := Run(id, Options{Scale: 10, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		path := filepath.Join("..", "..", "BENCH_"+id+".json")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := append(tb.Artifact, '\n'); !bytes.Equal(got, want) {
			t.Errorf("%s no longer matches the regenerated report\n got %s\nwant %s", path, got, want)
		}
	}
}
