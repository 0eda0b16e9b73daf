package experiments

import (
	"testing"

	"p4update/internal/topo"
)

// BenchmarkFig7Grid runs two of Fig. 7's panels per op on one trial
// worker, every system × 30 runs each: the B4 single-flow figure and
// the B4 multi-flow one. An op pays what a paper-grid repetition pays
// per panel — the topology, the workloads, a plan cache and 180 wired,
// simulated trials apiece — so a change to per-trial bed cost shows here
// without the ledger's 24 s run.
func BenchmarkFig7Grid(b *testing.B) {
	opt := RunOptions{Workers: 1}
	b.ReportAllocs()
	trials := 0
	for i := 0; i < b.N; i++ {
		single, err := Fig7SingleFlowOpts(topo.B4, "B4", 30, 1, opt)
		if err != nil {
			b.Fatal(err)
		}
		multi, err := Fig7MultiFlowOpts(topo.B4, "B4", false, 30, 1, opt)
		if err != nil {
			b.Fatal(err)
		}
		trials += len(single.Trials) + len(multi.Trials)
	}
	b.ReportMetric(float64(trials)/b.Elapsed().Seconds(), "trials/s")
}
