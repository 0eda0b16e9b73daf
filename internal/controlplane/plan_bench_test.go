package controlplane

import (
	"testing"

	"p4update/internal/topo"
)

// planSink keeps the benchmarked plans live.
var planSink *Plan

// BenchmarkPreparePlan is P4Update's preparation as Fig. 8 times it, on
// the path pairs of every ordered node pair of a frozen B4: shortest to
// second-shortest by latency and back. One op prepares one plan;
// ezsegway's BenchmarkPreparePlan prepares the same pairs.
func BenchmarkPreparePlan(b *testing.B) {
	g := topo.B4()
	g.Freeze()
	var pairs [][2][]topo.NodeID
	for _, s := range g.Nodes() {
		for _, d := range g.Nodes() {
			if p := g.KShortestPaths(s, d, 2, topo.ByLatency); len(p) == 2 {
				pairs = append(pairs, [2][]topo.NodeID{p[0], p[1]}, [2][]topo.NodeID{p[1], p[0]})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := pairs[i%len(pairs)]
		var err error
		if planSink, err = PreparePlan(g, 1, pr[0], pr[1], 2, 1000, nil); err != nil {
			b.Fatal(err)
		}
	}
}
