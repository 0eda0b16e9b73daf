package topo

import "testing"

// BenchmarkKShortestPaths is Yen's algorithm as the workload generators
// call it: every ordered node pair of B4 and Internet2 with k=30 by
// latency (the Fig. 7 single-flow search), and every ordered pair of
// fat-tree K=8 edge switches with k=2 by hops (ManyFlowWorkload's old
// and new path, the burst and fault sweeps). One op is the whole sweep
// on a frozen topology.
func BenchmarkKShortestPaths(b *testing.B) {
	for _, bc := range []struct {
		name  string
		g     *Topology
		nodes func(*Topology) []NodeID
		k     int
		w     Weight
	}{
		{"b4-k30-latency", B4(), (*Topology).Nodes, 30, ByLatency},
		{"internet2-k30-latency", Internet2(), (*Topology).Nodes, 30, ByLatency},
		{"fattree8-edges-k2-hops", FatTree(8), EdgeSwitches, 2, ByHops},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bc.g.Freeze()
			nodes := bc.nodes(bc.g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, src := range nodes {
					for _, dst := range nodes {
						if src != dst {
							bc.g.KShortestPaths(src, dst, bc.k, bc.w)
						}
					}
				}
			}
		})
	}
}
