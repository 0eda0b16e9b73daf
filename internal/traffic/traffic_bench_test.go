package traffic

import (
	"testing"

	"p4update/internal/topo"
)

// BenchmarkSegmentedSingleFlow is the Fig. 7 single-flow scenario
// search, run once per panel: Yen with k=30 over every node pair and the
// (old, new) scorer, on a frozen topology as the grids share it.
func BenchmarkSegmentedSingleFlow(b *testing.B) {
	for _, g := range []*topo.Topology{topo.B4(), topo.Internet2()} {
		b.Run(g.Name, func(b *testing.B) {
			g.Freeze()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SegmentedSingleFlow(g, 1000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
