package topo

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// BenchmarkRerouteRepair is churn-k16's oracle work per reroute: on a
// jittered fat-tree K=16 the controller's Centroid is taken and path
// queries start from the 128 edge switches, so those are the cached
// trees; each op then sets one random link to a random factor in
// [0.5, 2) of its base latency and repairs every cached tree.
func BenchmarkRerouteRepair(b *testing.B) {
	g := FatTree(16)
	jitterLatencies(g, rand.New(rand.NewSource(1)))
	g.Centroid()
	edges := EdgeSwitches(g)
	for i, s := range edges {
		g.ShortestPath(s, edges[(i+1)%len(edges)], ByLatency)
	}
	base := baseLatencies(g)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := LinkID(rng.Intn(len(base)))
		g.SetLinkLatency(id, time.Duration(float64(base[id])*(0.5+1.5*rng.Float64())))
	}
	b.StopTimer()
	if trees := len(g.Oracle().tree); trees != len(edges) {
		b.Fatalf("%d cached trees, want the %d queried edge switches", trees, len(edges))
	}
}

// BenchmarkCentroid is a cold Centroid on a jittered fat-tree, the
// controller placement every churn trial pays once: each op drops the
// memoized result, and with no cached trees the bounds search sweeps
// the scratch alone (sweeps/op reports how many of the NumNodes).
func BenchmarkCentroid(b *testing.B) {
	for _, k := range []int{16, 32} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			g := jitteredFatTree(k, 1)
			o := g.Oracle()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.haveCentroid = false
				benchNode = g.Centroid()
			}
			b.ReportMetric(float64(o.centroidSweeps)/float64(b.N), "sweeps/op")
		})
	}
}

var benchNode NodeID
