package topo

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func oracleLine(n int) *Topology {
	g := New("line")
	for i := 0; i < n; i++ {
		g.AddNode("", 0, 0)
	}
	for i := 0; i+1 < n; i++ {
		g.AddLink(NodeID(i), NodeID(i+1), time.Millisecond, 100)
	}
	return g
}

func TestOracleMemoizesDistances(t *testing.T) {
	g := oracleLine(5)
	d1 := g.Distances(0, ByHops)
	d2 := g.Distances(0, ByHops)
	if &d1[0] != &d2[0] {
		t.Fatal("repeated Distances did not return the memoized slice")
	}
	if d1[4] != 4 {
		t.Fatalf("dist to node 4 = %v, want 4", d1[4])
	}
	// Different weight is a different cache entry.
	dl := g.Distances(0, ByLatency)
	if &dl[0] == &d1[0] {
		t.Fatal("ByLatency shares the ByHops cache entry")
	}
}

func TestOracleInvalidatedByMutation(t *testing.T) {
	g := oracleLine(5)
	before := g.Distances(0, ByHops)
	if before[4] != 4 {
		t.Fatalf("dist = %v, want 4", before[4])
	}
	p := g.ShortestPath(0, 4, ByHops)
	if len(p) != 5 {
		t.Fatalf("path = %v, want 5 hops", p)
	}
	v := g.Version()
	g.AddLink(0, 4, time.Millisecond, 100) // shortcut
	if g.Version() == v {
		t.Fatal("AddLink did not bump the topology version")
	}
	after := g.Distances(0, ByHops)
	if after[4] != 1 {
		t.Fatalf("post-mutation dist = %v, want 1 (stale cache?)", after[4])
	}
	if p2 := g.ShortestPath(0, 4, ByHops); len(p2) != 2 {
		t.Fatalf("post-mutation path = %v, want [0 4]", p2)
	}
	if g.Centroid() != 2 && g.Centroid() != g.Centroid() {
		t.Fatal("Centroid unstable after mutation")
	}
}

func TestOracleShortestPathCopies(t *testing.T) {
	g := oracleLine(5)
	p1 := g.ShortestPath(0, 4, ByHops)
	p1[0] = 99 // caller owns the copy; must not poison the cache
	p2 := g.ShortestPath(0, 4, ByHops)
	if p2[0] != 0 {
		t.Fatalf("cache poisoned by caller mutation: %v", p2)
	}
}

// TestOracleConcurrentReaders exercises the mutex: parallel workers
// share prebuilt topologies, so concurrent queries must be safe.
func TestOracleConcurrentReaders(t *testing.T) {
	g := oracleLine(16)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				src := NodeID((seed + j) % 16)
				dst := NodeID((seed * j) % 16)
				g.Distances(src, ByLatency)
				g.ShortestPath(src, dst, ByHops)
			}
			g.Centroid()
		}(i)
	}
	wg.Wait()
}

// tieGraph builds a seeded random graph meant to stress tie-breaking:
// latencies come from a three-value set that includes zero, so equal-cost
// alternatives and zero-cost hops abound, and the last `isolated` nodes
// get no link at all (unreachable from everywhere else).
func tieGraph(n, links, isolated int, seed int64) *Topology {
	rng := rand.New(rand.NewSource(seed))
	g := New("ties")
	for i := 0; i < n; i++ {
		g.AddNode("", 0, 0)
	}
	lat := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	for e := 0; e < links; e++ {
		a, b := NodeID(rng.Intn(n-isolated)), NodeID(rng.Intn(n-isolated))
		if a == b {
			continue
		}
		if _, dup := g.LinkBetween(a, b); dup {
			continue
		}
		g.AddLink(a, b, lat[rng.Intn(len(lat))], 100)
	}
	return g
}

// TestTreeWalkEqualsEarlyExitDijkstra is the identity the per-source
// trees rest on: for every pair, under both weights, on graphs full of
// exact ties, zero-latency links and unreachable nodes, the path walked
// out of the source's shortest-path tree is node for node the path the
// early-exit point-to-point Dijkstra (spurPath with nothing blocked)
// returns, with the same cost.
func TestTreeWalkEqualsEarlyExitDijkstra(t *testing.T) {
	builders := []func() *Topology{func() *Topology { return FatTree(4) }, B4} // uniform fat-tree: massively tied
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		builders = append(builders, func() *Topology {
			return tieGraph(6+int(seed%13), 8+int(3*seed%29), int(seed%3), seed)
		})
	}
	for gi, mk := range builders {
		g := mk()
		spur := func(src, dst NodeID, w Weight) ([]NodeID, float64) {
			o := g.Oracle()
			o.mu.Lock()
			defer o.mu.Unlock()
			o.refresh()
			return o.spurPath([]NodeID{src}, dst, w)
		}
		for _, w := range []Weight{ByLatency, ByHops} {
			for _, src := range g.Nodes() {
				for _, dst := range g.Nodes() {
					got, gotCost := g.ShortestPath(src, dst, w), g.Distances(src, w)[dst]
					want, wantCost := spur(src, dst, w)
					if !equalPath(got, want) || gotCost != wantCost {
						t.Fatalf("graph %d (%s) weight %v %d->%d: tree walk %v cost %v, early-exit Dijkstra %v cost %v",
							gi, g.Name, w, src, dst, got, gotCost, want, wantCost)
					}
				}
			}
		}
	}
}

// TestOneSweepPerSource is the counting guard of the tree cache: on an
// unperturbed topology, any number of unconstrained ShortestPath and
// Distances queries runs exactly one Dijkstra sweep per distinct
// (source, weight) — never one per pair — and Yen's spur queries add
// none.
func TestOneSweepPerSource(t *testing.T) {
	g := FatTree(4)
	o := g.Oracle()
	sources := EdgeSwitches(g)
	queries := 0
	for round := 0; round < 3; round++ {
		for _, s := range sources {
			for _, d := range g.Nodes() {
				g.ShortestPath(s, d, ByLatency)
				queries++
			}
			g.Distances(s, ByLatency)
		}
	}
	o.mu.Lock()
	sweeps, trees := o.sweeps, len(o.tree)
	o.mu.Unlock()
	if sweeps != uint64(len(sources)) || trees != len(sources) {
		t.Fatalf("%d queries from %d sources ran %d sweeps into %d trees, want %d each",
			queries, len(sources), sweeps, trees, len(sources))
	}
	// A second weight is a second tree per source, and only that.
	for _, s := range sources {
		g.ShortestPath(s, sources[0], ByHops)
	}
	o.mu.Lock()
	sweeps = o.sweeps
	o.mu.Unlock()
	if sweeps != 2*uint64(len(sources)) {
		t.Fatalf("after ByHops queries: %d sweeps, want %d", sweeps, 2*len(sources))
	}
	// Spur queries are early-exit runs on scratch: they neither sweep nor
	// cache, so Yen from an already-swept source leaves the counts alone.
	g.KShortestPaths(sources[0], sources[len(sources)-1], 3, ByLatency)
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.sweeps != sweeps || len(o.tree) != 2*len(sources) {
		t.Fatalf("KShortestPaths from a swept source: %d sweeps, %d trees; want %d, %d",
			o.sweeps, len(o.tree), sweeps, 2*len(sources))
	}
}
