package topo

import (
	"fmt"
	"math"
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
	v := g.version
	g.AddLink(0, 4, time.Millisecond, 100) // shortcut
	if g.version == v {
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

// allTreesCentroid is the reference centroid: a cached tree from every
// node, each read for its eccentricity.
func allTreesCentroid(g *Topology) NodeID {
	best, bestWorst := NodeID(0), math.Inf(1)
	for _, n := range g.Nodes() {
		worst := 0.0
		for _, d := range g.Distances(n, ByLatency) {
			worst = math.Max(worst, d)
		}
		if worst < bestWorst {
			best, bestWorst = n, worst
		}
	}
	return best
}

func jitteredFatTree(k int, seed int64) *Topology {
	g := FatTree(k)
	jitterLatencies(g, rand.New(rand.NewSource(seed)))
	return g
}

// TestCentroidCachesNothing: Centroid agrees with the all-trees
// reference on a jittered fat-tree K=8 but leaves the tree cache as it
// found it — empty on a fresh oracle, and holding just the queried
// trees (none re-swept) once some sources have been asked for — so
// latency repair only ever maintains trees a path query uses.
func TestCentroidCachesNothing(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := jitteredFatTree(8, seed)
		want := allTreesCentroid(jitteredFatTree(8, seed))
		o := g.Oracle()
		if got := g.Centroid(); got != want {
			t.Fatalf("seed %d: Centroid = %d, all-trees reference %d", seed, got, want)
		}
		if len(o.tree) != 0 || o.sweeps != 0 {
			t.Fatalf("seed %d: Centroid left %d trees (%d sweeps) in the cache, want none", seed, len(o.tree), o.sweeps)
		}

		// Perturb (dropping the memoized centroid), query a few sources,
		// and recompute: the cached trees are read, nothing is added.
		g.SetLinkLatency(0, 3*g.Link(0).Latency)
		ref := jitteredFatTree(8, seed)
		ref.SetLinkLatency(0, g.Link(0).Latency)
		edges := EdgeSwitches(g)
		for _, s := range edges[:4] {
			g.ShortestPath(s, edges[len(edges)-1], ByLatency)
		}
		if got, want := g.Centroid(), allTreesCentroid(ref); got != want {
			t.Fatalf("seed %d: after a perturbation Centroid = %d, all-trees reference %d", seed, got, want)
		}
		if len(o.tree) != 4 || o.sweeps != 4 {
			t.Fatalf("seed %d: %d trees, %d sweeps after 4 queried sources and Centroid, want 4 each", seed, len(o.tree), o.sweeps)
		}
	}
}

// tieTree builds a seeded random tree whose links weigh 1, 2 or 3 ms:
// two centres of equal eccentricity often lie apart, so the search can
// reach the higher-index one first, and the lower-index one's bound can
// equal the best eccentricity exactly.
func tieTree(n int, seed int64) *Topology {
	rng := rand.New(rand.NewSource(seed))
	g := New("tie-tree")
	for i := 0; i < n; i++ {
		g.AddNode("", 0, 0)
	}
	for i := 1; i < n; i++ {
		g.AddLink(NodeID(rng.Intn(i)), NodeID(i), time.Duration(1+rng.Intn(3))*time.Millisecond, 100)
	}
	return g
}

// TestCentroidMatchesAllTrees holds the bounds search to the all-trees
// reference on every shape it can meet: jittered fat-trees, where
// eccentricities are close but distinct; unjittered ones, where every
// eccentricity ties and the lowest index must win; the WAN topologies
// plain and jittered; disconnected graphs, where every eccentricity is
// +Inf and the reference returns node 0; one node; cached trees,
// repaired after a SetLinkLatency or tied with every other node, which
// the search folds in first; and small random graphs and trees full of
// exact ties. It also counts the scratch sweeps: never more than one per
// node, one on a disconnected graph, and at most 100 of the 320 on
// jittered K=16.
func TestCentroidMatchesAllTrees(t *testing.T) {
	type tc struct {
		name      string
		mk        func() *Topology
		prep      func(*Topology) // cache trees before the tested Centroid
		maxSweeps int             // 0: one per node
	}
	jittered := func(mk func() *Topology) func() *Topology {
		return func() *Topology {
			g := mk()
			jitterLatencies(g, rand.New(rand.NewSource(7)))
			return g
		}
	}
	var cases []tc
	for _, k := range []int{4, 8, 16} {
		for seed := int64(1); seed <= 5; seed++ {
			k, seed := k, seed
			c := tc{name: fmt.Sprintf("fattree-k%d-jitter%d", k, seed), mk: func() *Topology { return jitteredFatTree(k, seed) }}
			if k == 16 {
				c.maxSweeps = 100
			}
			cases = append(cases, c)
		}
	}
	for _, k := range []int{4, 8} {
		k := k
		cases = append(cases, tc{name: fmt.Sprintf("fattree-k%d", k), mk: func() *Topology { return FatTree(k) }})
	}
	for _, mk := range []func() *Topology{B4, Internet2, AttMpls, Chinanet, Synthetic} {
		name := mk().Name
		cases = append(cases, tc{name: name, mk: mk}, tc{name: name + "-jitter", mk: jittered(mk)})
	}
	cases = append(cases,
		tc{name: "two-components", mk: func() *Topology {
			g := oracleLine(2)
			g.AddNode("", 0, 0)
			g.AddNode("", 0, 0)
			g.AddLink(2, 3, 2*time.Millisecond, 100)
			return g
		}, maxSweeps: 1},
		tc{name: "isolated-node", mk: func() *Topology {
			g := oracleLine(5)
			g.AddNode("", 0, 0)
			return g
		}, maxSweeps: 1},
		tc{name: "one-node", mk: func() *Topology { return oracleLine(1) }},
		tc{name: "cached-after-SetLinkLatency", mk: func() *Topology {
			g := jitteredFatTree(8, 2)
			g.SetLinkLatency(0, 3*g.Link(0).Latency)
			return g
		}, prep: func(g *Topology) {
			g.Centroid()
			g.SetLinkLatency(1, g.Link(1).Latency/2)
			edges := EdgeSwitches(g)
			for _, s := range edges[:4] {
				g.ShortestPath(s, edges[len(edges)-1], ByLatency)
			}
			g.SetLinkLatency(2, 2*g.Link(2).Latency)
		}},
		tc{name: "fattree-k4-cached-tie", mk: func() *Topology { return FatTree(4) }, prep: func(g *Topology) {
			g.Distances(NodeID(g.NumNodes()-1), ByLatency)
		}},
	)
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		cases = append(cases, tc{name: fmt.Sprintf("ties-%d", seed), mk: func() *Topology {
			return tieGraph(6+int(seed%13), 8+int(3*seed%29), int(seed%3), seed)
		}}, tc{name: fmt.Sprintf("tree-%d", seed), mk: func() *Topology {
			return tieTree(6+int(seed%7), seed)
		}})
	}
	for _, c := range cases {
		g := c.mk()
		if c.prep != nil {
			c.prep(g)
		}
		ref := cloneWithLatencies(c.mk, g)
		o := g.Oracle()
		before := o.centroidSweeps
		got, want := g.Centroid(), allTreesCentroid(ref)
		if got != want {
			t.Errorf("%s: Centroid = %d, all-trees reference %d", c.name, got, want)
		}
		limit := c.maxSweeps
		if limit == 0 {
			limit = g.NumNodes()
		}
		if n := o.centroidSweeps - before; n > uint64(limit) {
			t.Errorf("%s: Centroid ran %d sweeps on %d nodes, want at most %d", c.name, n, g.NumNodes(), limit)
		}
	}
}

// TestOracleConcurrentCentroid: Centroid sweeps on the oracle's shared
// scratch, the same scratch a cache-miss ShortestPath or Distances
// sweeps on. Several goroutines race all three on one frozen jittered
// fat-tree, checking every answer against a private reference (make
// race runs this under the detector with -count=10).
func TestOracleConcurrentCentroid(t *testing.T) {
	g := jitteredFatTree(4, 5)
	g.Freeze()
	want := allTreesCentroid(jitteredFatTree(4, 5))
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ref := jitteredFatTree(4, 5)
			n := g.NumNodes()
			for i := 0; i < n; i++ {
				src, dst := NodeID((i+w)%n), NodeID((3*i+w)%n)
				if w%2 == 0 && g.Centroid() != want {
					t.Errorf("worker %d: Centroid differs", w)
					return
				}
				if got, exp := g.ShortestPath(src, dst, ByLatency), ref.ShortestPath(src, dst, ByLatency); !equalPath(got, exp) {
					t.Errorf("worker %d: ShortestPath(%d,%d) = %v, want %v", w, src, dst, got, exp)
					return
				}
				gd, rd := g.Distances(dst, ByHops), ref.Distances(dst, ByHops)
				for j := range rd {
					if gd[j] != rd[j] {
						t.Errorf("worker %d: Distances(%d) differ at %d", w, dst, j)
						return
					}
				}
			}
			if g.Centroid() != want {
				t.Errorf("worker %d: Centroid differs", w)
			}
		}(w)
	}
	wg.Wait()
}
