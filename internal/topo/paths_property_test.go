package topo

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// randomConnected builds a deterministic random connected graph with n
// nodes and extra chord edges.
func randomConnected(n int, extra int, seed int64) *Topology {
	rng := rand.New(rand.NewSource(seed))
	t := New("rand")
	for i := 0; i < n; i++ {
		t.AddNode("", 0, 0)
	}
	// Random spanning tree.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		a := NodeID(perm[i])
		b := NodeID(perm[rng.Intn(i)])
		t.AddLink(a, b, time.Duration(1+rng.Intn(20))*time.Millisecond, 100)
	}
	for e := 0; e < extra; e++ {
		a := NodeID(rng.Intn(n))
		b := NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		if _, exists := t.LinkBetween(a, b); exists {
			continue
		}
		t.AddLink(a, b, time.Duration(1+rng.Intn(20))*time.Millisecond, 100)
	}
	return t
}

// bruteShortest enumerates all simple paths (small n!) and returns the
// cheapest latency.
func bruteShortest(t *Topology, src, dst NodeID) float64 {
	best := -1.0
	var dfs func(cur NodeID, cost float64, seen map[NodeID]bool)
	dfs = func(cur NodeID, cost float64, seen map[NodeID]bool) {
		if cur == dst {
			if best < 0 || cost < best {
				best = cost
			}
			return
		}
		for _, nb := range t.Neighbors(cur) {
			if seen[nb] {
				continue
			}
			l, _ := t.LinkBetween(cur, nb)
			seen[nb] = true
			dfs(nb, cost+l.Latency.Seconds(), seen)
			delete(seen, nb)
		}
	}
	dfs(src, 0, map[NodeID]bool{src: true})
	return best
}

func TestShortestPathMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g := randomConnected(7, 5, seed)
		for _, src := range g.Nodes() {
			for _, dst := range g.Nodes() {
				if src == dst {
					continue
				}
				p := g.ShortestPath(src, dst, ByLatency)
				if p == nil {
					t.Fatalf("seed %d: no path %d->%d in connected graph", seed, src, dst)
				}
				got := g.PathLatency(p).Seconds()
				want := bruteShortest(g, src, dst)
				if diff := got - want; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("seed %d: %d->%d dijkstra %.6f vs brute %.6f (path %v)",
						seed, src, dst, got, want, p)
				}
			}
		}
	}
}

func TestKShortestPathsProperties(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomConnected(8, 6, 100+seed)
		src, dst := NodeID(0), NodeID(7)
		paths := g.KShortestPaths(src, dst, 6, ByLatency)
		if len(paths) == 0 {
			t.Fatalf("seed %d: no paths", seed)
		}
		seen := map[string]bool{}
		prev := -1.0
		for _, p := range paths {
			// Simple, valid, endpoints correct.
			if err := g.ValidatePath(p); err != nil {
				t.Fatalf("seed %d: invalid path %v: %v", seed, p, err)
			}
			if p[0] != src || p[len(p)-1] != dst {
				t.Fatalf("seed %d: endpoints wrong: %v", seed, p)
			}
			// Unique.
			key := ""
			for _, n := range p {
				key += string(rune(n)) + ","
			}
			if seen[key] {
				t.Fatalf("seed %d: duplicate path %v", seed, p)
			}
			seen[key] = true
			// Non-decreasing cost.
			c := g.PathLatency(p).Seconds()
			if c < prev-1e-9 {
				t.Fatalf("seed %d: cost regressed: %v", seed, paths)
			}
			prev = c
		}
		// First path is the shortest path.
		if g.PathLatency(paths[0]) != g.PathLatency(g.ShortestPath(src, dst, ByLatency)) {
			t.Fatalf("seed %d: first k-path not shortest", seed)
		}
	}
}

func TestDistancesSymmetricOnUndirectedGraph(t *testing.T) {
	g := randomConnected(9, 7, 5)
	for _, a := range g.Nodes() {
		da := g.Distances(a, ByLatency)
		for _, b := range g.Nodes() {
			db := g.Distances(b, ByLatency)
			if diff := da[b] - db[a]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("asymmetric distances %d<->%d: %f vs %f", a, b, da[b], db[a])
			}
		}
	}
}

// refSpurPath is the spur primitive as it was before the blocked sets
// became scratch marks: an early-exit Dijkstra over the adjacency lists
// that looks every neighbour up in a blocked-node map and every edge in
// a blocked-edge map. Kept as the reference for refKShortestPaths.
func refSpurPath(t *Topology, src, dst NodeID, w Weight,
	blockedNodes map[NodeID]bool, blockedEdges map[[2]NodeID]bool) ([]NodeID, float64) {

	if src == dst {
		return []NodeID{src}, 0
	}
	sc := newDijkstraScratch(t.NumNodes())
	for i := range sc.d {
		sc.d[i] = math.Inf(1)
		sc.prev[i] = -1
		sc.pos[i] = -1
	}
	sc.d[src] = 0
	sc.hPush(src, 0)
	for len(sc.h) > 0 {
		cur := sc.hPop()
		if cur.node == dst {
			break
		}
		for _, ad := range t.adj[cur.node] {
			if blockedNodes[ad.neighbor] || blockedEdges[[2]NodeID{cur.node, ad.neighbor}] {
				continue
			}
			alt := cur.dist + refWeight(t.links[ad.link], w)
			if alt < sc.d[ad.neighbor] {
				sc.d[ad.neighbor] = alt
				sc.prev[ad.neighbor] = cur.node
				if sc.pos[ad.neighbor] >= 0 {
					sc.hFix(ad.neighbor, alt)
				} else {
					sc.hPush(ad.neighbor, alt)
				}
			}
		}
	}
	if math.IsInf(sc.d[dst], 1) {
		return nil, math.Inf(1)
	}
	var path []NodeID
	for v := dst; v != -1; v = sc.prev[v] {
		path = append([]NodeID{v}, path...)
	}
	return path, sc.d[dst]
}

// refWeight is the edge weight recomputed from the link itself, which
// the oracle's cached per-link weights must reproduce bit for bit.
func refWeight(l Link, w Weight) float64 {
	if w == ByHops {
		return 1
	}
	return l.Latency.Seconds()
}

// refKShortestPaths is the map-based Yen KShortestPaths replaced: two
// fresh maps per spur query, the candidate glued together by append.
func refKShortestPaths(t *Topology, src, dst NodeID, k int, w Weight) [][]NodeID {
	first, _ := refSpurPath(t, src, dst, w, nil, nil)
	if first == nil {
		return nil
	}
	result := [][]NodeID{first}
	var pool []candidate
	for len(result) < k {
		prevPath := result[len(result)-1]
		for i := 0; i+1 < len(prevPath); i++ {
			spurNode := prevPath[i]
			rootPath := prevPath[:i+1]
			blockedEdges := make(map[[2]NodeID]bool)
			for _, p := range result {
				if len(p) > i && equalPath(p[:i+1], rootPath) {
					blockedEdges[[2]NodeID{p[i], p[i+1]}] = true
				}
			}
			blockedNodes := make(map[NodeID]bool)
			for _, n := range rootPath[:len(rootPath)-1] {
				blockedNodes[n] = true
			}
			spur, spurCost := refSpurPath(t, spurNode, dst, w, blockedNodes, blockedEdges)
			if spur == nil {
				continue
			}
			total := append(append([]NodeID{}, rootPath[:len(rootPath)-1]...), spur...)
			rootCost := 0.0
			for j := 0; j+1 < len(rootPath); j++ {
				l, _ := t.LinkBetween(rootPath[j], rootPath[j+1])
				rootCost += refWeight(l, w)
			}
			c := candidate{path: total, cost: rootCost + spurCost}
			dup := false
			for _, existing := range pool {
				if equalPath(existing.path, c.path) {
					dup = true
					break
				}
			}
			for _, existing := range result {
				if equalPath(existing, c.path) {
					dup = true
					break
				}
			}
			if !dup {
				pool = append(pool, c)
			}
		}
		if len(pool) == 0 {
			break
		}
		sort.SliceStable(pool, func(i, j int) bool { return pool[i].cost < pool[j].cost })
		result = append(result, pool[0].path)
		pool = pool[1:]
	}
	return result
}

// TestKShortestPathsMatchesMapBasedYen holds the scratch-mark Yen to the
// map-based one it replaced: the identical path list, order included,
// for every node pair under both weights and a small and a large k, on
// the WAN topologies the Fig. 7 search runs over and on the massively
// tied fat-tree, on a plain topology and on a frozen one shared the way
// a grid's trials share it.
func TestKShortestPathsMatchesMapBasedYen(t *testing.T) {
	for _, mk := range []func() *Topology{B4, Internet2, func() *Topology { return FatTree(4) }} {
		ref, plain, frozen := mk(), mk(), mk()
		frozen.Freeze()
		for _, w := range []Weight{ByLatency, ByHops} {
			for _, k := range []int{2, 30} {
				for _, src := range ref.Nodes() {
					for _, dst := range ref.Nodes() {
						if src == dst {
							continue
						}
						want := refKShortestPaths(ref, src, dst, k, w)
						for _, g := range []*Topology{plain, frozen} {
							if got := g.KShortestPaths(src, dst, k, w); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s frozen=%v weight %v k=%d %d->%d:\n got %v\nwant %v",
									g.Name, g.Frozen(), w, k, src, dst, got, want)
							}
						}
					}
				}
			}
		}
	}
}
