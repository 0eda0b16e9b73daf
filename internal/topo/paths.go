package topo

import (
	"sort"
	"time"
)

// Weight selects the edge metric used for path computation.
type Weight int

const (
	// ByLatency weights edges by propagation latency (seconds).
	ByLatency Weight = iota
	// ByHops weights every edge 1.
	ByHops
)

func (t *Topology) edgeWeight(l Link, w Weight) float64 {
	if w == ByHops {
		return 1
	}
	return l.Latency.Seconds()
}

// ShortestPath returns the minimum-weight path from src to dst, or nil if
// unreachable. Ties are broken deterministically by neighbor order. The
// path is walked out of src's memoized shortest-path tree (one Dijkstra
// sweep per source, see PathOracle) into a fresh slice the caller owns.
func (t *Topology) ShortestPath(src, dst NodeID, w Weight) []NodeID {
	path, _ := t.shortestPathAvoiding(src, dst, w, nil, nil)
	return path
}

// Distances returns minimum weights from src to every node (math.Inf(1)
// for unreachable nodes). The result is memoized in the topology's
// PathOracle and shared between callers: treat it as read-only.
func (t *Topology) Distances(src NodeID, w Weight) []float64 {
	if s := t.snapshot(); s != nil {
		return s.Oracle().Distances(src, w)
	}
	return t.Oracle().Distances(src, w)
}

// shortestPathAvoiding runs Dijkstra while skipping the given nodes and
// directed edges; used as the spur-path primitive of Yen's algorithm.
// It consults the memoizing oracle and returns a slice the caller owns:
// the PathOracle builds one per query, the frozen snapshot's shared
// cache entry is copied.
func (t *Topology) shortestPathAvoiding(src, dst NodeID, w Weight,
	blockedNodes map[NodeID]bool, blockedEdges map[[2]NodeID]bool) ([]NodeID, float64) {

	s := t.snapshot()
	if s == nil {
		return t.Oracle().shortestAvoiding(src, dst, w, blockedNodes, blockedEdges)
	}
	p, cost := s.Oracle().shortestAvoiding(src, dst, w, blockedNodes, blockedEdges)
	return clonePath(p), cost
}

// clonePath copies a cache-owned path for a caller to own; nil
// (unreachable) stays nil. It runs once per Yen spur query of the
// Fig. 7 grid's workload generation, hence make+copy (exact size, no
// growslice) rather than slices.Clone.
func clonePath(p []NodeID) []NodeID {
	if p == nil {
		return nil
	}
	out := make([]NodeID, len(p))
	copy(out, p)
	return out
}

type candidate struct {
	path []NodeID
	cost float64
}

// KShortestPaths returns up to k loop-free paths from src to dst in
// non-decreasing weight order (Yen's algorithm).
func (t *Topology) KShortestPaths(src, dst NodeID, k int, w Weight) [][]NodeID {
	if k <= 0 {
		return nil
	}
	first, cost := t.shortestPathAvoiding(src, dst, w, nil, nil)
	if first == nil {
		return nil
	}
	result := [][]NodeID{first}
	costs := []float64{cost}
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
			spur, spurCost := t.shortestPathAvoiding(spurNode, dst, w, blockedNodes, blockedEdges)
			if spur == nil {
				continue
			}
			total := append(append([]NodeID{}, rootPath[:len(rootPath)-1]...), spur...)
			rootCost := 0.0
			for j := 0; j+1 < len(rootPath); j++ {
				l, _ := t.LinkBetween(rootPath[j], rootPath[j+1])
				rootCost += t.edgeWeight(l, w)
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
		best := pool[0]
		pool = pool[1:]
		result = append(result, best.path)
		costs = append(costs, best.cost)
	}
	_ = costs
	return result
}

func equalPath(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Centroid returns the node minimizing the worst-case latency-weighted
// distance to all other nodes (the paper places the controller there).
// The result is memoized per topology generation.
func (t *Topology) Centroid() NodeID {
	if s := t.snapshot(); s != nil {
		return s.Oracle().Centroid()
	}
	return t.Oracle().Centroid()
}

// ControlLatencies returns the control-channel latency from the controller
// node to every switch: the latency-weighted shortest-path distance. On a
// frozen topology the result is memoized and shared: treat it as
// read-only.
func (t *Topology) ControlLatencies(controller NodeID) []time.Duration {
	if s := t.snapshot(); s != nil {
		return s.Oracle().ControlLatencies(controller)
	}
	dist := t.Distances(controller, ByLatency)
	out := make([]time.Duration, len(dist))
	for i, d := range dist {
		out[i] = time.Duration(d * float64(time.Second))
	}
	return out
}
