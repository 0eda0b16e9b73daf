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

func (t *Topology) edgeWeight(id LinkID, w Weight) float64 {
	if w == ByHops {
		return 1
	}
	return t.latSec[id]
}

// ShortestPath returns the minimum-weight path from src to dst, or nil if
// unreachable. Ties are broken deterministically by neighbor order. The
// path is walked out of src's memoized shortest-path tree (one Dijkstra
// sweep per source, see PathOracle) into a fresh slice the caller owns.
func (t *Topology) ShortestPath(src, dst NodeID, w Weight) []NodeID {
	return t.Oracle().ShortestPath(src, dst, w)
}

// Distances returns minimum weights from src to every node (math.Inf(1)
// for unreachable nodes). The result is memoized in the topology's
// PathOracle and shared between callers: treat it as read-only.
func (t *Topology) Distances(src NodeID, w Weight) []float64 {
	return t.Oracle().Distances(src, w)
}

type candidate struct {
	path []NodeID
	cost float64
}

// KShortestPaths returns up to k loop-free paths from src to dst in
// non-decreasing weight order (Yen's algorithm). Every spur query is one
// unmemoized early-exit Dijkstra on the PathOracle's scratch, held under
// its mutex for the whole call, with the blocked sets kept as mark
// arrays on that scratch.
func (t *Topology) KShortestPaths(src, dst NodeID, k int, w Weight) [][]NodeID {
	if k <= 0 {
		return nil
	}
	first := t.ShortestPath(src, dst, w)
	if first == nil {
		return nil
	}
	o := t.Oracle()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.refresh()
	sc := o.sc
	result := [][]NodeID{first}
	var pool []candidate

	for len(result) < k {
		prevPath := result[len(result)-1]
		for i := 0; i+1 < len(prevPath); i++ {
			rootPath := prevPath[:i+1]
			if i > 0 {
				sc.blockedNode[prevPath[i-1]] = true
			}
			for _, p := range result {
				if len(p) > i && equalPath(p[:i+1], rootPath) {
					sc.blockedNext[p[i+1]] = true
				}
			}
			total, spurCost := o.spurPath(rootPath, dst, w)
			clear(sc.blockedNext)
			if total == nil {
				continue
			}
			rootCost := 0.0
			for j := 0; j+1 < len(rootPath); j++ {
				l, _ := t.LinkBetween(rootPath[j], rootPath[j+1])
				rootCost += t.edgeWeight(l.ID, w)
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
		clear(sc.blockedNode)
		if len(pool) == 0 {
			break
		}
		sort.SliceStable(pool, func(i, j int) bool { return pool[i].cost < pool[j].cost })
		result = append(result, pool[0].path)
		pool = pool[1:]
	}
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
	return t.Oracle().Centroid()
}

// ControlLatencies returns the control-channel latency from the controller
// node to every switch: the latency-weighted shortest-path distance, in
// a fresh slice the caller owns.
func (t *Topology) ControlLatencies(controller NodeID) []time.Duration {
	dist := t.Distances(controller, ByLatency)
	out := make([]time.Duration, len(dist))
	for i, d := range dist {
		out[i] = time.Duration(d * float64(time.Second))
	}
	return out
}
