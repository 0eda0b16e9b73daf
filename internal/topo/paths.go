package topo

import (
	"fmt"
	"math"
	"slices"
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

// IsShortestPath reports whether path equals ShortestPath(path[0],
// path[len(path)-1], w), without building that path: false for an
// empty path.
func (t *Topology) IsShortestPath(path []NodeID, w Weight) bool {
	return t.Oracle().IsShortestPath(path, w)
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

// acceptedPath is a path Yen has let into its pool, with its pathHash.
type acceptedPath struct {
	hash uint64
	path []NodeID
}

// yenScratch is KShortestPaths' bookkeeping, kept on the PathOracle's
// scratch between calls so that a call allocates little beyond the
// paths it finds.
type yenScratch struct {
	accepted []acceptedPath
	pool     []candidate
	sharing  []int
	spurred  []int32
	from     []int
}

// KShortestPaths returns up to k loop-free paths from src to dst in
// non-decreasing weight order (Yen's algorithm). Every spur query is one
// unmemoized early-exit Dijkstra on the PathOracle's scratch, held under
// its mutex for the whole call, with the blocked sets kept as mark
// arrays on that scratch; a query that repeats an earlier one of the
// call is skipped. The candidate pool is kept sorted by cost, equal
// costs in insertion order — the order a stable sort after every round
// would give — so each round takes the cheapest without sorting. The
// pool only ever drains into the result, so a candidate is a duplicate
// exactly when it equals a path accepted before; those are checked by
// hash first.
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
	sc, y := o.sc, &o.sc.yen
	result := [][]NodeID{first}
	accepted := append(y.accepted[:0], acceptedPath{pathHash(first), first})
	// spurred[from[j]+i] is how many next hops were blocked when the root
	// result[j][:i+1] was last spurred, j being the first result with
	// that root; 0 if it never was.
	spurred := append(y.spurred[:0], make([]int32, len(first))...)
	from := append(y.from[:0], 0)
	pool := y.pool[:0]   // by cost, descending; equal costs newest first
	sharing := y.sharing // indexes of the results that start with the current root

	for len(result) < k {
		prevPath := result[len(result)-1]
		sharing = sharing[:0]
		for j := range result {
			sharing = append(sharing, j)
		}
		rootCost := 0.0
		for i := 0; i+1 < len(prevPath); i++ {
			rootPath := prevPath[:i+1]
			if i > 0 {
				sc.blockedNode[prevPath[i-1]] = true
				l, _ := t.LinkBetween(prevPath[i-1], prevPath[i])
				rootCost += t.edgeWeight(l.ID, w)
			}
			// Every survivor already matched rootPath[:i]; keep those
			// whose node i matches too, and block their next hops.
			n, blocked := 0, int32(0)
			for _, j := range sharing {
				if p := result[j]; len(p) > i && p[i] == prevPath[i] {
					if !sc.blockedNext[p[i+1]] {
						sc.blockedNext[p[i+1]] = true
						blocked++
					}
					sharing[n] = j
					n++
				}
			}
			sharing = sharing[:n]
			// A root's blocked set only grows. If it has not grown since
			// the root's last spur, this query is that one again: its
			// path, if any, is accepted already.
			var total []NodeID
			var spurCost float64
			if last := &spurred[from[sharing[0]]+i]; *last != blocked {
				*last = blocked
				total, spurCost = o.spurPath(rootPath, dst, w)
			}
			for _, j := range sharing {
				sc.blockedNext[result[j][i+1]] = false
			}
			if total == nil {
				continue
			}
			h := pathHash(total)
			dup := false
			for _, a := range accepted {
				if a.hash == h && equalPath(a.path, total) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			accepted = append(accepted, acceptedPath{h, total})
			c := candidate{path: total, cost: rootCost + spurCost}
			at := sort.Search(len(pool), func(m int) bool { return pool[m].cost <= c.cost })
			pool = slices.Insert(pool, at, c)
		}
		clear(sc.blockedNode)
		if len(pool) == 0 {
			break
		}
		next := pool[len(pool)-1].path
		pool = pool[:len(pool)-1]
		result = append(result, next)
		from = append(from, len(spurred))
		spurred = append(spurred, make([]int32, len(next))...)
	}
	// Keep the scratch's capacity but none of the paths, which now
	// belong to the caller or to nobody.
	clear(accepted)
	clear(pool[:cap(pool)])
	*y = yenScratch{accepted[:0], pool[:0], sharing, spurred, from}
	return result
}

// pathHash is FNV-1a (64-bit) over the path's node IDs.
func pathHash(p []NodeID) uint64 {
	h := uint64(14695981039346656037)
	for _, n := range p {
		h ^= uint64(n)
		h *= 1099511628211
	}
	return h
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
// a fresh slice the caller owns. It panics, naming the first such
// switch, when a switch cannot reach the controller: it has no control
// channel to give a latency.
func (t *Topology) ControlLatencies(controller NodeID) []time.Duration {
	dist := t.Distances(controller, ByLatency)
	out := make([]time.Duration, len(dist))
	for i, d := range dist {
		if math.IsInf(d, 1) {
			panic(fmt.Sprintf("topo: switch %d %q unreachable from controller %d on %q", i, t.nodes[i].Name, controller, t.Name))
		}
		out[i] = time.Duration(d * float64(time.Second))
	}
	return out
}
