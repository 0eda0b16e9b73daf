package topo

import (
	"math"
	"sort"
	"sync"
)

// distKey identifies one memoized single-source sweep.
type distKey struct {
	src NodeID
	w   Weight
}

// spTree is one memoized single-source sweep: the distance to every
// node and the shortest-path tree that realizes them (prev[v] is v's
// parent, -1 at the source and at unreachable nodes).
type spTree struct {
	d    []float64
	prev []NodeID
}

// pathKey identifies one memoized Yen spur query. avoid is an FNV-1a
// hash of the sorted, non-empty avoid set, so spur queries with distinct
// blocked sets occupy distinct entries. Unconstrained queries never get
// a pathKey: they are answered from the source's spTree.
type pathKey struct {
	src, dst NodeID
	w        Weight
	avoid    uint64
}

// oracleItem is a value-typed Dijkstra frontier entry.
type oracleItem struct {
	node NodeID
	dist float64
}

// PathOracle memoizes shortest-path computation over one Topology.
//
// It keeps two caches, both flushed wholesale whenever the topology
// mutates (AddNode/AddLink bump Topology.version):
//
//   - tree: one shortest-path tree per (source, weight), filled by one
//     full Dijkstra sweep. Distances returns the tree's distance slice,
//     and an unconstrained point-to-point query is an O(hops) walk of
//     its parent pointers — one sweep per source, however many
//     destinations are asked for.
//   - path: Yen spur queries (non-empty avoid set) per
//     (src, dst, weight, avoid-set-hash), each filled by its own
//     early-exit Dijkstra (spurPath).
//
// The tree walk returns exactly the path an early-exit Dijkstra from the
// same source would have, under any tie-breaking: the full sweep and the
// early-exit run perform the same heap operations in the same order up
// to the pop of dst; every ancestor of dst in prev was popped before
// dst; and a popped node's prev is only overwritten on a strict
// improvement, which cannot happen after its pop.
//
// The sweeps run on reusable scratch buffers (heap-position array and a
// value-typed binary heap), so a miss allocates only what the cache
// retains. Distance slices are shared and read-only; paths are handed
// out as fresh caller-owned slices.
//
// The oracle is safe for concurrent readers (a mutex serializes
// queries); topology mutation is not concurrent-safe, matching the
// Topology contract.
type PathOracle struct {
	t  *Topology
	mu sync.Mutex

	version      uint64
	tree         map[distKey]spTree
	path         map[pathKey]pathEntry
	centroid     NodeID
	haveCentroid bool

	// sweeps counts full single-source Dijkstra runs; tests assert that
	// it grows with distinct sources, not with queries.
	sweeps uint64

	// Dijkstra scratch, sized to the topology's node count. d and prev
	// serve spurPath only: a sweep writes straight into the tree it
	// returns.
	d    []float64
	prev []NodeID
	pos  []int32 // heap index per node, -1 when absent
	h    []oracleItem
	mark []uint8 // repairIncrease's subtree classification
}

func newPathOracle(t *Topology) *PathOracle {
	return &PathOracle{t: t}
}

// refresh flushes the caches if the topology changed and (re)sizes the
// scratch buffers. Callers hold o.mu.
func (o *PathOracle) refresh() {
	if o.tree != nil && o.version == o.t.version {
		return
	}
	o.version = o.t.version
	o.tree = make(map[distKey]spTree)
	o.path = make(map[pathKey]pathEntry)
	o.haveCentroid = false
	n := o.t.NumNodes()
	if cap(o.d) < n {
		o.d = make([]float64, n)
		o.prev = make([]NodeID, n)
		o.pos = make([]int32, n)
		o.mark = make([]uint8, n)
	}
	o.d = o.d[:n]
	o.prev = o.prev[:n]
	o.pos = o.pos[:n]
	o.mark = o.mark[:n]
}

// Distances returns minimum weights from src to every node (math.Inf(1)
// for unreachable nodes). The returned slice is owned by the oracle's
// cache and must not be modified.
func (o *PathOracle) Distances(src NodeID, w Weight) []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.refresh()
	return o.treeLocked(src, w).d
}

// treeLocked returns the shortest-path tree from src under w, running
// the sweep on first use. Callers hold o.mu and must not be mid-range
// over o.tree.
func (o *PathOracle) treeLocked(src NodeID, w Weight) spTree {
	k := distKey{src, w}
	tr, ok := o.tree[k]
	if !ok {
		tr = o.sweep(src, w)
		o.tree[k] = tr
	}
	return tr
}

// shortestAvoiding returns the minimum-weight path from src to dst that
// skips the given nodes and directed edges, and its cost (nil, +Inf when
// unreachable). The caller owns the returned slice. With an empty avoid
// set the answer is walked out of src's shortest-path tree; otherwise it
// is the memoized Yen spur primitive.
func (o *PathOracle) shortestAvoiding(src, dst NodeID, w Weight,
	blockedNodes map[NodeID]bool, blockedEdges map[[2]NodeID]bool) ([]NodeID, float64) {

	o.mu.Lock()
	defer o.mu.Unlock()
	o.refresh()
	if len(blockedNodes) == 0 && len(blockedEdges) == 0 {
		return o.treeLocked(src, w).pathTo(dst)
	}
	k := pathKey{src, dst, w, hashAvoid(blockedNodes, blockedEdges)}
	e, ok := o.path[k]
	if !ok {
		e.path, e.cost = o.spurPath(src, dst, w, blockedNodes, blockedEdges)
		o.path[k] = e
	}
	return clonePath(e.path), e.cost
}

// pathTo walks the tree from dst back to its source and returns the path
// source-first in a fresh slice — built in place, one allocation — with
// its cost; nil and +Inf when dst is unreachable.
func (tr spTree) pathTo(dst NodeID) ([]NodeID, float64) {
	if math.IsInf(tr.d[dst], 1) {
		return nil, math.Inf(1)
	}
	n := 0
	for v := dst; v != -1; v = tr.prev[v] {
		n++
	}
	path := make([]NodeID, n)
	for v, i := dst, n-1; v != -1; v, i = tr.prev[v], i-1 {
		path[i] = v
	}
	return path, tr.d[dst]
}

// Centroid returns the node minimizing the worst-case latency-weighted
// distance to all other nodes, memoized per topology generation.
func (o *PathOracle) Centroid() NodeID {
	o.mu.Lock()
	if o.tree != nil && o.version == o.t.version && o.haveCentroid {
		c := o.centroid
		o.mu.Unlock()
		return c
	}
	o.mu.Unlock()

	best := NodeID(0)
	bestWorst := math.Inf(1)
	for _, n := range o.t.Nodes() {
		dist := o.Distances(n, ByLatency)
		worst := 0.0
		for _, d := range dist {
			if d > worst {
				worst = d
			}
		}
		if worst < bestWorst {
			bestWorst = worst
			best = n
		}
	}

	o.mu.Lock()
	o.refresh()
	o.centroid = best
	o.haveCentroid = true
	o.mu.Unlock()
	return best
}

// sweep runs a full single-source Dijkstra into a fresh spTree. Callers
// hold o.mu. The relaxation and heap discipline (relaxFromHeap) are
// spurPath's exactly, so the tree holds the very path an early-exit run
// toward any one destination finds.
func (o *PathOracle) sweep(src NodeID, w Weight) spTree {
	o.sweeps++
	d := make([]float64, len(o.pos))
	prev := make([]NodeID, len(o.pos))
	for i := range d {
		d[i] = math.Inf(1)
		prev[i] = -1
		o.pos[i] = -1
	}
	d[src] = 0
	o.h = o.h[:0]
	o.hPush(src, 0)
	o.relaxFromHeap(d, prev, w)
	return spTree{d: d, prev: prev}
}

// spurPath runs Dijkstra from src toward dst, skipping the given nodes
// and directed edges, and reconstructs the path into a fresh slice.
// Callers hold o.mu.
func (o *PathOracle) spurPath(src, dst NodeID, w Weight,
	blockedNodes map[NodeID]bool, blockedEdges map[[2]NodeID]bool) ([]NodeID, float64) {

	if src == dst {
		return []NodeID{src}, 0
	}
	t := o.t
	for i := range o.d {
		o.d[i] = math.Inf(1)
		o.prev[i] = -1
		o.pos[i] = -1
	}
	o.d[src] = 0
	o.h = o.h[:0]
	o.hPush(src, 0)
	for len(o.h) > 0 {
		cur := o.hPop()
		if cur.node == dst {
			break
		}
		for _, ad := range t.adj[cur.node] {
			if blockedNodes[ad.neighbor] || blockedEdges[[2]NodeID{cur.node, ad.neighbor}] {
				continue
			}
			alt := cur.dist + t.edgeWeight(t.links[ad.link], w)
			if alt < o.d[ad.neighbor] {
				o.d[ad.neighbor] = alt
				o.prev[ad.neighbor] = cur.node
				if o.pos[ad.neighbor] >= 0 {
					o.hFix(ad.neighbor, alt)
				} else {
					o.hPush(ad.neighbor, alt)
				}
			}
		}
	}
	return spTree{d: o.d, prev: o.prev}.pathTo(dst)
}

// hashAvoid hashes an avoid set deterministically (FNV-1a over the
// sorted members). The empty set hashes to 0.
func hashAvoid(nodes map[NodeID]bool, edges map[[2]NodeID]bool) uint64 {
	if len(nodes) == 0 && len(edges) == 0 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	ns := make([]NodeID, 0, len(nodes))
	for n := range nodes {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	for _, n := range ns {
		mix(uint64(uint32(n)))
	}
	mix(0xffffffffffffffff) // separator between node and edge members
	es := make([][2]NodeID, 0, len(edges))
	for e := range edges {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	for _, e := range es {
		mix(uint64(uint32(e[0]))<<32 | uint64(uint32(e[1])))
	}
	return h
}

// The heap helpers below replicate container/heap's sift discipline
// (including its tie behaviour) over a value-typed slice with a
// position index, so pop order — and therefore deterministic
// tie-breaking in derived paths — matches the original pointer-heap
// implementation bit for bit.

func (o *PathOracle) hLess(i, j int) bool { return o.h[i].dist < o.h[j].dist }

func (o *PathOracle) hSwap(i, j int) {
	o.h[i], o.h[j] = o.h[j], o.h[i]
	o.pos[o.h[i].node] = int32(i)
	o.pos[o.h[j].node] = int32(j)
}

func (o *PathOracle) hPush(node NodeID, dist float64) {
	o.h = append(o.h, oracleItem{node: node, dist: dist})
	o.pos[node] = int32(len(o.h) - 1)
	o.hUp(len(o.h) - 1)
}

func (o *PathOracle) hPop() oracleItem {
	n := len(o.h) - 1
	o.hSwap(0, n)
	it := o.h[n]
	o.h = o.h[:n]
	o.pos[it.node] = -1
	if n > 0 {
		o.hDown(0, n)
	}
	return it
}

// hFix restores heap order after node's key changed to dist.
func (o *PathOracle) hFix(node NodeID, dist float64) {
	i := int(o.pos[node])
	o.h[i].dist = dist
	if !o.hDown(i, len(o.h)) {
		o.hUp(i)
	}
}

func (o *PathOracle) hUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !o.hLess(i, p) {
			break
		}
		o.hSwap(i, p)
		i = p
	}
}

func (o *PathOracle) hDown(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && o.hLess(j2, j1) {
			j = j2
		}
		if !o.hLess(j, i) {
			break
		}
		o.hSwap(i, j)
		i = j
	}
	return i > i0
}
