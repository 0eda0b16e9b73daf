package topo

import (
	"math"
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

// oracleItem is a value-typed Dijkstra frontier entry.
type oracleItem struct {
	node NodeID
	dist float64
}

// dijkstraScratch is the working set of one Dijkstra run, sized to the
// topology's node count: the heap-position array and value-typed heap
// every run uses, the distance/parent arrays of a Yen spur query (a
// full sweep writes straight into the tree it returns), and the spur
// query's blocked sets as mark arrays. KShortestPaths sets and clears
// the marks; at rest they are all false. The PathOracle owns one under
// its mutex.
type dijkstraScratch struct {
	d    []float64
	prev []NodeID
	pos  []int32 // heap index per node, -1 when absent
	h    []oracleItem

	// blockedNode[n]: n lies on the root path before the spur node.
	// blockedNext[n]: the edge spur node -> n continues an accepted path
	// with the same root. Every blocked edge of a spur query leaves its
	// source, so one mark per node, read only while relaxing out of the
	// source, replaces a set of directed edges.
	blockedNode []bool
	blockedNext []bool
}

func newDijkstraScratch(n int) *dijkstraScratch {
	return &dijkstraScratch{
		d:           make([]float64, n),
		prev:        make([]NodeID, n),
		pos:         make([]int32, n),
		blockedNode: make([]bool, n),
		blockedNext: make([]bool, n),
	}
}

// PathOracle memoizes shortest-path computation over one Topology.
//
// It keeps one cache, flushed wholesale whenever the topology mutates
// (AddNode/AddLink bump Topology.version): one shortest-path tree per
// (source, weight), filled by one full Dijkstra sweep. Distances returns
// the tree's distance slice, and a point-to-point query is an O(hops)
// walk of its parent pointers — one sweep per source, however many
// destinations are asked for. Yen spur queries (spurPath) are not
// memoized: each is one early-exit Dijkstra on the scratch.
//
// The tree walk returns exactly the path an early-exit Dijkstra from the
// same source would have, under any tie-breaking: the full sweep and the
// early-exit run perform the same heap operations in the same order up
// to the pop of dst; every ancestor of dst in prev was popped before
// dst; and a popped node's prev is only overwritten on a strict
// improvement, which cannot happen after its pop.
//
// The sweeps run on a reusable scratch, so a miss allocates only what
// the cache retains. Distance slices are shared and read-only; paths are
// handed out as fresh caller-owned slices.
//
// The oracle is safe for concurrent readers (a mutex serializes
// queries); topology mutation is not concurrent-safe, matching the
// Topology contract. A frozen topology (Topology.Freeze) never mutates,
// so its cache is never flushed and every trial of a grid shares it.
type PathOracle struct {
	t  *Topology
	mu sync.Mutex

	version      uint64
	tree         map[distKey]spTree
	centroid     NodeID
	haveCentroid bool

	// sweeps counts the full single-source Dijkstra runs that filled a
	// cached tree; tests assert that it grows with distinct sources, not
	// with queries. Centroid's scratch sweeps are not counted.
	sweeps uint64

	sc   *dijkstraScratch
	mark []uint8 // repairIncrease's subtree classification
}

func newPathOracle(t *Topology) *PathOracle {
	return &PathOracle{t: t}
}

// refresh flushes the cache if the topology changed and (re)sizes the
// scratch. Callers hold o.mu.
func (o *PathOracle) refresh() {
	if o.tree != nil && o.version == o.t.version {
		return
	}
	o.version = o.t.version
	o.tree = make(map[distKey]spTree)
	o.haveCentroid = false
	if n := o.t.NumNodes(); o.sc == nil || len(o.mark) != n {
		o.sc = newDijkstraScratch(n)
		o.mark = make([]uint8, n)
	}
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

// ShortestPath returns the minimum-weight path from src to dst (nil if
// unreachable), walked out of src's shortest-path tree into a slice the
// caller owns.
func (o *PathOracle) ShortestPath(src, dst NodeID, w Weight) []NodeID {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.refresh()
	p, _ := o.treeLocked(src, w).pathTo(nil, dst)
	return p
}

// treeLocked returns the shortest-path tree from src under w, running
// the sweep on first use. Callers hold o.mu.
func (o *PathOracle) treeLocked(src NodeID, w Weight) spTree {
	k := distKey{src, w}
	tr, ok := o.tree[k]
	if !ok {
		tr = o.sweep(src, w)
		o.tree[k] = tr
	}
	return tr
}

// pathTo walks the tree from dst back to its source and returns root
// followed by that path, source-first, in one fresh exact-size slice,
// with the tree path's cost; nil and +Inf when dst is unreachable. root
// is nil for a plain query and the root path short of the spur node for
// a Yen candidate.
func (tr spTree) pathTo(root []NodeID, dst NodeID) ([]NodeID, float64) {
	if math.IsInf(tr.d[dst], 1) {
		return nil, math.Inf(1)
	}
	n := len(root)
	for v := dst; v != -1; v = tr.prev[v] {
		n++
	}
	path := make([]NodeID, n)
	copy(path, root)
	for v, i := dst, n-1; v != -1; v, i = tr.prev[v], i-1 {
		path[i] = v
	}
	return path, tr.d[dst]
}

// Centroid returns the node minimizing the worst-case latency-weighted
// distance to all other nodes, memoized per topology generation. Each
// node's eccentricity is read off its cached tree when one exists and
// otherwise off a sweep on the scratch, so Centroid leaves the tree
// cache as it found it: latency repair (repair.go) then only has the
// trees path queries asked for to keep up.
func (o *PathOracle) Centroid() NodeID {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.refresh()
	if o.haveCentroid {
		return o.centroid
	}
	best := NodeID(0)
	bestWorst := math.Inf(1)
	sc := o.sc
	for n := range o.t.nodes {
		src := NodeID(n)
		tr, ok := o.tree[distKey{src, ByLatency}]
		if !ok {
			tr = spTree{d: sc.d, prev: sc.prev}
			sc.start(tr, src)
			o.relaxFromHeap(tr.d, tr.prev, ByLatency)
		}
		worst := 0.0
		for _, d := range tr.d {
			if d > worst {
				worst = d
			}
		}
		if worst < bestWorst {
			bestWorst = worst
			best = src
		}
	}
	o.centroid = best
	o.haveCentroid = true
	return best
}

// sweep runs a full single-source Dijkstra into a fresh spTree. Callers
// hold o.mu. The relaxation and heap discipline (relaxFromHeap) are
// spurPath's exactly, so the tree holds the very path an early-exit run
// toward any one destination finds.
func (o *PathOracle) sweep(src NodeID, w Weight) spTree {
	o.sweeps++
	tr := o.sc.newTree(src)
	o.relaxFromHeap(tr.d, tr.prev, w)
	return tr
}

// spurPath is the Yen spur primitive: an early-exit Dijkstra from the
// last node of root toward dst that skips the scratch's blocked nodes
// and, out of the source, its blocked next hops. It returns the whole
// candidate — root with the spur path appended — and the spur path's
// cost. Callers hold o.mu.
func (o *PathOracle) spurPath(root []NodeID, dst NodeID, w Weight) ([]NodeID, float64) {
	t, sc := o.t, o.sc
	src := root[len(root)-1]
	tr := spTree{d: sc.d, prev: sc.prev}
	sc.start(tr, src)
	for len(sc.h) > 0 {
		cur := sc.hPop()
		if cur.node == dst {
			break
		}
		for _, ad := range t.adj[cur.node] {
			if sc.blockedNode[ad.neighbor] || (cur.node == src && sc.blockedNext[ad.neighbor]) {
				continue
			}
			sc.relax(cur, ad.neighbor, t.edgeWeight(ad.link, w))
		}
	}
	return tr.pathTo(root[:len(root)-1], dst)
}

// newTree allocates the tree a full sweep from src fills and starts the
// frontier at src.
func (sc *dijkstraScratch) newTree(src NodeID) spTree {
	tr := spTree{d: make([]float64, len(sc.pos)), prev: make([]NodeID, len(sc.pos))}
	sc.start(tr, src)
	return tr
}

// start resets tr to "nothing reached" and the heap to just src.
func (sc *dijkstraScratch) start(tr spTree, src NodeID) {
	for i := range tr.d {
		tr.d[i] = math.Inf(1)
		tr.prev[i] = -1
		sc.pos[i] = -1
	}
	tr.d[src] = 0
	sc.h = sc.h[:0]
	sc.hPush(src, 0)
}

// relax offers nb the route through the just-popped cur over an edge of
// weight ew, keeping it only on a strict improvement.
func (sc *dijkstraScratch) relax(cur oracleItem, nb NodeID, ew float64) {
	alt := cur.dist + ew
	if alt < sc.d[nb] {
		sc.d[nb] = alt
		sc.prev[nb] = cur.node
		if sc.pos[nb] >= 0 {
			sc.hFix(nb, alt)
		} else {
			sc.hPush(nb, alt)
		}
	}
}

// The heap helpers below replicate container/heap's sift discipline
// (including its tie behaviour) over a value-typed slice with a
// position index, so pop order — and therefore deterministic
// tie-breaking in derived paths — matches the original pointer-heap
// implementation bit for bit.

func (sc *dijkstraScratch) hLess(i, j int) bool { return sc.h[i].dist < sc.h[j].dist }

func (sc *dijkstraScratch) hSwap(i, j int) {
	sc.h[i], sc.h[j] = sc.h[j], sc.h[i]
	sc.pos[sc.h[i].node] = int32(i)
	sc.pos[sc.h[j].node] = int32(j)
}

func (sc *dijkstraScratch) hPush(node NodeID, dist float64) {
	sc.h = append(sc.h, oracleItem{node: node, dist: dist})
	sc.pos[node] = int32(len(sc.h) - 1)
	sc.hUp(len(sc.h) - 1)
}

func (sc *dijkstraScratch) hPop() oracleItem {
	n := len(sc.h) - 1
	sc.hSwap(0, n)
	it := sc.h[n]
	sc.h = sc.h[:n]
	sc.pos[it.node] = -1
	if n > 0 {
		sc.hDown(0, n)
	}
	return it
}

// hFix restores heap order after node's key changed to dist.
func (sc *dijkstraScratch) hFix(node NodeID, dist float64) {
	i := int(sc.pos[node])
	sc.h[i].dist = dist
	if !sc.hDown(i, len(sc.h)) {
		sc.hUp(i)
	}
}

func (sc *dijkstraScratch) hUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !sc.hLess(i, p) {
			break
		}
		sc.hSwap(i, p)
		i = p
	}
}

func (sc *dijkstraScratch) hDown(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && sc.hLess(j2, j1) {
			j = j2
		}
		if !sc.hLess(j, i) {
			break
		}
		sc.hSwap(i, j)
		i = j
	}
	return i > i0
}
