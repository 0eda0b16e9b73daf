package topo

import (
	"math"
	"time"
)

// Incremental oracle repair after a single-link latency change
// (Topology.SetLinkLatency). Flushing every memoized tree whenever a
// latency moves would make every live flow's next path query a cold
// Dijkstra: under streaming churn a reroute perturbs one link every few
// hundred microseconds of virtual time. Repair instead:
//
//   - latency decrease: every cached ByLatency shortest-path tree is
//     repaired in place by a bounded Dijkstra seeded from the improved
//     link endpoint (classic dynamic-SSSP decrease pass) that rewrites
//     the parent pointer wherever it lowers a distance. The repaired
//     distances are bit-identical to a full recompute because both take
//     the minimum over the same left-to-right float addition chains.
//   - latency increase: only nodes whose tree path crosses the link can
//     move, i.e. the subtree hanging below the link's child endpoint —
//     the parent pointers make it enumerable. Those nodes are reset,
//     re-seeded from their neighbours outside the subtree and
//     re-relaxed among themselves; a tree that does not use the link as
//     a tree edge is not touched at all. Distances are again the same
//     float chains a full recompute adds up.
//
// Yen spur queries are not memoized, so there is nothing else to repair.
//
// Caveat (documented in DESIGN.md): a repaired tree is guaranteed to
// hold the paths of a full recompute only when shortest paths are
// unique. Under exact float-cost ties the global heap pop order that
// breaks ties can shift, so equal-cost topologies (e.g. a fat-tree with
// uniform link latencies) should jitter weights before relying on
// repair for path — not distance — identity. Distances are exact
// either way.

// linkLatencyChanged repairs the memoized trees after link l's latency
// changed from oldLat to its current value. Called by SetLinkLatency
// with the topology already mutated.
func (o *PathOracle) linkLatencyChanged(l Link, oldLat time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.tree == nil || o.version != o.t.version {
		// Cache empty or already pending a full flush: nothing to repair.
		return
	}
	newW := l.Latency.Seconds()
	decrease := newW < oldLat.Seconds()
	o.haveCentroid = false

	// ByHops trees ignore latency entirely and always survive.
	for k, tr := range o.tree {
		if k.w != ByLatency {
			continue
		}
		if decrease {
			o.repairDecrease(tr, l, newW)
		} else {
			o.repairIncrease(tr, l)
		}
	}
}

// repairDecrease applies the dynamic-SSSP decrease pass to one cached
// tree in place: seed the frontier with the endpoint the cheaper link
// now improves, then relax outward until no distance drops, re-parenting
// every node whose distance does. Callers hold o.mu; tr's slices are
// cache-owned and of len NumNodes.
func (o *PathOracle) repairDecrease(tr spTree, l Link, newW float64) {
	d, prev, sc := tr.d, tr.prev, o.sc
	for i := range sc.pos {
		sc.pos[i] = -1
	}
	sc.h = sc.h[:0]
	if alt := d[l.A] + newW; alt < d[l.B] {
		d[l.B] = alt
		prev[l.B] = l.A
		sc.hPush(l.B, alt)
	}
	if alt := d[l.B] + newW; alt < d[l.A] {
		d[l.A] = alt
		prev[l.A] = l.B
		sc.hPush(l.A, alt)
	}
	o.relaxFromHeap(d, prev, ByLatency)
}

// repairIncrease repairs one cached tree in place after link l got
// heavier. Callers hold o.mu; l already carries the new latency.
func (o *PathOracle) repairIncrease(tr spTree, l Link) {
	d, prev, sc := tr.d, tr.prev, o.sc
	child := l.B
	if prev[l.A] == l.B {
		child = l.A
	} else if prev[l.B] != l.A {
		return // not a tree edge: no tree path crosses l, nothing moves
	}

	// Mark the subtree below child: every node walks up its parent
	// pointers to the first node already classified (or off the root)
	// and hands that class down the trail, so each node is visited a
	// constant number of times.
	const (
		unknown = iota
		outside
		inside
	)
	mark := o.mark
	for i := range mark {
		mark[i] = unknown
	}
	mark[child] = inside
	for v := range mark {
		u := NodeID(v)
		for u != -1 && mark[u] == unknown {
			u = prev[u]
		}
		class := uint8(outside)
		if u != -1 {
			class = mark[u]
		}
		for u = NodeID(v); u != -1 && mark[u] == unknown; u = prev[u] {
			mark[u] = class
		}
	}

	// Reset the subtree, then seed each of its nodes with its best route
	// in from outside (the heavier link included), where distances stand.
	for v := range mark {
		if mark[v] == inside {
			d[v] = math.Inf(1)
			prev[v] = -1
		}
		sc.pos[v] = -1
	}
	t := o.t
	sc.h = sc.h[:0]
	for v := range mark {
		if mark[v] != inside {
			continue
		}
		for _, ad := range t.adj[v] {
			if mark[ad.neighbor] == inside {
				continue
			}
			if alt := d[ad.neighbor] + t.edgeWeight(t.links[ad.link], ByLatency); alt < d[v] {
				d[v] = alt
				prev[v] = ad.neighbor
			}
		}
		if !math.IsInf(d[v], 1) {
			sc.hPush(NodeID(v), d[v])
		}
	}
	// Settle the subtree; nodes outside it cannot improve.
	o.relaxFromHeap(d, prev, ByLatency)
}

// relaxFromHeap runs Dijkstra's main loop over the seeded frontier in
// o.sc.h, lowering d and re-parenting prev: the one relaxation loop behind
// the full sweep and both repairs. Its heap discipline mirrors spurPath's
// (and the original container/heap implementation's) exactly. Callers
// hold o.mu.
func (o *PathOracle) relaxFromHeap(d []float64, prev []NodeID, w Weight) {
	t, sc := o.t, o.sc
	for len(sc.h) > 0 {
		cur := sc.hPop()
		for _, ad := range t.adj[cur.node] {
			alt := cur.dist + t.edgeWeight(t.links[ad.link], w)
			if alt < d[ad.neighbor] {
				d[ad.neighbor] = alt
				prev[ad.neighbor] = cur.node
				if sc.pos[ad.neighbor] >= 0 {
					sc.hFix(ad.neighbor, alt)
				} else {
					sc.hPush(ad.neighbor, alt)
				}
			}
		}
	}
}
