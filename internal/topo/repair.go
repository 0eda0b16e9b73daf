package topo

import (
	"math"
	"time"
)

// Incremental oracle repair after a single-link latency change
// (Topology.SetLinkLatency). Flushing every memoized tree and spur path
// whenever a latency moves would make every live flow's next path query
// a cold Dijkstra: under streaming churn a reroute perturbs one link
// every few hundred microseconds of virtual time. Repair instead:
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
//   - cached Yen spur paths: dropped when the path crosses the link, or
//     — on a decrease — when a lower bound on the best path through the
//     link (endpoint sweeps + new weight) could undercut the cached
//     cost. Everything else is untouched.
//
// ByHops entries ignore latency entirely and always survive.
//
// Caveat (documented in DESIGN.md): a kept spur entry or a repaired
// tree is guaranteed to hold the paths of a full recompute only when
// shortest paths are unique. Under exact float-cost ties the global
// heap pop order that breaks ties can shift, so equal-cost topologies
// (e.g. a fat-tree with uniform link latencies) should jitter weights
// before relying on repair for path — not distance — identity.
// Distances are exact either way.

// linkLatencyChanged repairs the memoized caches after link l's latency
// changed from oldLat to its current value. Called by SetLinkLatency
// with the topology already mutated.
func (o *PathOracle) linkLatencyChanged(l Link, oldLat time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.tree == nil || o.version != o.t.version {
		// Caches empty or already pending a full flush: nothing to repair.
		return
	}
	newW := l.Latency.Seconds()
	decrease := newW < oldLat.Seconds()
	o.haveCentroid = false

	// Pass 1: shortest-path trees, repaired in place. Inserting during
	// range is not safe, so fresh endpoint sweeps (pass 2) wait until
	// this loop is done.
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

	// Pass 2: scoped spur-path invalidation. On a decrease the only way a
	// cached path goes stale without crossing the link is a new, cheaper
	// route through it; dA/dB bound that route's cost from below (the
	// unconstrained distances can only undercut the avoid-set ones). The
	// endpoint sweeps are fetched for the first entry that needs them.
	var dA, dB []float64
	for k, e := range o.path {
		if k.w != ByLatency {
			continue
		}
		if pathUsesLink(e.path, l) {
			delete(o.path, k)
			continue
		}
		if decrease {
			if dA == nil {
				dA = o.treeLocked(l.A, ByLatency).d
				dB = o.treeLocked(l.B, ByLatency).d
			}
			lb := dA[k.src] + newW + dB[k.dst]
			if alt := dB[k.src] + newW + dA[k.dst]; alt < lb {
				lb = alt
			}
			// Small relative slack: lb and cost come from different
			// float addition orders, so a mathematically-equal route
			// can land a few ulps on either side. Over-deleting is
			// always safe; keeping a beatable entry is not.
			if lb <= e.cost+e.cost*1e-9+1e-12 {
				delete(o.path, k)
			}
		}
	}
}

// repairDecrease applies the dynamic-SSSP decrease pass to one cached
// tree in place: seed the frontier with the endpoint the cheaper link
// now improves, then relax outward until no distance drops, re-parenting
// every node whose distance does. Callers hold o.mu; tr's slices are
// cache-owned and of len NumNodes.
func (o *PathOracle) repairDecrease(tr spTree, l Link, newW float64) {
	d, prev := tr.d, tr.prev
	for i := range o.pos {
		o.pos[i] = -1
	}
	o.h = o.h[:0]
	if alt := d[l.A] + newW; alt < d[l.B] {
		d[l.B] = alt
		prev[l.B] = l.A
		o.hPush(l.B, alt)
	}
	if alt := d[l.B] + newW; alt < d[l.A] {
		d[l.A] = alt
		prev[l.A] = l.B
		o.hPush(l.A, alt)
	}
	o.relaxFromHeap(d, prev, ByLatency)
}

// repairIncrease repairs one cached tree in place after link l got
// heavier. Callers hold o.mu; l already carries the new latency.
func (o *PathOracle) repairIncrease(tr spTree, l Link) {
	d, prev := tr.d, tr.prev
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
		o.pos[v] = -1
	}
	t := o.t
	o.h = o.h[:0]
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
			o.hPush(NodeID(v), d[v])
		}
	}
	// Settle the subtree; nodes outside it cannot improve.
	o.relaxFromHeap(d, prev, ByLatency)
}

// relaxFromHeap runs Dijkstra's main loop over the seeded frontier in
// o.h, lowering d and re-parenting prev: the one relaxation loop behind
// the full sweep and both repairs. Its heap discipline mirrors spurPath's
// (and the original container/heap implementation's) exactly. Callers
// hold o.mu.
func (o *PathOracle) relaxFromHeap(d []float64, prev []NodeID, w Weight) {
	t := o.t
	for len(o.h) > 0 {
		cur := o.hPop()
		for _, ad := range t.adj[cur.node] {
			alt := cur.dist + t.edgeWeight(t.links[ad.link], w)
			if alt < d[ad.neighbor] {
				d[ad.neighbor] = alt
				prev[ad.neighbor] = cur.node
				if o.pos[ad.neighbor] >= 0 {
					o.hFix(ad.neighbor, alt)
				} else {
					o.hPush(ad.neighbor, alt)
				}
			}
		}
	}
}

// pathUsesLink reports whether p traverses l in either direction. A nil
// (unreachable) cached path trivially does not.
func pathUsesLink(p []NodeID, l Link) bool {
	for i := 0; i+1 < len(p); i++ {
		if (p[i] == l.A && p[i+1] == l.B) || (p[i] == l.B && p[i+1] == l.A) {
			return true
		}
	}
	return false
}
