package topo

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Snapshot is an immutable, read-optimized view of a frozen Topology:
// CSR-style adjacency arrays, frozen per-edge weights, and a node-name
// index table, shared read-only by every trial of a figure. Its
// SharedOracle memoizes path computation concurrently (read-mostly,
// single-flight on miss), so each (source, weight) Dijkstra sweep runs
// once per grid instead of once per trial.
//
// A Snapshot is created by Topology.Freeze, which marks the topology
// immutable; all Snapshot methods are safe for concurrent use.
type Snapshot struct {
	t       *Topology
	version uint64

	// CSR adjacency: node n's attachments are rows
	// adjStart[n] .. adjStart[n+1] of the edge arrays, in port order
	// (identical to Topology.adj iteration order, so Dijkstra
	// relaxation order — and therefore tie-breaking — is unchanged).
	adjStart    []int32
	adjNeighbor []NodeID
	adjPort     []PortID
	adjLink     []LinkID
	// wLatency is the frozen ByLatency weight per directed CSR edge
	// (ByHops is the constant 1 and needs no table).
	wLatency []float64

	// nameIndex maps node names to IDs (first occurrence wins, matching
	// Topology.NodeByName's linear scan).
	nameIndex map[string]NodeID

	oracle *SharedOracle
}

// Freeze marks the topology immutable and returns its shared snapshot.
// Further AddNode/AddLink calls panic. Freeze is idempotent and safe
// for concurrent use; every call returns the same Snapshot.
func (t *Topology) Freeze() *Snapshot {
	t.snapOnce.Do(func() {
		t.frozen = true
		t.snap = newSnapshot(t)
	})
	return t.snap
}

// Frozen reports whether Freeze has been called.
func (t *Topology) Frozen() bool { return t.snap != nil }

// snapshot returns the topology's snapshot when frozen, else nil. The
// path wrapper methods use it to route queries to the shared oracle.
func (t *Topology) snapshot() *Snapshot { return t.snap }

func newSnapshot(t *Topology) *Snapshot {
	n := t.NumNodes()
	edges := 0
	for _, row := range t.adj {
		edges += len(row)
	}
	s := &Snapshot{
		t:           t,
		version:     t.version,
		adjStart:    make([]int32, n+1),
		adjNeighbor: make([]NodeID, 0, edges),
		adjPort:     make([]PortID, 0, edges),
		adjLink:     make([]LinkID, 0, edges),
		wLatency:    make([]float64, 0, edges),
		nameIndex:   make(map[string]NodeID, n),
	}
	for i, row := range t.adj {
		s.adjStart[i] = int32(len(s.adjNeighbor))
		for _, ad := range row {
			s.adjNeighbor = append(s.adjNeighbor, ad.neighbor)
			s.adjPort = append(s.adjPort, ad.port)
			s.adjLink = append(s.adjLink, ad.link)
			s.wLatency = append(s.wLatency, t.links[ad.link].Latency.Seconds())
		}
	}
	s.adjStart[n] = int32(len(s.adjNeighbor))
	for i := len(t.nodes) - 1; i >= 0; i-- {
		// Reverse order so the first occurrence of a duplicate name wins.
		s.nameIndex[t.nodes[i].Name] = t.nodes[i].ID
	}
	s.oracle = newSharedOracle(s)
	return s
}

// Topo returns the frozen topology the snapshot was built from.
func (s *Snapshot) Topo() *Topology { return s.t }

// NumNodes returns the node count.
func (s *Snapshot) NumNodes() int { return len(s.adjStart) - 1 }

// Degree returns the number of links attached to n.
func (s *Snapshot) Degree(n NodeID) int {
	return int(s.adjStart[n+1] - s.adjStart[n])
}

// NodeByName returns the first node with the given name via the frozen
// index table.
func (s *Snapshot) NodeByName(name string) (NodeID, bool) {
	id, ok := s.nameIndex[name]
	return id, ok
}

// Oracle returns the snapshot's concurrency-safe shared path oracle.
func (s *Snapshot) Oracle() *SharedOracle { return s.oracle }

// SharedOracle memoizes shortest-path computation over a Snapshot.
//
// Unlike PathOracle (one mutex, per-topology-instance), SharedOracle is
// built for many concurrent readers over one shared snapshot: hits take
// only an RLock, and misses are single-flighted — the first caller of a
// key computes it on pooled scratch while later callers of the same key
// wait for that one computation instead of repeating it.
//
// Like PathOracle it caches one shortest-path tree per (source, weight)
// and walks it for point-to-point queries; Yen spur queries run
// unmemoized on pooled scratch. Cached distance slices are shared and
// read-only, paths are fresh caller-owned slices. The sweep replicates
// PathOracle's heap discipline exactly, so every derived path is
// byte-identical whether a topology is frozen or not.
type SharedOracle struct {
	s *Snapshot

	mu       sync.RWMutex
	tree     map[distKey]spTree
	ctrl     map[NodeID][]time.Duration
	inflight map[interface{}]chan struct{}

	centroidOnce sync.Once
	centroid     NodeID

	scratch sync.Pool
}

func newSharedOracle(s *Snapshot) *SharedOracle {
	o := &SharedOracle{
		s:        s,
		tree:     make(map[distKey]spTree),
		ctrl:     make(map[NodeID][]time.Duration),
		inflight: make(map[interface{}]chan struct{}),
	}
	o.scratch.New = func() interface{} { return newDijkstraScratch(s.NumNodes()) }
	return o
}

// acquire resolves key against cache via lookup (called under RLock),
// single-flighting misses: exactly one caller per key runs compute
// (outside all locks) and publishes via store (called under Lock);
// concurrent callers of the same key block until it lands.
func (o *SharedOracle) acquire(key interface{}, lookup func() bool, compute func(), store func()) {
	for {
		o.mu.RLock()
		hit := lookup()
		o.mu.RUnlock()
		if hit {
			return
		}
		o.mu.Lock()
		if lookup() {
			o.mu.Unlock()
			return
		}
		if done, ok := o.inflight[key]; ok {
			o.mu.Unlock()
			<-done
			continue // re-read the cache; the flight owner stored it
		}
		done := make(chan struct{})
		o.inflight[key] = done
		o.mu.Unlock()

		compute()

		o.mu.Lock()
		store()
		delete(o.inflight, key)
		o.mu.Unlock()
		close(done)
		return
	}
}

// Distances returns minimum weights from src to every node (math.Inf(1)
// for unreachable nodes). The returned slice is cache-owned: read-only.
func (o *SharedOracle) Distances(src NodeID, w Weight) []float64 {
	return o.treeOf(src, w).d
}

// ShortestPath returns the minimum-weight path from src to dst (nil if
// unreachable), walked out of src's shortest-path tree into a slice the
// caller owns.
func (o *SharedOracle) ShortestPath(src, dst NodeID, w Weight) []NodeID {
	p, _ := o.treeOf(src, w).pathTo(nil, dst)
	return p
}

// treeOf returns the shortest-path tree from src under w, sweeping on
// first use.
func (o *SharedOracle) treeOf(src NodeID, w Weight) spTree {
	k := distKey{src, w}
	var tr spTree
	o.acquire(k,
		func() bool { var ok bool; tr, ok = o.tree[k]; return ok },
		func() {
			sc := o.scratch.Get().(*dijkstraScratch)
			tr = o.s.sweep(sc, src, w)
			o.scratch.Put(sc)
		},
		func() { o.tree[k] = tr },
	)
	return tr
}

// Centroid returns the node minimizing the worst-case latency-weighted
// distance to all other nodes, computed once per snapshot.
func (o *SharedOracle) Centroid() NodeID {
	o.centroidOnce.Do(func() {
		best := NodeID(0)
		bestWorst := math.Inf(1)
		for n := 0; n < o.s.NumNodes(); n++ {
			dist := o.Distances(NodeID(n), ByLatency)
			worst := 0.0
			for _, d := range dist {
				if d > worst {
					worst = d
				}
			}
			if worst < bestWorst {
				bestWorst = worst
				best = NodeID(n)
			}
		}
		o.centroid = best
	})
	return o.centroid
}

// ControlLatencies returns the control-channel latency from the
// controller node to every switch, memoized per controller placement.
// The returned slice is cache-owned: read-only.
func (o *SharedOracle) ControlLatencies(controller NodeID) []time.Duration {
	// key type differs from distKey so flights cannot collide.
	type ctrlKey struct{ n NodeID }
	k := ctrlKey{controller}
	var out []time.Duration
	o.acquire(k,
		func() bool { var ok bool; out, ok = o.ctrl[controller]; return ok },
		func() {
			dist := o.Distances(controller, ByLatency)
			out = make([]time.Duration, len(dist))
			for i, d := range dist {
				out[i] = time.Duration(d * float64(time.Second))
			}
		},
		func() { o.ctrl[controller] = out },
	)
	return out
}

// edgeW returns the weight of directed CSR edge ei under w.
func (s *Snapshot) edgeW(ei int32, w Weight) float64 {
	if w == ByHops {
		return 1
	}
	return s.wLatency[ei]
}

// sweep runs a full single-source Dijkstra over the CSR arrays into a
// fresh spTree. The relaxation and heap discipline mirror
// PathOracle.sweep (and thus the original container/heap code) exactly,
// so tie-breaking is byte-identical.
func (s *Snapshot) sweep(sc *dijkstraScratch, src NodeID, w Weight) spTree {
	tr := sc.newTree(src)
	d, prev := tr.d, tr.prev
	for len(sc.h) > 0 {
		cur := sc.hPop()
		for ei := s.adjStart[cur.node]; ei < s.adjStart[cur.node+1]; ei++ {
			nb := s.adjNeighbor[ei]
			alt := cur.dist + s.edgeW(ei, w)
			if alt < d[nb] {
				d[nb] = alt
				prev[nb] = cur.node
				if sc.pos[nb] >= 0 {
					sc.hFix(nb, alt)
				} else {
					sc.hPush(nb, alt)
				}
			}
		}
	}
	return tr
}

// spurPath mirrors PathOracle.spurPath over the CSR arrays.
func (s *Snapshot) spurPath(sc *dijkstraScratch, root []NodeID, dst NodeID, w Weight) ([]NodeID, float64) {
	src := root[len(root)-1]
	tr := spTree{d: sc.d, prev: sc.prev}
	sc.start(tr, src)
	for len(sc.h) > 0 {
		cur := sc.hPop()
		if cur.node == dst {
			break
		}
		for ei := s.adjStart[cur.node]; ei < s.adjStart[cur.node+1]; ei++ {
			nb := s.adjNeighbor[ei]
			if sc.blockedNode[nb] || (cur.node == src && sc.blockedNext[nb]) {
				continue
			}
			sc.relax(cur, nb, s.edgeW(ei, w))
		}
	}
	return tr.pathTo(root[:len(root)-1], dst)
}

// mustNotBeFrozen panics when a mutation reaches a frozen topology.
func (t *Topology) mustNotBeFrozen(op string) {
	if t.frozen {
		panic(fmt.Sprintf("topo: %s on frozen topology %q", op, t.Name))
	}
}
