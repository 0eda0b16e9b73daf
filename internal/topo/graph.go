// Package topo models network topologies: nodes with geographic
// coordinates, capacity-annotated bidirectional links with per-node port
// numbering, and path computation (shortest and k-shortest paths).
//
// The evaluation topologies of the paper (the Fig-1 synthetic network, B4,
// Internet2, AttMpls, Chinanet and a K=4 fat-tree) are provided as builders.
package topo

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// NodeID identifies a node (switch) within a Topology.
type NodeID int32

// PortID is a node-local port index. Port p of node n attaches to exactly
// one link; the controller channel is not a port.
type PortID int32

// InvalidPort is returned when no port matches a query.
const InvalidPort PortID = -1

// LinkID identifies an undirected link within a Topology.
type LinkID int32

// Node is a switch with an optional geographic position (degrees).
type Node struct {
	ID   NodeID
	Name string
	Lat  float64
	Lon  float64
}

// Link is an undirected edge between two nodes. Capacity is the per
// direction capacity in abstract bandwidth units (we use Mbps).
type Link struct {
	ID       LinkID
	A, B     NodeID
	PortA    PortID // local port at A facing B
	PortB    PortID // local port at B facing A
	Latency  time.Duration
	Capacity float64
}

// Other returns the endpoint of l that is not n.
func (l Link) Other(n NodeID) NodeID {
	if l.A == n {
		return l.B
	}
	return l.A
}

// PortAt returns the local port of l at node n.
func (l Link) PortAt(n NodeID) PortID {
	if l.A == n {
		return l.PortA
	}
	return l.PortB
}

// adjacency is one outgoing attachment of a node.
type adjacency struct {
	neighbor NodeID
	port     PortID
	link     LinkID
}

// Topology is a connected undirected graph of switches.
type Topology struct {
	Name  string
	nodes []Node
	links []Link
	adj   [][]adjacency // indexed by NodeID, ordered by PortID

	// latSec[id] is links[id].Latency.Seconds(), the ByLatency edge
	// weight every Dijkstra relaxation reads; AddLink and SetLinkLatency
	// keep it in step.
	latSec []float64

	// version counts mutations (AddNode/AddLink); the PathOracle uses
	// it to invalidate memoized path computations.
	version uint64
	oracle  *PathOracle
	once    sync.Once

	// frozen marks the topology immutable (set by Freeze).
	frozen atomic.Bool
}

// New returns an empty topology with the given name.
func New(name string) *Topology {
	return &Topology{Name: name}
}

// AddNode appends a node and returns its ID. It panics on a frozen
// topology.
func (t *Topology) AddNode(name string, lat, lon float64) NodeID {
	t.mustNotBeFrozen("AddNode")
	id := NodeID(len(t.nodes))
	t.nodes = append(t.nodes, Node{ID: id, Name: name, Lat: lat, Lon: lon})
	t.adj = append(t.adj, nil)
	t.version++
	return id
}

// AddLink connects a and b with the given latency and per-direction
// capacity, allocating the next free port at each endpoint.
func (t *Topology) AddLink(a, b NodeID, latency time.Duration, capacity float64) LinkID {
	t.mustNotBeFrozen("AddLink")
	if a == b {
		panic(fmt.Sprintf("topo: self-loop at node %d", a))
	}
	if int(a) >= len(t.nodes) || int(b) >= len(t.nodes) || a < 0 || b < 0 {
		panic(fmt.Sprintf("topo: AddLink with unknown node %d-%d", a, b))
	}
	for _, ad := range t.adj[a] {
		if ad.neighbor == b {
			panic(fmt.Sprintf("topo: duplicate link %d-%d", a, b))
		}
	}
	id := LinkID(len(t.links))
	pa := PortID(len(t.adj[a]))
	pb := PortID(len(t.adj[b]))
	t.links = append(t.links, Link{
		ID: id, A: a, B: b, PortA: pa, PortB: pb,
		Latency: latency, Capacity: capacity,
	})
	t.latSec = append(t.latSec, latency.Seconds())
	t.adj[a] = append(t.adj[a], adjacency{neighbor: b, port: pa, link: id})
	t.adj[b] = append(t.adj[b], adjacency{neighbor: a, port: pb, link: id})
	t.version++
	return id
}

// SetLinkLatency changes the propagation latency of link id in place.
// Unlike AddNode/AddLink it does NOT bump the mutation version: the
// path oracle is repaired incrementally (shortest-path trees re-relaxed
// in place — from the link's endpoints on a decrease, over the subtree
// below the link on an increase; see repair.go) instead of being
// flushed. Distance slices previously
// returned by Distances are repaired in place, so holders observe the
// post-change values. It panics on a frozen topology.
func (t *Topology) SetLinkLatency(id LinkID, latency time.Duration) {
	t.mustNotBeFrozen("SetLinkLatency")
	if id < 0 || int(id) >= len(t.links) {
		panic(fmt.Sprintf("topo: SetLinkLatency with unknown link %d", id))
	}
	l := &t.links[id]
	if l.Latency == latency {
		return
	}
	old := l.Latency
	l.Latency = latency
	t.latSec[id] = latency.Seconds()
	if t.oracle != nil {
		t.oracle.linkLatencyChanged(*l, old)
	}
}

// Freeze marks the topology immutable: AddNode, AddLink and
// SetLinkLatency panic from then on. A frozen topology never bumps its
// version or repairs its oracle, so every trial of a grid can share it
// and its PathOracle read-only. Freeze is idempotent and safe for
// concurrent use.
func (t *Topology) Freeze() { t.frozen.Store(true) }

// Frozen reports whether Freeze has been called.
func (t *Topology) Frozen() bool { return t.frozen.Load() }

// mustNotBeFrozen panics when a mutation reaches a frozen topology.
func (t *Topology) mustNotBeFrozen(op string) {
	if t.Frozen() {
		panic(fmt.Sprintf("topo: %s on frozen topology %q", op, t.Name))
	}
}

// Version counts topology mutations. The PathOracle compares it against
// the version its cache was filled at to decide when to flush.
func (t *Topology) Version() uint64 { return t.version }

// Oracle returns the topology's memoizing path oracle, creating it on
// first use. Creation is guarded by a sync.Once so concurrent readers
// (parallel trial workers sharing a topology) are safe.
func (t *Topology) Oracle() *PathOracle {
	t.once.Do(func() { t.oracle = newPathOracle(t) })
	return t.oracle
}

// NumNodes returns the node count.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumLinks returns the undirected link count.
func (t *Topology) NumLinks() int { return len(t.links) }

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) Node { return t.nodes[id] }

// Nodes returns all node IDs in order.
func (t *Topology) Nodes() []NodeID {
	ids := make([]NodeID, len(t.nodes))
	for i := range ids {
		ids[i] = NodeID(i)
	}
	return ids
}

// NodeByName returns the first node with the given name.
func (t *Topology) NodeByName(name string) (NodeID, bool) {
	for _, n := range t.nodes {
		if n.Name == name {
			return n.ID, true
		}
	}
	return 0, false
}

// Link returns the link with the given ID.
func (t *Topology) Link(id LinkID) Link { return t.links[id] }

// Links returns a copy of all links.
func (t *Topology) Links() []Link {
	out := make([]Link, len(t.links))
	copy(out, t.links)
	return out
}

// Degree returns the number of links attached to n.
func (t *Topology) Degree(n NodeID) int { return len(t.adj[n]) }

// Neighbors returns n's neighbors in port order.
func (t *Topology) Neighbors(n NodeID) []NodeID {
	out := make([]NodeID, len(t.adj[n]))
	for i, ad := range t.adj[n] {
		out[i] = ad.neighbor
	}
	return out
}

// PortTo returns the local port of n that faces neighbor, or InvalidPort.
func (t *Topology) PortTo(n, neighbor NodeID) PortID {
	for _, ad := range t.adj[n] {
		if ad.neighbor == neighbor {
			return ad.port
		}
	}
	return InvalidPort
}

// NeighborAt returns the neighbor reached through port p of n.
func (t *Topology) NeighborAt(n NodeID, p PortID) (NodeID, bool) {
	if p < 0 || int(p) >= len(t.adj[n]) {
		return 0, false
	}
	return t.adj[n][p].neighbor, true
}

// LinkAt returns the link attached to port p of n.
func (t *Topology) LinkAt(n NodeID, p PortID) (Link, bool) {
	if p < 0 || int(p) >= len(t.adj[n]) {
		return Link{}, false
	}
	return t.links[t.adj[n][p].link], true
}

// LinkBetween returns the link connecting a and b, if any.
func (t *Topology) LinkBetween(a, b NodeID) (Link, bool) {
	for _, ad := range t.adj[a] {
		if ad.neighbor == b {
			return t.links[ad.link], true
		}
	}
	return Link{}, false
}

// Latency returns the propagation latency between adjacent nodes a and b.
// It panics if a and b are not adjacent.
func (t *Topology) Latency(a, b NodeID) time.Duration {
	l, ok := t.LinkBetween(a, b)
	if !ok {
		panic(fmt.Sprintf("topo: Latency(%d,%d): not adjacent", a, b))
	}
	return l.Latency
}

// Connected reports whether the graph is connected.
func (t *Topology) Connected() bool {
	if len(t.nodes) == 0 {
		return true
	}
	seen := make([]bool, len(t.nodes))
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ad := range t.adj[n] {
			if !seen[ad.neighbor] {
				seen[ad.neighbor] = true
				count++
				stack = append(stack, ad.neighbor)
			}
		}
	}
	return count == len(t.nodes)
}

// PathLatency returns the summed link latency along path (a node sequence
// of adjacent nodes).
func (t *Topology) PathLatency(path []NodeID) time.Duration {
	var d time.Duration
	for i := 0; i+1 < len(path); i++ {
		d += t.Latency(path[i], path[i+1])
	}
	return d
}

// ValidatePath reports an error unless path is a sequence of distinct,
// pairwise-adjacent nodes. It allocates nothing on a valid path: a
// repeat is found by scanning the prefix, which for the few hops of a
// route is cheaper than any set.
func (t *Topology) ValidatePath(path []NodeID) error {
	if len(path) == 0 {
		return fmt.Errorf("empty path")
	}
	for i, n := range path {
		if n < 0 || int(n) >= len(t.nodes) {
			return fmt.Errorf("unknown node %d at position %d", n, i)
		}
		if slices.Contains(path[:i], n) {
			return fmt.Errorf("node %d repeats at position %d", n, i)
		}
		if i+1 < len(path) {
			if t.PortTo(n, path[i+1]) == InvalidPort {
				return fmt.Errorf("nodes %d and %d not adjacent", n, path[i+1])
			}
		}
	}
	return nil
}
