package topo

import (
	"fmt"
	"testing"
	"time"
)

func line(n int) *Topology {
	t := New("line")
	for i := 0; i < n; i++ {
		t.AddNode("", 0, 0)
	}
	for i := 0; i+1 < n; i++ {
		t.AddLink(NodeID(i), NodeID(i+1), time.Millisecond, 100)
	}
	return t
}

func TestAddLinkPorts(t *testing.T) {
	g := New("t")
	a := g.AddNode("a", 0, 0)
	b := g.AddNode("b", 0, 0)
	c := g.AddNode("c", 0, 0)
	g.AddLink(a, b, time.Millisecond, 10)
	g.AddLink(a, c, time.Millisecond, 10)

	if p := g.PortTo(a, b); p != 0 {
		t.Errorf("PortTo(a,b) = %d, want 0", p)
	}
	if p := g.PortTo(a, c); p != 1 {
		t.Errorf("PortTo(a,c) = %d, want 1", p)
	}
	if p := g.PortTo(b, a); p != 0 {
		t.Errorf("PortTo(b,a) = %d, want 0", p)
	}
	if p := g.PortTo(b, c); p != InvalidPort {
		t.Errorf("PortTo(b,c) = %d, want InvalidPort", p)
	}
	if nb, ok := g.NeighborAt(a, 1); !ok || nb != c {
		t.Errorf("NeighborAt(a,1) = %d,%v, want c,true", nb, ok)
	}
	if _, ok := g.NeighborAt(a, 5); ok {
		t.Error("NeighborAt(a,5) should fail")
	}
	if g.Degree(a) != 2 || g.Degree(b) != 1 {
		t.Errorf("degrees = %d,%d", g.Degree(a), g.Degree(b))
	}
}

func TestLinkOtherAndPortAt(t *testing.T) {
	g := line(2)
	l, ok := g.LinkBetween(0, 1)
	if !ok {
		t.Fatal("no link")
	}
	if l.Other(0) != 1 || l.Other(1) != 0 {
		t.Error("Other broken")
	}
	if l.PortAt(0) != l.PortA || l.PortAt(1) != l.PortB {
		t.Error("PortAt broken")
	}
}

func TestDuplicateLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := line(2)
	g.AddLink(0, 1, time.Millisecond, 1)
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := line(2)
	g.AddLink(0, 0, time.Millisecond, 1)
}

func TestConnected(t *testing.T) {
	g := line(4)
	if !connected(g) {
		t.Error("line should be connected")
	}
	g2 := New("t")
	g2.AddNode("a", 0, 0)
	g2.AddNode("b", 0, 0)
	if connected(g2) {
		t.Error("two isolated nodes should not be connected")
	}
}

func TestShortestPathLine(t *testing.T) {
	g := line(5)
	p := g.ShortestPath(0, 4, ByHops)
	if len(p) != 5 {
		t.Fatalf("path = %v", p)
	}
	for i, n := range p {
		if n != NodeID(i) {
			t.Fatalf("path = %v", p)
		}
	}
	if g.ShortestPath(2, 2, ByHops)[0] != 2 {
		t.Error("self path broken")
	}
}

func TestShortestPathPrefersLowLatency(t *testing.T) {
	g := New("t")
	a := g.AddNode("a", 0, 0)
	b := g.AddNode("b", 0, 0)
	c := g.AddNode("c", 0, 0)
	g.AddLink(a, b, 100*time.Millisecond, 10) // direct but slow
	g.AddLink(a, c, time.Millisecond, 10)
	g.AddLink(c, b, time.Millisecond, 10)
	p := g.ShortestPath(a, b, ByLatency)
	if len(p) != 3 || p[1] != c {
		t.Fatalf("path = %v, want via c", p)
	}
	p = g.ShortestPath(a, b, ByHops)
	if len(p) != 2 {
		t.Fatalf("hop path = %v, want direct", p)
	}
}

func TestKShortestPaths(t *testing.T) {
	// Diamond: two disjoint 2-hop paths plus a 3-hop path.
	g := New("t")
	s := g.AddNode("s", 0, 0)
	a := g.AddNode("a", 0, 0)
	b := g.AddNode("b", 0, 0)
	c := g.AddNode("c", 0, 0)
	d := g.AddNode("d", 0, 0)
	g.AddLink(s, a, time.Millisecond, 10)
	g.AddLink(a, d, time.Millisecond, 10)
	g.AddLink(s, b, 2*time.Millisecond, 10)
	g.AddLink(b, d, 2*time.Millisecond, 10)
	g.AddLink(a, c, time.Millisecond, 10)
	g.AddLink(c, d, time.Millisecond, 10)

	paths := g.KShortestPaths(s, d, 3, ByLatency)
	if len(paths) != 3 {
		t.Fatalf("got %d paths: %v", len(paths), paths)
	}
	if len(paths[0]) != 3 || paths[0][1] != a {
		t.Errorf("1st path = %v, want s,a,d", paths[0])
	}
	// All returned paths must be simple and valid.
	for _, p := range paths {
		if err := g.ValidatePath(p); err != nil {
			t.Errorf("invalid path %v: %v", p, err)
		}
	}
	// Costs must be non-decreasing.
	for i := 1; i < len(paths); i++ {
		if pathLatency(g, paths[i]) < pathLatency(g, paths[i-1]) {
			t.Errorf("path %d cheaper than path %d", i, i-1)
		}
	}
}

func TestKShortestFewerAvailable(t *testing.T) {
	g := line(3)
	paths := g.KShortestPaths(0, 2, 5, ByHops)
	if len(paths) != 1 {
		t.Fatalf("line has one simple path, got %d", len(paths))
	}
}

func TestValidatePath(t *testing.T) {
	g := line(4)
	if err := g.ValidatePath([]NodeID{0, 1, 2, 3}); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	if err := g.ValidatePath([]NodeID{0, 2}); err == nil {
		t.Error("non-adjacent accepted")
	}
	if err := g.ValidatePath([]NodeID{0, 1, 0}); err == nil {
		t.Error("repeated node accepted")
	}
	if err := g.ValidatePath(nil); err == nil {
		t.Error("empty path accepted")
	}
	if err := g.ValidatePath([]NodeID{9}); err == nil {
		t.Error("unknown node accepted")
	}
	// The first offending position is reported, with the checks in
	// their order at each position: unknown node, repeat, then
	// adjacency to the next node.
	for _, c := range []struct {
		path []NodeID
		want string
	}{
		{[]NodeID{0, 1, 2, 1}, "node 1 repeats at position 3"},
		{[]NodeID{0, 1, 0, 9}, "node 0 repeats at position 2"},
		{[]NodeID{9, 9}, "unknown node 9 at position 0"},
		{[]NodeID{0, 1, 2, 3, 2}, "node 2 repeats at position 4"},
		{[]NodeID{0, 2, 2}, "nodes 0 and 2 not adjacent"},
		{[]NodeID{0, 9}, "nodes 0 and 9 not adjacent"},
	} {
		if err := g.ValidatePath(c.path); err == nil || err.Error() != c.want {
			t.Errorf("ValidatePath(%v) = %v, want %q", c.path, err, c.want)
		}
	}
}

// TestValidatePathAllocatesNothing: ValidatePath runs on every flow
// registration and every baseline trigger, so a valid path costs no
// allocation.
func TestValidatePathAllocatesNothing(t *testing.T) {
	g := FatTree(4)
	path := g.ShortestPath(EdgeSwitches(g)[0], EdgeSwitches(g)[7], ByLatency)
	if len(path) < 5 {
		t.Fatalf("want a path through the core, got %v", path)
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := g.ValidatePath(path); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("ValidatePath allocates %v times per call, want 0", a)
	}
}

func TestCentroidLine(t *testing.T) {
	g := line(5)
	c := g.Centroid()
	if c != 2 {
		t.Errorf("centroid of 5-line = %d, want 2", c)
	}
}

func TestControlLatencies(t *testing.T) {
	g := line(3)
	lats := g.ControlLatencies(0)
	if lats[0] != 0 {
		t.Errorf("self latency = %v", lats[0])
	}
	if lats[2] != 2*time.Millisecond {
		t.Errorf("latency to node 2 = %v, want 2ms", lats[2])
	}
}

func TestPathLatency(t *testing.T) {
	g := line(4)
	if got := pathLatency(g, []NodeID{0, 1, 2, 3}); got != 3*time.Millisecond {
		t.Errorf("PathLatency = %v, want 3ms", got)
	}
}

// neighbors returns n's neighbors in port order.
func neighbors(t *Topology, n NodeID) []NodeID {
	out := make([]NodeID, len(t.adj[n]))
	for i, ad := range t.adj[n] {
		out[i] = ad.neighbor
	}
	return out
}

// connected reports whether the graph is connected.
func connected(t *Topology) bool {
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

// pathLatency returns the summed link latency along path, whose nodes
// must be pairwise adjacent.
func pathLatency(t *Topology, path []NodeID) time.Duration {
	var d time.Duration
	for i := 0; i+1 < len(path); i++ {
		l, ok := t.LinkBetween(path[i], path[i+1])
		if !ok {
			panic(fmt.Sprintf("pathLatency: %d and %d are not adjacent", path[i], path[i+1]))
		}
		d += l.Latency
	}
	return d
}
