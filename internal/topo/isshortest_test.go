package topo

import (
	"slices"
	"testing"
	"time"
)

// checkIsShortestPath holds IsShortestPath to building the path: for
// every ordered node pair of g, including a node with itself, the
// shortest path and every one-hop perturbation of it (one node swapped
// for another neighbour of its predecessor, or one node repeated) are
// accepted exactly when they equal ShortestPath between their own
// endpoints.
func checkIsShortestPath(t *testing.T, g *Topology, w Weight) {
	t.Helper()
	check := func(p []NodeID) {
		want := equalPath(g.ShortestPath(p[0], p[len(p)-1], w), p)
		if got := g.IsShortestPath(p, w); got != want {
			t.Fatalf("%s: IsShortestPath(%v, %v) = %v, ShortestPath gives %v", g.Name, p, w, got, want)
		}
	}
	for _, s := range g.Nodes() {
		check([]NodeID{s})
		for _, d := range g.Nodes() {
			sp := g.ShortestPath(s, d, w)
			if sp == nil {
				continue
			}
			check(sp)
			for i := range sp {
				check(slices.Insert(slices.Clone(sp), i, sp[i]))
			}
			for i := 1; i < len(sp); i++ {
				for _, nb := range neighbors(g, sp[i-1]) {
					if nb != sp[i] {
						p := slices.Clone(sp)
						p[i] = nb
						check(p)
					}
				}
			}
		}
	}
}

// TestIsShortestPathMatchesShortestPath checks IsShortestPath against
// ShortestPath on a jittered fat-tree K=4 under both weights, and again
// after a latency change the cached trees are repaired for.
func TestIsShortestPathMatchesShortestPath(t *testing.T) {
	g := jitteredFatTree(4, 1)
	for _, w := range []Weight{ByLatency, ByHops} {
		checkIsShortestPath(t, g, w)
	}
	// Slow a link on a cached shortest path until the path moves off it.
	edges := EdgeSwitches(g)
	sp := g.ShortestPath(edges[0], edges[len(edges)-1], ByLatency)
	l, _ := g.LinkBetween(sp[1], sp[2])
	g.SetLinkLatency(l.ID, 10*l.Latency+time.Millisecond)
	if g.IsShortestPath(sp, ByLatency) {
		t.Fatalf("path %v still shortest after slowing link %d", sp, l.ID)
	}
	for _, w := range []Weight{ByLatency, ByHops} {
		checkIsShortestPath(t, g, w)
	}
}

// TestIsShortestPathUnreachable: on a graph of two components, no path
// between them is a shortest path, and each component's own answers
// still match.
func TestIsShortestPathUnreachable(t *testing.T) {
	g := New("two-components")
	for range 5 {
		g.AddNode("", 0, 0)
	}
	g.AddLink(0, 1, time.Millisecond, 1)
	g.AddLink(1, 2, time.Millisecond, 1)
	g.AddLink(3, 4, time.Millisecond, 1)
	for _, p := range [][]NodeID{{0, 3}, {0, 1, 2, 3}, {2, 4}, {4, 3, 0}} {
		if g.IsShortestPath(p, ByLatency) {
			t.Errorf("IsShortestPath(%v) = true across components", p)
		}
	}
	checkIsShortestPath(t, g, ByLatency)
}

// TestIsShortestPathTrivial: a single node is its own shortest path; an
// empty path names no endpoints and is none.
func TestIsShortestPathTrivial(t *testing.T) {
	g := Synthetic()
	for _, n := range g.Nodes() {
		if !g.IsShortestPath([]NodeID{n}, ByHops) {
			t.Errorf("IsShortestPath([%d]) = false", n)
		}
	}
	if g.IsShortestPath(nil, ByHops) || g.IsShortestPath([]NodeID{}, ByHops) {
		t.Error("IsShortestPath of an empty path = true")
	}
}

// TestIsShortestPathDoesNotAllocate: on a cached tree, checking a path
// builds nothing.
func TestIsShortestPathDoesNotAllocate(t *testing.T) {
	g := B4()
	p := g.ShortestPath(0, NodeID(g.NumNodes()-1), ByLatency)
	if n := testing.AllocsPerRun(100, func() { g.IsShortestPath(p, ByLatency) }); n != 0 {
		t.Errorf("IsShortestPath allocates %v times, want 0", n)
	}
}
