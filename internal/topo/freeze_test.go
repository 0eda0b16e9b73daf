package topo

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestFreezeIdempotentAndImmutable(t *testing.T) {
	g := B4()
	g.Freeze()
	g.Freeze()
	if !g.Frozen() {
		t.Fatal("Frozen() = false after Freeze")
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on frozen topology did not panic", name)
			}
		}()
		f()
	}
	mustPanic("AddNode", func() { g.AddNode("x", 0, 0) })
	mustPanic("AddLink", func() { g.AddLink(0, 5, 1, 1) })
	mustPanic("SetLinkLatency", func() { g.SetLinkLatency(0, time.Millisecond) })
}

// TestFreezeKeepsEveryAnswer: freezing a topology changes no answer of
// any path query.
func TestFreezeKeepsEveryAnswer(t *testing.T) {
	for _, mk := range []func() *Topology{Synthetic, B4, Internet2, func() *Topology { return FatTree(4) }} {
		frozen := mk()
		frozen.Freeze()
		plain := mk()
		n := plain.NumNodes()
		if frozen.NumNodes() != n {
			t.Fatalf("%s: node count mismatch", plain.Name)
		}
		for src := NodeID(0); int(src) < n; src++ {
			for _, w := range []Weight{ByLatency, ByHops} {
				df := frozen.Distances(src, w)
				dp := plain.Distances(src, w)
				if !reflect.DeepEqual(df, dp) {
					t.Fatalf("%s: Distances(%d,%v) differ", plain.Name, src, w)
				}
			}
			for dst := NodeID(0); int(dst) < n; dst++ {
				pf := frozen.ShortestPath(src, dst, ByLatency)
				pp := plain.ShortestPath(src, dst, ByLatency)
				if !reflect.DeepEqual(pf, pp) {
					t.Fatalf("%s: ShortestPath(%d,%d) = %v, want %v", plain.Name, src, dst, pf, pp)
				}
			}
		}
		// Yen's spur queries (blocked nodes/edges) must also agree.
		kf := frozen.KShortestPaths(0, NodeID(n-1), 5, ByHops)
		kp := plain.KShortestPaths(0, NodeID(n-1), 5, ByHops)
		if !reflect.DeepEqual(kf, kp) {
			t.Fatalf("%s: KShortestPaths differ:\nfrozen %v\nplain  %v", plain.Name, kf, kp)
		}
		if frozen.Centroid() != plain.Centroid() {
			t.Fatalf("%s: Centroid differs", plain.Name)
		}
		if !reflect.DeepEqual(frozen.ControlLatencies(frozen.Centroid()), plain.ControlLatencies(plain.Centroid())) {
			t.Fatalf("%s: ControlLatencies differ", plain.Name)
		}
		for _, node := range []string{plain.nodes[0].Name, plain.nodes[n-1].Name} {
			idF, okF := frozen.NodeByName(node)
			idP, okP := plain.NodeByName(node)
			if idF != idP || okF != okP {
				t.Fatalf("%s: NodeByName(%q) = %d,%v want %d,%v", plain.Name, node, idF, okF, idP, okP)
			}
		}
	}
}

// TestFrozenTopologyConcurrent hammers the PathOracle of one frozen
// topology from 8 goroutines (run under -race via make race), the way
// the trial workers of a grid share it: every worker issues the full
// query mix — distances, shortest paths, Yen spur queries with avoid
// sets, centroid, control latencies — and checks the results against a
// private unfrozen reference topology.
func TestFrozenTopologyConcurrent(t *testing.T) {
	g := Internet2()
	g.Freeze()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ref := Internet2() // private, unfrozen reference
			n := g.NumNodes()
			for iter := 0; iter < 3; iter++ {
				for src := NodeID(0); int(src) < n; src++ {
					// Rotate the starting dst per worker so goroutines
					// race to fill some trees and hit others.
					for d := 0; d < n; d++ {
						dst := NodeID((d + w) % n)
						got := g.ShortestPath(src, dst, ByLatency)
						want := ref.ShortestPath(src, dst, ByLatency)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("worker %d: ShortestPath(%d,%d) = %v, want %v", w, src, dst, got, want)
							return
						}
					}
					gd := g.Distances(src, ByHops)
					rd := ref.Distances(src, ByHops)
					if !reflect.DeepEqual(gd, rd) {
						t.Errorf("worker %d: Distances(%d) differ", w, src)
						return
					}
				}
				if got, want := g.KShortestPaths(0, NodeID(n-1), 4, ByLatency), ref.KShortestPaths(0, NodeID(n-1), 4, ByLatency); !reflect.DeepEqual(got, want) {
					t.Errorf("worker %d: KShortestPaths differ", w)
					return
				}
				if g.Centroid() != ref.Centroid() {
					t.Errorf("worker %d: Centroid differs", w)
					return
				}
				lat := g.ControlLatencies(g.Centroid())
				if !reflect.DeepEqual(lat, ref.ControlLatencies(ref.Centroid())) {
					t.Errorf("worker %d: ControlLatencies differ", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
