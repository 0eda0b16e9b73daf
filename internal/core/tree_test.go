package core_test

import (
	"testing"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/core"
	"p4update/internal/packet"
	"p4update/internal/topo"
)

// altTree returns a spanning tree toward root that differs from the
// shortest-path tree: each node prefers its second-best adjacent parent
// when that keeps the relation a valid tree.
func altTree(g *topo.Topology, root topo.NodeID, base controlplane.Tree) controlplane.Tree {
	alt := controlplane.Tree{}
	for n, p := range base {
		alt[n] = p
	}
	for _, n := range g.Nodes() {
		if n == root {
			continue
		}
		for p := 0; p < g.Degree(n); p++ {
			nb, _ := g.NeighborAt(n, topo.PortID(p))
			if nb == alt[n] {
				continue
			}
			old := alt[n]
			alt[n] = nb
			if _, err := controlplane.TreeDepths(g, root, alt); err == nil {
				break // keep the change
			}
			alt[n] = old
		}
	}
	return alt
}

// checkTreeInvariant asserts every node's trace reaches the root without
// loops after every event.
func checkTreeInvariant(t *testing.T, tb *testbed, f packet.FlowID, root topo.NodeID) {
	t.Helper()
	limit := tb.topo.NumNodes() + 2
	for tb.eng.Step() {
		for _, n := range tb.topo.Nodes() {
			visited, delivered := tb.net.TracePath(f, n, limit)
			seen := map[topo.NodeID]bool{}
			for _, v := range visited {
				if seen[v] {
					t.Fatalf("t=%v: loop in destination tree from %d: %v", tb.eng.Now(), n, visited)
				}
				seen[v] = true
			}
			if !delivered || visited[len(visited)-1] != root {
				t.Fatalf("t=%v: node %d cannot reach root: %v", tb.eng.Now(), n, visited)
			}
		}
		if tb.eng.Steps() > 2_000_000 {
			t.Fatal("runaway")
		}
	}
}

func TestDestinationTreeUpdate(t *testing.T) {
	// §11 "Destination-Based Routing": migrate the whole destination tree
	// with a verified single-layer update fanning out from the root.
	g := topo.Synthetic()
	tb := newTestbed(g, 41, &core.Protocol{})
	root := topo.NodeID(7)
	base := controlplane.ShortestPathTree(g, root)
	f, err := tb.ctl.RegisterTree(root, base, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Every node can reach the root initially.
	for _, n := range g.Nodes() {
		if _, delivered := tb.net.TracePath(f, n, 12); !delivered {
			t.Fatalf("node %d cannot reach root before update", n)
		}
	}
	next := altTree(g, root, base)
	changed := 0
	for n := range next {
		if next[n] != base[n] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("alternate tree identical to base; fixture broken")
	}
	u, err := tb.ctl.TriggerTreeUpdate(f, next)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeInvariant(t, tb, f, root)
	if !u.Done() {
		t.Fatal("tree update did not complete")
	}
	// The forwarding state equals the new tree.
	for n, parent := range next {
		st, ok := tb.net.Switch(n).PeekState(f)
		if !ok || !st.HasRule {
			t.Fatalf("node %d lost its rule", n)
		}
		nb, _ := g.NeighborAt(n, st.EgressPort)
		if nb != parent {
			t.Errorf("node %d forwards to %d, want %d", n, nb, parent)
		}
	}
}

func TestDestinationTreeUpdateWithStragglers(t *testing.T) {
	g := topo.B4()
	tb := newTestbed(g, 42, &core.Protocol{})
	rng := tb.eng.Rand()
	tb.net.SetInstallDelay(func() time.Duration {
		return time.Duration(rng.ExpFloat64() * float64(50*time.Millisecond))
	})
	root := topo.NodeID(4) // Atlanta
	base := controlplane.ShortestPathTree(g, root)
	f, err := tb.ctl.RegisterTree(root, base, 100)
	if err != nil {
		t.Fatal(err)
	}
	u, err := tb.ctl.TriggerTreeUpdate(f, altTree(g, root, base))
	if err != nil {
		t.Fatal(err)
	}
	checkTreeInvariant(t, tb, f, root)
	if !u.Done() {
		t.Fatal("tree update with stragglers did not complete")
	}
}

func TestDestinationTreeRejectsBadTree(t *testing.T) {
	g := topo.Synthetic()
	tb := newTestbed(g, 43, &core.Protocol{})
	root := topo.NodeID(7)
	f, _ := tb.ctl.RegisterTree(root, controlplane.ShortestPathTree(g, root), 100)
	if _, err := tb.ctl.TriggerTreeUpdate(f, controlplane.Tree{1: 2, 2: 1}); err == nil {
		t.Error("cyclic tree accepted")
	}
	if _, err := tb.ctl.TriggerTreeUpdate(999, nil); err == nil {
		t.Error("unknown destination flow accepted")
	}
}
