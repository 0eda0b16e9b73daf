package topo

import (
	"testing"
	"time"
)

func TestSynthetic(t *testing.T) {
	g := Synthetic()
	if g.NumNodes() != 8 || g.NumLinks() != 10 {
		t.Fatalf("synthetic: %d nodes, %d links", g.NumNodes(), g.NumLinks())
	}
	if !connected(g) {
		t.Fatal("synthetic not connected")
	}
	oldP, newP := SyntheticPaths()
	if err := g.ValidatePath(oldP); err != nil {
		t.Errorf("old path invalid: %v", err)
	}
	if err := g.ValidatePath(newP); err != nil {
		t.Errorf("new path invalid: %v", err)
	}
	for _, l := range g.Links() {
		if l.Latency != 20*time.Millisecond {
			t.Errorf("link %d latency = %v, want 20ms", l.ID, l.Latency)
		}
	}
}

func TestEvaluationTopologySizes(t *testing.T) {
	// The 2-tuples of the paper's Fig. 8: (#nodes, #edges).
	cases := []struct {
		g            *Topology
		nodes, edges int
	}{
		{B4(), 12, 19},
		{Internet2(), 16, 26},
		{AttMpls(), 25, 56},
		{Chinanet(), 38, 62},
	}
	for _, c := range cases {
		if c.g.NumNodes() != c.nodes || c.g.NumLinks() != c.edges {
			t.Errorf("%s: %d nodes, %d edges; want %d, %d",
				c.g.Name, c.g.NumNodes(), c.g.NumLinks(), c.nodes, c.edges)
		}
		if !connected(c.g) {
			t.Errorf("%s not connected", c.g.Name)
		}
	}
}

func TestWANLatenciesPlausible(t *testing.T) {
	g := B4()
	or, _ := g.NodeByName("Oregon")
	tw, _ := g.NodeByName("Taiwan")
	l, ok := g.LinkBetween(or, tw)
	if !ok {
		t.Fatal("no Oregon-Taiwan link")
	}
	// Trans-pacific: roughly 9700 km -> ~48 ms one way at 2e8 m/s.
	if l.Latency < 30*time.Millisecond || l.Latency > 80*time.Millisecond {
		t.Errorf("trans-pacific latency = %v, implausible", l.Latency)
	}
	ca, _ := g.NodeByName("California")
	l2, _ := g.LinkBetween(or, ca)
	if l2.Latency >= l.Latency {
		t.Error("Oregon-California should be much shorter than Oregon-Taiwan")
	}
}

func TestFatTree(t *testing.T) {
	g := FatTree(4)
	// K=4: 4 core + 4 pods * (2 agg + 2 edge) = 20 switches, 32 links.
	if g.NumNodes() != 20 {
		t.Fatalf("fat-tree nodes = %d, want 20", g.NumNodes())
	}
	if g.NumLinks() != 32 {
		t.Fatalf("fat-tree links = %d, want 32", g.NumLinks())
	}
	if !connected(g) {
		t.Fatal("fat-tree not connected")
	}
	edges := EdgeSwitches(g)
	if len(edges) != 8 {
		t.Fatalf("edge switches = %d, want 8", len(edges))
	}
	// Any two edge switches in different pods are 4 hops apart.
	p := g.ShortestPath(edges[0], edges[7], ByHops)
	if len(p) != 5 {
		t.Errorf("cross-pod path %v, want 5 nodes", p)
	}
	// Fat-tree has many equal-cost paths: k-shortest must find several.
	paths := g.KShortestPaths(edges[0], edges[7], 4, ByHops)
	if len(paths) != 4 {
		t.Errorf("found %d paths, want 4", len(paths))
	}
}

func TestFatTreeOddKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FatTree(3)
}

func TestFig2Scenario(t *testing.T) {
	g, a, b, c := Fig2Scenario()
	if g.NumNodes() != 5 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Every next-hop must be an adjacent node.
	for name, cfg := range map[string]map[NodeID]NodeID{"a": a, "b": b, "c": c} {
		for from, to := range cfg {
			if g.PortTo(from, to) == InvalidPort {
				t.Errorf("config %s: %d->%d not adjacent", name, from, to)
			}
		}
	}
	// Mixing (c) with v2 from (a) yields the loop v3->v1->v2->v3.
	mixed := map[NodeID]NodeID{0: 3, 3: 1, 1: 2, 2: 3}
	cur := NodeID(0)
	seen := map[NodeID]int{}
	for i := 0; i < 10; i++ {
		cur = mixed[cur]
		seen[cur]++
	}
	if seen[1] < 2 || seen[2] < 2 || seen[3] < 2 {
		t.Error("expected forwarding loop through v1,v2,v3 in the mixed config")
	}
}

func TestHaversine(t *testing.T) {
	// New York to Los Angeles: ~3940 km.
	km := HaversineKm(40.71, -74.01, 34.05, -118.24)
	if km < 3700 || km > 4100 {
		t.Errorf("NY-LA distance = %.0f km, implausible", km)
	}
	if HaversineKm(10, 20, 10, 20) != 0 {
		t.Error("identical points should be 0 km apart")
	}
}

func TestGeoLatencyFloor(t *testing.T) {
	if GeoLatency(1, 1, 1, 1) != 100*time.Microsecond {
		t.Error("co-located latency should hit the 100µs floor")
	}
}

func TestGeoMeshEdgeBudgetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	geoMesh("x", []string{"a", "b"}, [][2]float64{{0, 0}, {1, 1}}, 5)
}
