package traffic

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"p4update/internal/controlplane"
	"p4update/internal/topo"
)

func TestGravityDemandsSumToOne(t *testing.T) {
	g := topo.B4()
	rng := rand.New(rand.NewSource(1))
	w := GravityWeights(g, rng)
	var sum float64
	for _, s := range g.Nodes() {
		for _, d := range g.Nodes() {
			sum += gravityDemand(w, weightSum(w), s, d)
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("gravity demands sum to %f, want 1", sum)
	}
}

func TestGravityDemandProperty(t *testing.T) {
	g := topo.Internet2()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := GravityWeights(g, rng)
		for _, x := range w {
			if x <= 0 {
				return false
			}
		}
		return gravityDemand(w, weightSum(w), 0, 1) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiFlowWorkloadInvariants(t *testing.T) {
	for _, mk := range []func() *topo.Topology{topo.B4, topo.Internet2} {
		g := mk()
		rng := rand.New(rand.NewSource(3))
		flows, err := MultiFlowWorkload(g, rng, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if len(flows) == 0 {
			t.Fatalf("%s: empty workload", g.Name)
		}
		seen := map[[2]topo.NodeID]bool{}
		for _, f := range flows {
			if f.Src == f.Dst {
				t.Errorf("%s: self flow", g.Name)
			}
			if seen[[2]topo.NodeID{f.Src, f.Dst}] {
				t.Errorf("%s: duplicate pair (FlowID collision)", g.Name)
			}
			seen[[2]topo.NodeID{f.Src, f.Dst}] = true
			if err := g.ValidatePath(f.Old); err != nil {
				t.Errorf("%s: bad old path: %v", g.Name, err)
			}
			if err := g.ValidatePath(f.New); err != nil {
				t.Errorf("%s: bad new path: %v", g.Name, err)
			}
			if f.SizeK == 0 {
				t.Errorf("%s: zero-size flow", g.Name)
			}
		}
		if !Feasible(g, flows, false) || !Feasible(g, flows, true) {
			t.Errorf("%s: infeasible workload returned", g.Name)
		}
		if !Transitionable(g, flows) {
			t.Errorf("%s: untransitionable workload returned", g.Name)
		}
	}
}

func TestMultiFlowWorkloadCandidates(t *testing.T) {
	g := topo.FatTree(4)
	rng := rand.New(rand.NewSource(4))
	cfg := DefaultConfig()
	cfg.Candidates = topo.EdgeSwitches(g)
	flows, err := MultiFlowWorkload(g, rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[topo.NodeID]bool{}
	for _, e := range cfg.Candidates {
		allowed[e] = true
	}
	for _, f := range flows {
		if !allowed[f.Src] || !allowed[f.Dst] {
			t.Errorf("flow %d->%d outside candidate set", f.Src, f.Dst)
		}
	}
}

func TestMultiFlowWorkloadTooFewCandidates(t *testing.T) {
	g := topo.B4()
	cfg := DefaultConfig()
	cfg.Candidates = []topo.NodeID{0}
	if _, err := MultiFlowWorkload(g, rand.New(rand.NewSource(1)), cfg); err == nil {
		t.Error("single candidate accepted")
	}
}

func TestFeasible(t *testing.T) {
	g := topo.New("pair")
	a := g.AddNode("a", 0, 0)
	b := g.AddNode("b", 0, 0)
	g.AddLink(a, b, 1, 1) // 1 Mbps = 1000 kbps
	flows := []FlowSpec{
		{Src: a, Dst: b, Old: []topo.NodeID{a, b}, New: []topo.NodeID{a, b}, SizeK: 600},
		{Src: b, Dst: a, Old: []topo.NodeID{b, a}, New: []topo.NodeID{b, a}, SizeK: 600},
	}
	// 1200 > 1000 on the single link (reservations share the undirected
	// link in this model).
	if Feasible(g, flows, false) {
		t.Error("oversubscription accepted")
	}
	flows[1].SizeK = 300
	if !Feasible(g, flows, false) {
		t.Error("feasible load rejected")
	}
}

func TestTransitionableDetectsSwapDeadlock(t *testing.T) {
	// Two flows swapping links with no spare capacity cannot migrate via
	// atomic moves.
	g := topo.New("swap")
	s1 := g.AddNode("s1", 0, 0)
	s2 := g.AddNode("s2", 0, 0)
	x := g.AddNode("x", 0, 0)
	a := g.AddNode("a", 0, 0)
	b := g.AddNode("b", 0, 0)
	d := g.AddNode("d", 0, 0)
	g.AddLink(s1, x, 1, 100)
	g.AddLink(s2, x, 1, 100)
	g.AddLink(x, a, 1, 1) // 1000 kbps each
	g.AddLink(x, b, 1, 1)
	g.AddLink(a, d, 1, 100)
	g.AddLink(b, d, 1, 100)
	flows := []FlowSpec{
		{Src: s1, Dst: d, Old: []topo.NodeID{s1, x, a, d}, New: []topo.NodeID{s1, x, b, d}, SizeK: 600},
		{Src: s2, Dst: d, Old: []topo.NodeID{s2, x, b, d}, New: []topo.NodeID{s2, x, a, d}, SizeK: 600},
	}
	if Transitionable(g, flows) {
		t.Error("circular swap reported transitionable")
	}
	// With smaller flows the swap fits.
	flows[0].SizeK, flows[1].SizeK = 400, 400
	if !Transitionable(g, flows) {
		t.Error("fitting swap rejected")
	}
}

func TestSingleLongFlowAndSegmented(t *testing.T) {
	for _, mk := range []func() *topo.Topology{topo.B4, topo.Internet2} {
		g := mk()
		f, err := SingleLongFlow(g, 1000)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if err := g.ValidatePath(f.Old); err != nil {
			t.Fatal(err)
		}
		if err := g.ValidatePath(f.New); err != nil {
			t.Fatal(err)
		}
		sf, err := SegmentedSingleFlow(g, 1000)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		seg, err := controlplane.SegmentPaths(sf.Old, sf.New)
		if err != nil {
			t.Fatal(err)
		}
		interiorBackward := 0
		for _, s := range seg.Segments {
			if !s.Forward {
				interiorBackward += 1 + (len(s.Nodes) - 2)
			}
		}
		if interiorBackward == 0 {
			t.Errorf("%s: segmented flow has no backward structure", g.Name)
		}
	}
}

// TestSegmentedSingleFlowPinned pins the search result the Fig. 7
// single-flow panels are built on: the scorer, its score bound and Yen
// behind it may get faster, but the chosen old/new paths may not move.
// The larger graphs are where the bound skips the most new paths.
func TestSegmentedSingleFlowPinned(t *testing.T) {
	for _, tc := range []struct {
		g        *topo.Topology
		old, new []topo.NodeID
	}{
		{topo.B4(), []topo.NodeID{0, 2, 1, 3}, []topo.NodeID{0, 1, 10, 11, 8, 7, 6, 5, 4, 2, 3}},
		{topo.Internet2(), []topo.NodeID{13, 9, 11, 10, 12, 14}, []topo.NodeID{13, 12, 10, 11, 8, 6, 5, 2, 1, 3, 4, 7, 9, 14}},
		{topo.AttMpls(), []topo.NodeID{0, 19, 13, 12}, []topo.NodeID{0, 13, 2, 15, 19, 12}},
		{topo.Chinanet(), []topo.NodeID{0, 14, 10, 34, 15}, []topo.NodeID{0, 10, 29, 28, 16, 14, 15}},
		{topo.FatTree(4), []topo.NodeID{6, 4, 0, 8, 10, 9, 3, 5, 7}, []topo.NodeID{6, 5, 2, 13, 14, 12, 1, 4, 7}},
	} {
		f, err := SegmentedSingleFlow(tc.g, 1000)
		if err != nil {
			t.Fatalf("%s: %v", tc.g.Name, err)
		}
		if !reflect.DeepEqual(f.Old, tc.old) || !reflect.DeepEqual(f.New, tc.new) {
			t.Errorf("%s: old %v new %v, want old %v new %v", tc.g.Name, f.Old, f.New, tc.old, tc.new)
		}
	}
}

// TestSegmentScoreBound checks the bound SegmentedSingleFlow skips new
// paths by: for every ordered pair of distinct k-shortest paths between
// two nodes, backward + 2·interiors ≤ 2·len(new) − 4.
func TestSegmentScoreBound(t *testing.T) {
	for _, g := range []*topo.Topology{topo.Synthetic(), topo.B4(), topo.Internet2(), topo.FatTree(4)} {
		pos := offPath(g)
		for _, s := range g.Nodes() {
			for _, d := range g.Nodes() {
				if d <= s {
					continue
				}
				paths := g.KShortestPaths(s, d, 30, topo.ByLatency)
				for i, old := range paths {
					markPath(pos, old)
					for j, nw := range paths {
						backward, interiors := controlplane.BackwardSegments(pos, nw)
						if score := backward + 2*interiors; i != j && score > 2*len(nw)-4 {
							t.Fatalf("%s: old %v new %v scores %d > 2·%d−4", g.Name, old, nw, score, len(nw))
						}
					}
					unmarkPath(pos, old)
				}
			}
		}
	}
}

func TestFlowSpecID(t *testing.T) {
	a := FlowSpec{Src: 1, Dst: 2}
	b := FlowSpec{Src: 2, Dst: 1}
	if a.ID() == b.ID() {
		t.Error("direction not distinguished")
	}
	if a.ID() != (FlowSpec{Src: 1, Dst: 2, SizeK: 99}).ID() {
		t.Error("ID must depend only on the src/dst pair")
	}
}
