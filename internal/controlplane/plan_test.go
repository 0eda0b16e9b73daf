package controlplane

import (
	"testing"

	"p4update/internal/packet"
	"p4update/internal/topo"
)

func TestSegmentPathsFig1(t *testing.T) {
	oldP, newP := topo.SyntheticPaths()
	seg, err := SegmentPaths(oldP, newP)
	if err != nil {
		t.Fatal(err)
	}
	wantGW := []topo.NodeID{0, 2, 4, 7}
	if len(seg.Gateways) != len(wantGW) {
		t.Fatalf("gateways = %v", seg.Gateways)
	}
	for i := range wantGW {
		if seg.Gateways[i] != wantGW[i] {
			t.Fatalf("gateways = %v, want %v", seg.Gateways, wantGW)
		}
	}
	if len(seg.Segments) != 3 {
		t.Fatalf("segments = %+v", seg.Segments)
	}
	// {v0,v1,v2} forward, {v2,v3,v4} backward, {v4..v7} forward.
	if !seg.Segments[0].Forward || seg.Segments[1].Forward || !seg.Segments[2].Forward {
		t.Errorf("classification: %+v", seg.Segments)
	}
	if nodes := seg.Segments[1].Nodes; nodes[0] != 2 || nodes[len(nodes)-1] != 4 {
		t.Errorf("backward segment gateways: %+v", seg.Segments[1])
	}
}

func TestSegmentPathsErrors(t *testing.T) {
	if _, err := SegmentPaths([]topo.NodeID{0, 1}, []topo.NodeID{0, 2}); err == nil {
		t.Error("mismatched egress accepted")
	}
	if _, err := SegmentPaths([]topo.NodeID{1, 2}, []topo.NodeID{0, 2}); err == nil {
		t.Error("mismatched ingress accepted")
	}
	if _, err := SegmentPaths(nil, []topo.NodeID{0, 1}); err == nil {
		t.Error("empty old path accepted")
	}
}

func TestSegmentPathsIdenticalPaths(t *testing.T) {
	p := []topo.NodeID{0, 1, 2}
	seg, err := SegmentPaths(p, p)
	if err != nil {
		t.Fatal(err)
	}
	// Every node is a gateway; every segment is forward and unchanged.
	if len(seg.Gateways) != 3 {
		t.Errorf("gateways = %v", seg.Gateways)
	}
	for _, s := range seg.Segments {
		if !s.Forward {
			t.Errorf("identical paths produced backward segment %+v", s)
		}
	}
}

func TestNodesNeedingUpdate(t *testing.T) {
	oldP, newP := topo.SyntheticPaths()
	// v0,v1,...,v6 change (v7 keeps local delivery): 7 nodes.
	if got := NodesNeedingUpdate(oldP, newP); got != 7 {
		t.Errorf("changed = %d, want 7", got)
	}
	// Identical paths: nothing changes.
	if got := NodesNeedingUpdate(oldP, oldP); got != 0 {
		t.Errorf("identical paths changed = %d, want 0", got)
	}
	// Small detour: v4 flips plus fresh v5, v6.
	if got := NodesNeedingUpdate(oldP, []topo.NodeID{0, 4, 5, 6, 7}); got != 3 {
		t.Errorf("detour changed = %d, want 3", got)
	}
}

func TestChooseUpdateType(t *testing.T) {
	oldP, newP := topo.SyntheticPaths()
	seg, _ := SegmentPaths(oldP, newP)
	if got := ChooseUpdateType(seg, oldP, newP); got != packet.UpdateDual {
		t.Errorf("backward segment should force DL, got %v", got)
	}
	detour := []topo.NodeID{0, 4, 5, 6, 7}
	seg2, _ := SegmentPaths(oldP, detour)
	if got := ChooseUpdateType(seg2, oldP, detour); got != packet.UpdateSingle {
		t.Errorf("small forward detour should pick SL, got %v", got)
	}
}

func TestPreparePlanLabels(t *testing.T) {
	g := topo.Synthetic()
	oldP, newP := topo.SyntheticPaths()
	plan, err := PreparePlan(g, 42, oldP, newP, 2, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Type != packet.UpdateDual {
		t.Errorf("plan type = %v, want DL", plan.Type)
	}
	if len(plan.UIMs) != len(newP) {
		t.Fatalf("UIMs = %d, want %d", len(plan.UIMs), len(newP))
	}
	k := len(newP) - 1
	for i, uim := range plan.UIMs {
		n := plan.Targets[i]
		if uim.Flow != 42 || uim.Version != 2 {
			t.Fatalf("node %d: bad identity %+v", n, uim)
		}
		if uim.NewDistance != uint16(k-i) {
			t.Errorf("node %d: distance %d, want %d", n, uim.NewDistance, k-i)
		}
		// Egress port points at the next node; child port at the previous.
		if i < k {
			nxt, _ := g.NeighborAt(n, topo.PortID(int32(uim.EgressPort)))
			if nxt != newP[i+1] {
				t.Errorf("node %d egress port leads to %d, want %d", n, nxt, newP[i+1])
			}
		} else if uim.EgressPort != packet.NoPort {
			t.Error("egress node must deliver locally")
		}
		if i > 0 {
			child, _ := g.NeighborAt(n, topo.PortID(int32(uim.ChildPort)))
			if child != newP[i-1] {
				t.Errorf("node %d child port leads to %d, want %d", n, child, newP[i-1])
			}
		} else if uim.ChildPort != packet.NoPort {
			t.Error("ingress node has no child")
		}
	}
	// Role flags.
	if !plan.UIMs[0].Role.Has(packet.RoleIngress) || !plan.UIMs[k].Role.Has(packet.RoleEgress) {
		t.Error("ingress/egress roles missing")
	}
	// Gateway UIMs carry the old distances, the "segment IDs" of §3.2:
	// v0=3, v2=1, v4=2, v7=0.
	gwWantOld := map[topo.NodeID]uint16{0: 3, 2: 1, 4: 2, 7: 0}
	for i, uim := range plan.UIMs {
		n := plan.Targets[i]
		if want, isGW := gwWantOld[n]; isGW {
			if !uim.Role.Has(packet.RoleGateway) || uim.OldDistance != want {
				t.Errorf("gateway %d: role=%v oldDist=%d want %d", n, uim.Role, uim.OldDistance, want)
			}
		} else if uim.Role.Has(packet.RoleGateway) {
			t.Errorf("node %d wrongly marked gateway", n)
		}
	}
}

func TestPreparePlanRejectsBadPaths(t *testing.T) {
	g := topo.Synthetic()
	oldP, _ := topo.SyntheticPaths()
	if _, err := PreparePlan(g, 1, oldP, []topo.NodeID{0, 1, 0, 7}, 2, 1000, nil); err == nil {
		t.Error("repeated node accepted")
	}
	if _, err := PreparePlan(g, 1, oldP, []topo.NodeID{0, 7}, 2, 1000, nil); err == nil {
		t.Error("non-adjacent hop accepted")
	}
	if _, err := PreparePlan(g, 1, oldP, []topo.NodeID{0, 99}, 2, 1000, nil); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestPreparePlanForcedType(t *testing.T) {
	g := topo.Synthetic()
	oldP, newP := topo.SyntheticPaths()
	sl := packet.UpdateSingle
	plan, err := PreparePlan(g, 1, oldP, newP, 2, 1000, &sl)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Type != packet.UpdateSingle {
		t.Errorf("forced type ignored: %v", plan.Type)
	}
}

// TestBackwardSegmentsMatchesSegmentPaths holds the allocation-free
// scorer to the segmentation it summarizes: over every ordered
// (old, new) pair of the k=30 path sets of every node pair on B4 and
// Internet2 — the single-flow scenario search's whole candidate space —
// the two counts equal those read off SegmentPaths(...).Segments.
func TestBackwardSegmentsMatchesSegmentPaths(t *testing.T) {
	for _, g := range []*topo.Topology{topo.B4(), topo.Internet2()} {
		oldPos := make([]int32, g.NumNodes())
		for i := range oldPos {
			oldPos[i] = -1
		}
		pairs := 0
		for _, s := range g.Nodes() {
			for _, d := range g.Nodes() {
				if d == s {
					continue
				}
				paths := g.KShortestPaths(s, d, 30, topo.ByLatency)
				for i, old := range paths {
					for p, n := range old {
						oldPos[n] = int32(p)
					}
					for j, nw := range paths {
						if i == j {
							continue
						}
						seg, err := SegmentPaths(old, nw)
						if err != nil {
							t.Fatal(err)
						}
						wantSegs, wantInteriors := 0, 0
						for _, sgm := range seg.Segments {
							if !sgm.Forward {
								wantSegs++
								wantInteriors += len(sgm.Nodes) - 2
							}
						}
						gotSegs, gotInteriors := BackwardSegments(oldPos, nw)
						if gotSegs != wantSegs || gotInteriors != wantInteriors {
							t.Fatalf("%s old %v new %v: BackwardSegments = (%d, %d), SegmentPaths gives (%d, %d)",
								g.Name, old, nw, gotSegs, gotInteriors, wantSegs, wantInteriors)
						}
						pairs++
					}
					for _, n := range old {
						oldPos[n] = -1
					}
				}
			}
		}
		if pairs == 0 {
			t.Fatalf("%s: no candidate pairs", g.Name)
		}
	}
}

func TestBackwardSegmentsDoesNotAllocate(t *testing.T) {
	oldP, newP := topo.SyntheticPaths()
	oldPos := []int32{-1, -1, -1, -1, -1, -1, -1, -1}
	for p, n := range oldP {
		oldPos[n] = int32(p)
	}
	segs, interiors := 0, 0
	allocs := testing.AllocsPerRun(100, func() { segs, interiors = BackwardSegments(oldPos, newP) })
	if allocs != 0 {
		t.Errorf("BackwardSegments allocates %v times per call, want 0", allocs)
	}
	// Fig. 1: {v2,v3,v4} is the one backward segment, v3 its interior.
	if segs != 1 || interiors != 1 {
		t.Errorf("BackwardSegments on Fig. 1 = (%d, %d), want (1, 1)", segs, interiors)
	}
}
