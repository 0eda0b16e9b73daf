package controlplane

import (
	"fmt"
	"slices"
	"testing"

	"p4update/internal/packet"
	"p4update/internal/topo"
)

// The map-based planner the path-scanning one replaced, kept as the
// reference TestPlanMatchesMapBased holds it to.

type refSegmentation struct {
	Gateways    []topo.NodeID
	Segments    []Segment
	OldDistance map[topo.NodeID]uint16
}

type refPlan struct {
	Flow    packet.FlowID
	Version uint32
	Type    packet.UpdateType
	OldPath []topo.NodeID
	NewPath []topo.NodeID
	Seg     refSegmentation
	UIMs    []*packet.UIM
	Targets []topo.NodeID
}

func refSegmentPaths(oldPath, newPath []topo.NodeID) (refSegmentation, error) {
	var s refSegmentation
	if len(oldPath) < 1 || len(newPath) < 2 {
		return s, fmt.Errorf("controlplane: paths too short")
	}
	if oldPath[0] != newPath[0] || oldPath[len(oldPath)-1] != newPath[len(newPath)-1] {
		return s, fmt.Errorf("controlplane: old and new path must share ingress and egress")
	}
	s.OldDistance = make(map[topo.NodeID]uint16, len(oldPath))
	k := len(oldPath) - 1
	for i, n := range oldPath {
		s.OldDistance[n] = uint16(k - i)
	}
	prev := -1
	for i, n := range newPath {
		dist, onOld := s.OldDistance[n]
		if !onOld {
			continue
		}
		s.Gateways = append(s.Gateways, n)
		if prev >= 0 {
			in := newPath[prev]
			s.Segments = append(s.Segments, Segment{
				Nodes:   newPath[prev : i+1],
				Forward: dist < s.OldDistance[in],
			})
		}
		prev = i
	}
	return s, nil
}

func refNodesNeedingUpdate(oldPath, newPath []topo.NodeID) int {
	oldNext := make(map[topo.NodeID]topo.NodeID, len(oldPath))
	onOld := make(map[topo.NodeID]bool, len(oldPath))
	for i, n := range oldPath {
		onOld[n] = true
		if i+1 < len(oldPath) {
			oldNext[n] = oldPath[i+1]
		}
	}
	count := 0
	for i, n := range newPath {
		if i+1 >= len(newPath) {
			break
		}
		if !onOld[n] || oldNext[n] != newPath[i+1] {
			count++
		}
	}
	return count
}

func refPreparePlan(t *topo.Topology, flow packet.FlowID, oldPath, newPath []topo.NodeID,
	version uint32, sizeK uint32, force *packet.UpdateType) (*refPlan, error) {

	for i, n := range newPath {
		if n < 0 || int(n) >= t.NumNodes() {
			return nil, fmt.Errorf("controlplane: new path: unknown node %d", n)
		}
		for j := 0; j < i; j++ {
			if newPath[j] == n {
				return nil, fmt.Errorf("controlplane: new path: node %d repeats", n)
			}
		}
	}
	seg, err := refSegmentPaths(oldPath, newPath)
	if err != nil {
		return nil, err
	}
	ut := packet.UpdateDual
	if !slices.ContainsFunc(seg.Segments, func(s Segment) bool { return !s.Forward }) &&
		refNodesNeedingUpdate(oldPath, newPath) <= slThreshold {
		ut = packet.UpdateSingle
	}
	if force != nil {
		ut = *force
	}
	p := &refPlan{
		Flow: flow, Version: version, Type: ut,
		OldPath: oldPath, NewPath: newPath, Seg: seg,
	}
	k := len(newPath) - 1
	uims := make([]packet.UIM, len(newPath))
	p.UIMs = make([]*packet.UIM, len(newPath))
	p.Targets = newPath
	gi := 0
	for i, n := range newPath {
		uim := &uims[i]
		uim.Flow = flow
		uim.Version = version
		uim.NewDistance = uint16(k - i)
		uim.EgressPort = packet.NoPort
		uim.ChildPort = packet.NoPort
		uim.FlowSizeK = sizeK
		uim.UpdateType = ut
		if i < k {
			port := t.PortTo(n, newPath[i+1])
			if port == topo.InvalidPort {
				return nil, fmt.Errorf("controlplane: new path: %d and %d not adjacent", n, newPath[i+1])
			}
			uim.EgressPort = uint16(port)
		}
		if i > 0 {
			uim.ChildPort = uint16(t.PortTo(n, newPath[i-1]))
		}
		if i == 0 {
			uim.Role |= packet.RoleIngress
		}
		if i == k {
			uim.Role |= packet.RoleEgress
		}
		if gi < len(seg.Gateways) && seg.Gateways[gi] == n {
			gi++
			uim.Role |= packet.RoleGateway
			uim.OldDistance = seg.OldDistance[n]
		}
		p.UIMs[i] = uim
	}
	return p, nil
}

// forPathPairs calls fn on every ordered pair of the first k shortest
// paths between every stride-th ordered pair of distinct nodes of g,
// identical pairs included, and reports how many pairs it visited.
func forPathPairs(g *topo.Topology, w topo.Weight, k, stride int, fn func(old, nw []topo.NodeID)) int {
	pairs, at := 0, 0
	for _, s := range g.Nodes() {
		for _, d := range g.Nodes() {
			if d == s {
				continue
			}
			if at++; at%stride != 0 {
				continue
			}
			paths := g.KShortestPaths(s, d, k, w)
			for _, old := range paths {
				for _, nw := range paths {
					fn(old, nw)
					pairs++
				}
			}
		}
	}
	return pairs
}

// sameSegmentation reports the first field where got and want differ.
func sameSegmentation(got Segmentation, want refSegmentation) error {
	if !slices.Equal(got.Gateways, want.Gateways) {
		return fmt.Errorf("gateways %v, want %v", got.Gateways, want.Gateways)
	}
	if len(got.Segments) != len(want.Segments) {
		return fmt.Errorf("%d segments, want %d", len(got.Segments), len(want.Segments))
	}
	for i, g := range got.Segments {
		w := want.Segments[i]
		if !slices.Equal(g.Nodes, w.Nodes) || g.Forward != w.Forward {
			return fmt.Errorf("segment %d = %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// samePlan reports the first field where got and want differ.
func samePlan(got *Plan, want *refPlan) error {
	switch {
	case got.Flow != want.Flow || got.Version != want.Version || got.Type != want.Type:
		return fmt.Errorf("header (%d, %d, %v), want (%d, %d, %v)",
			got.Flow, got.Version, got.Type, want.Flow, want.Version, want.Type)
	case !slices.Equal(got.OldPath, want.OldPath) || !slices.Equal(got.NewPath, want.NewPath):
		return fmt.Errorf("paths %v -> %v, want %v -> %v", got.OldPath, got.NewPath, want.OldPath, want.NewPath)
	case !slices.Equal(got.Targets, want.Targets):
		return fmt.Errorf("targets %v, want %v", got.Targets, want.Targets)
	case len(got.UIMs) != len(want.UIMs):
		return fmt.Errorf("%d UIMs, want %d", len(got.UIMs), len(want.UIMs))
	}
	for i := range got.UIMs {
		if got.UIMs[i] != *want.UIMs[i] {
			return fmt.Errorf("UIM %d = %+v, want %+v", i, got.UIMs[i], *want.UIMs[i])
		}
	}
	return sameSegmentation(got.Seg, want.Seg)
}

// TestPlanMatchesMapBased holds SegmentPaths, NodesNeedingUpdate and
// PreparePlan to the map-based planner they replaced, field by field,
// over every ordered pair of the first 6 shortest paths between sampled
// endpoints of the Fig. 1 network, B4, Internet2 and fat-tree K=4
// (identical pairs included). Each new path is also tried with one node
// stuttered, a non-simple path SegmentPaths accepts as it always did —
// there a segment's gateways coincide, and it must stay backward — and
// PreparePlan rejects.
func TestPlanMatchesMapBased(t *testing.T) {
	sl := packet.UpdateSingle
	for _, tc := range []struct {
		g *topo.Topology
		w topo.Weight
	}{
		{topo.Synthetic(), topo.ByLatency},
		{topo.B4(), topo.ByLatency},
		{topo.Internet2(), topo.ByLatency},
		{topo.FatTree(4), topo.ByHops},
	} {
		g := tc.g
		check := func(what string, old, nw []topo.NodeID, err error) {
			if err != nil {
				t.Fatalf("%s: %s old %v new %v: %v", g.Name, what, old, nw, err)
			}
		}
		pairs := forPathPairs(g, tc.w, 6, 3, func(old, nw []topo.NodeID) {
			stutter := slices.Insert(slices.Clone(nw), 1, nw[1])
			for _, p := range [][]topo.NodeID{nw, stutter} {
				seg, err := SegmentPaths(old, p)
				want, wantErr := refSegmentPaths(old, p)
				if (err != nil) != (wantErr != nil) {
					check("SegmentPaths", old, p, fmt.Errorf("error %v, want %v", err, wantErr))
				} else if err == nil {
					check("SegmentPaths", old, p, sameSegmentation(seg, want))
				}
			}
			if got, want := NodesNeedingUpdate(old, nw), refNodesNeedingUpdate(old, nw); got != want {
				check("NodesNeedingUpdate", old, nw, fmt.Errorf("%d, want %d", got, want))
			}
			for _, force := range []*packet.UpdateType{nil, &sl} {
				for _, p := range [][]topo.NodeID{nw, stutter} {
					plan, err := PreparePlan(g, 9, old, p, 4, 1000, force)
					want, wantErr := refPreparePlan(g, 9, old, p, 4, 1000, force)
					if (err != nil) != (wantErr != nil) {
						check("PreparePlan", old, p, fmt.Errorf("error %v, want %v", err, wantErr))
					} else if err == nil {
						check("PreparePlan", old, p, samePlan(plan, want))
					}
				}
			}
		})
		if pairs == 0 {
			t.Fatalf("%s: no path pairs", g.Name)
		}
	}
}

// TestPlanAllocations pins what preparing the Fig. 1 update allocates:
// the two segmentation slices, and for a plan the Plan and its UIMs.
func TestPlanAllocations(t *testing.T) {
	g := topo.Synthetic()
	oldP, newP := topo.SyntheticPaths()
	if n := testing.AllocsPerRun(100, func() { SegmentPaths(oldP, newP) }); n > 2 {
		t.Errorf("SegmentPaths allocates %v times, want at most 2", n)
	}
	if n := testing.AllocsPerRun(100, func() { PreparePlan(g, 1, oldP, newP, 2, 1000, nil) }); n > 4 {
		t.Errorf("PreparePlan allocates %v times, want at most 4", n)
	}
}
