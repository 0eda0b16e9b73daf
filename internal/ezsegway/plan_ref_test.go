package ezsegway

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"p4update/internal/controlplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
)

// refPreparePlanDep is the map-based PreparePlanDep the path-scanning
// one replaced, kept as the reference TestPreparePlanMatchesMapBased
// holds it to.
func refPreparePlanDep(t *topo.Topology, flow packet.FlowID, oldPath, newPath []topo.NodeID,
	version uint32, sizeK uint32, priority uint8, depFlow packet.FlowID) (*Plan, error) {

	if err := t.ValidatePath(newPath); err != nil {
		return nil, fmt.Errorf("ezsegway: new path: %w", err)
	}
	seg, err := controlplane.SegmentPaths(oldPath, newPath)
	if err != nil {
		return nil, fmt.Errorf("ezsegway: %w", err)
	}
	oldNext := make(map[topo.NodeID]topo.NodeID, len(oldPath))
	for i := 0; i+1 < len(oldPath); i++ {
		oldNext[oldPath[i]] = oldPath[i+1]
	}
	newNext := make(map[topo.NodeID]topo.NodeID, len(newPath))
	newIdx := make(map[topo.NodeID]int, len(newPath))
	for i, n := range newPath {
		newIdx[n] = i
		if i+1 < len(newPath) {
			newNext[n] = newPath[i+1]
		}
	}
	changes := func(n topo.NodeID) bool {
		nn, onNew := newNext[n]
		if !onNew {
			return false
		}
		on, onOld := oldNext[n]
		return !onOld || on != nn
	}

	p := &Plan{}
	instr := make(map[topo.NodeID]*packet.EZI)
	get := func(n topo.NodeID) *packet.EZI {
		m, ok := instr[n]
		if !ok {
			m = &packet.EZI{
				Flow: flow, Version: version, FlowSizeK: sizeK,
				EgressPort: packet.NoPort, ChildPort: packet.NoPort,
				Priority: priority, DepFlow: depFlow,
			}
			if i := newIdx[n]; i+1 < len(newPath) {
				m.EgressPort = uint16(t.PortTo(n, newPath[i+1]))
			}
			if i := newIdx[n]; i > 0 {
				m.ChildPort = uint16(t.PortTo(n, newPath[i-1]))
			}
			if newIdx[n] == 0 {
				m.Flags |= packet.EZIngress
			}
			if newIdx[n] == len(newPath)-1 {
				m.Flags |= packet.EZEgress
			}
			instr[n] = m
		}
		return m
	}

	for _, s := range seg.Segments {
		// A segment needs work when any of its rule-setting nodes
		// (everything but the segment egress gateway) changes.
		needed := false
		for _, n := range s.Nodes[:len(s.Nodes)-1] {
			if changes(n) {
				needed = true
				break
			}
		}
		if !needed {
			continue
		}
		for i, n := range s.Nodes[:len(s.Nodes)-1] {
			in := get(n)
			if i > 0 {
				in.Flags |= packet.EZRelay // segment interior
			}
			if changes(n) {
				p.Changed = append(p.Changed, n)
			}
		}
		egress := s.Nodes[len(s.Nodes)-1]
		eg := get(egress)
		switch {
		case s.Forward || !changes(egress):
			// not_in_loop segments start immediately; a gateway whose
			// own rule never changes has no downstream dependency.
			eg.Flags |= packet.EZInitNow
		default:
			eg.Flags |= packet.EZInitAfterApply
		}
	}
	// Emit instructions in node-ID order: the send order must not depend
	// on map iteration, or same-instant message ties break differently
	// across runs of the same seed.
	targets := make([]topo.NodeID, 0, len(instr))
	for n := range instr {
		targets = append(targets, n)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	for _, n := range targets {
		p.Targets = append(p.Targets, n)
		p.Msgs = append(p.Msgs, instr[n])
	}
	return p, nil
}

// samePlan reports the first field where got and want differ. Nil and
// empty differ: a nil Changed tells Launch every new-path node is
// pending.
func samePlan(got, want *Plan) error {
	switch {
	case !slices.Equal(got.Changed, want.Changed) || (got.Changed == nil) != (want.Changed == nil):
		return fmt.Errorf("changed %#v, want %#v", got.Changed, want.Changed)
	case !slices.Equal(got.Targets, want.Targets) || (got.Targets == nil) != (want.Targets == nil):
		return fmt.Errorf("targets %#v, want %#v", got.Targets, want.Targets)
	case len(got.Msgs) != len(want.Msgs):
		return fmt.Errorf("%d instructions, want %d", len(got.Msgs), len(want.Msgs))
	}
	for i := range got.Msgs {
		if g, w := *got.Msgs[i].(*packet.EZI), *want.Msgs[i].(*packet.EZI); g != w {
			return fmt.Errorf("instruction %d (node %d) = %+v, want %+v", i, got.Targets[i], g, w)
		}
	}
	return nil
}

// TestPreparePlanMatchesMapBased holds PreparePlanDep to the map-based
// planner it replaced, field by field and in emission order, over every
// ordered pair of the first 6 shortest paths between every third
// ordered pair of distinct nodes of the Fig. 1 network, B4, Internet2
// and fat-tree K=4, identical pairs included.
func TestPreparePlanMatchesMapBased(t *testing.T) {
	for _, tc := range []struct {
		g *topo.Topology
		w topo.Weight
	}{
		{topo.Synthetic(), topo.ByLatency},
		{topo.B4(), topo.ByLatency},
		{topo.Internet2(), topo.ByLatency},
		{topo.FatTree(4), topo.ByHops},
	} {
		g, pairs, at := tc.g, 0, 0
		for _, s := range g.Nodes() {
			for _, d := range g.Nodes() {
				if at++; d == s || at%3 != 0 {
					continue
				}
				paths := g.KShortestPaths(s, d, 6, tc.w)
				for i, old := range paths {
					for _, nw := range paths {
						got, err := PreparePlanDep(g, 9, old, nw, 4, 1000, uint8(i), packet.FlowID(i))
						want, wantErr := refPreparePlanDep(g, 9, old, nw, 4, 1000, uint8(i), packet.FlowID(i))
						if err != nil || wantErr != nil {
							t.Fatalf("%s old %v new %v: errors %v, %v", g.Name, old, nw, err, wantErr)
						}
						if err := samePlan(got, want); err != nil {
							t.Fatalf("%s old %v new %v: %v", g.Name, old, nw, err)
						}
						pairs++
					}
				}
			}
		}
		if pairs == 0 {
			t.Fatalf("%s: no path pairs", g.Name)
		}
	}
}

// TestPreparePlanAllocations pins what preparing the Fig. 1 update
// allocates: the segmentation's two slices, the Plan, its instructions,
// Changed, Targets and Msgs.
func TestPreparePlanAllocations(t *testing.T) {
	g := topo.Synthetic()
	oldP, newP := topo.SyntheticPaths()
	if n := testing.AllocsPerRun(100, func() { PreparePlan(g, 1, oldP, newP, 2, 1000, 0) }); n > 7 {
		t.Errorf("PreparePlan allocates %v times, want at most 7", n)
	}
}
