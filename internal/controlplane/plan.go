// Package controlplane implements the P4Update controller: the Network
// Information Base, the Flow DB, distance labeling, path segmentation
// (gateway detection and forward/backward classification), UIM generation
// and the update trigger, plus completion tracking for the evaluation.
//
// The preparation path (PreparePlan and its helpers) is deliberately pure
// so the control-plane computation-time experiments (the paper's Fig. 8)
// can time it in isolation.
package controlplane

import (
	"fmt"

	"p4update/internal/packet"
	"p4update/internal/topo"
)

// Segment is one dual-layer path segment: a maximal slice of the new path
// between two consecutive gateway nodes (§3.2).
type Segment struct {
	// Nodes is the new-path slice from the ingress gateway (the one
	// closer to the flow ingress) to the egress gateway, inclusive.
	Nodes []topo.NodeID
	// Forward reports whether the segment decreases the old-path
	// distance (updateable immediately); backward segments must wait.
	Forward bool
}

// Segmentation is the dual-layer decomposition of an update.
type Segmentation struct {
	// Gateways are the nodes on both the old and the new path, in
	// new-path order. The flow ingress and egress are always gateways.
	Gateways []topo.NodeID
	Segments []Segment
}

// oldIndex returns n's index on path, -1 when n is off it; the last
// index, should path repeat n. A gateway's old distance (its "segment
// ID" of §3.2, the hop count to the egress along the old path) is
// len(path)-1 minus this index. Paths are short, so a scan beats
// building an index.
func oldIndex(path []topo.NodeID, n topo.NodeID) int {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == n {
			return i
		}
	}
	return -1
}

// SegmentPaths computes the dual-layer segmentation of an update from
// oldPath to newPath. Both paths must share ingress and egress.
func SegmentPaths(oldPath, newPath []topo.NodeID) (Segmentation, error) {
	var s Segmentation
	if len(oldPath) < 1 || len(newPath) < 2 {
		return s, fmt.Errorf("controlplane: paths too short")
	}
	if oldPath[0] != newPath[0] || oldPath[len(oldPath)-1] != newPath[len(newPath)-1] {
		return s, fmt.Errorf("controlplane: old and new path must share ingress and egress")
	}
	s.Gateways = make([]topo.NodeID, 0, len(newPath))
	s.Segments = make([]Segment, 0, len(newPath))
	// One walk of the new path: every node also on the old path is a
	// gateway and closes the segment the previous gateway opened. The
	// segment is forward when its old distance decreases, i.e. its
	// egress gateway sits later on the old path than its ingress.
	prev, prevOld := -1, -1
	for i, n := range newPath {
		j := oldIndex(oldPath, n)
		if j < 0 {
			continue
		}
		s.Gateways = append(s.Gateways, n)
		if prev >= 0 {
			s.Segments = append(s.Segments, Segment{
				Nodes:   newPath[prev : i+1],
				Forward: j > prevOld,
			})
		}
		prev, prevOld = i, j
	}
	return s, nil
}

// BackwardSegments counts what a scenario search weighs in the
// segmentation of an update onto newPath — its backward segments and the
// interior (non-gateway) nodes they hold — in one pass over newPath,
// without building the Segmentation. oldPos[n] is node n's index on the
// old path, -1 off it; the paths must share ingress and egress, as for
// SegmentPaths. A segment is backward when its egress gateway sits no
// later on the old path than its ingress gateway, i.e. its old distance
// does not decrease.
func BackwardSegments(oldPos []int32, newPath []topo.NodeID) (segments, interiors int) {
	prev := -1
	for i, n := range newPath {
		if oldPos[n] < 0 {
			continue
		}
		if prev >= 0 && oldPos[n] <= oldPos[newPath[prev]] {
			segments++
			interiors += i - prev - 1
		}
		prev = i
	}
	return segments, interiors
}

// NodesNeedingUpdate counts the new-path nodes whose forwarding rule
// actually changes: nodes not on the old path, plus nodes whose next hop
// differs between the paths.
func NodesNeedingUpdate(oldPath, newPath []topo.NodeID) int {
	count := 0
	for i := 0; i+1 < len(newPath); i++ { // the egress keeps local delivery
		j := oldIndex(oldPath, newPath[i])
		if j < 0 || j+1 >= len(oldPath) || oldPath[j+1] != newPath[i+1] {
			count++
		}
	}
	return count
}

// slThreshold is the §7.5 deployment rule: single layer when only forward
// segments exist and at most this many nodes need updating.
const slThreshold = 5

// ChooseUpdateType implements the single/dual-layer combination policy of
// §7.5.
func ChooseUpdateType(seg Segmentation, oldPath, newPath []topo.NodeID) packet.UpdateType {
	for _, s := range seg.Segments {
		if !s.Forward {
			return packet.UpdateDual
		}
	}
	if NodesNeedingUpdate(oldPath, newPath) <= slThreshold {
		return packet.UpdateSingle
	}
	return packet.UpdateDual
}

// Plan is a fully prepared update: one UIM per new-path node.
type Plan struct {
	Flow    packet.FlowID
	Version uint32
	Type    packet.UpdateType
	OldPath []topo.NodeID
	NewPath []topo.NodeID
	Seg     Segmentation
	// UIMs holds the per-node indications in new-path order; a sender
	// passes &UIMs[i].
	UIMs []packet.UIM
	// Targets holds the node each UIM is destined for, aligned with UIMs.
	Targets []topo.NodeID
}

// PreparePlan performs the control-plane preparation of one flow update:
// distance labeling, segmentation, update-type selection (unless forced),
// and UIM generation. This is the computation the paper's Fig. 8 times.
func PreparePlan(t *topo.Topology, flow packet.FlowID, oldPath, newPath []topo.NodeID,
	version uint32, sizeK uint32, force *packet.UpdateType) (*Plan, error) {

	// Cheap simple-path validation: paths are short, so a quadratic scan
	// beats building a set; adjacency is verified through the port
	// lookups below.
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
	seg, err := SegmentPaths(oldPath, newPath)
	if err != nil {
		return nil, err
	}
	ut := ChooseUpdateType(seg, oldPath, newPath)
	if force != nil {
		ut = *force
	}
	p := &Plan{
		Flow: flow, Version: version, Type: ut,
		OldPath: oldPath, NewPath: newPath, Seg: seg,
	}
	k := len(newPath) - 1
	p.UIMs = make([]packet.UIM, len(newPath))
	p.Targets = newPath
	gi := 0 // next gateway to match (gateways come in new-path order)
	for i, n := range newPath {
		uim := &p.UIMs[i]
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
			uim.OldDistance = uint16(len(oldPath) - 1 - oldIndex(oldPath, n))
		}
	}
	return p, nil
}
