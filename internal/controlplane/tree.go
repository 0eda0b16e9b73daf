package controlplane

import (
	"fmt"
	"sort"

	"p4update/internal/packet"
	"p4update/internal/topo"
)

// Destination-based routing (§11): instead of per-path flows, a flow is
// "all traffic to destination d", routed along a spanning tree rooted at
// d. The same single-layer verification applies — a node may only adopt a
// new parent whose distance to the root is exactly one smaller — and the
// update notification fans out from the root through the tree's clone
// groups (one indication per child programs the multicast session).

// Tree is a destination-rooted spanning tree given as child->parent
// edges; the root (destination) has no entry.
type Tree map[topo.NodeID]topo.NodeID

// TreeDepths returns each node's hop distance to the root, or an error
// if the parent relation is not a tree rooted at root (cycle, missing
// chain, or unknown node).
func TreeDepths(t *topo.Topology, root topo.NodeID, tree Tree) (map[topo.NodeID]uint16, error) {
	depth := map[topo.NodeID]uint16{root: 0}
	var resolve func(n topo.NodeID, hops int) (uint16, error)
	resolve = func(n topo.NodeID, hops int) (uint16, error) {
		if d, ok := depth[n]; ok {
			return d, nil
		}
		if hops > t.NumNodes() {
			return 0, fmt.Errorf("controlplane: tree contains a cycle at node %d", n)
		}
		parent, ok := tree[n]
		if !ok {
			return 0, fmt.Errorf("controlplane: node %d has no parent and is not the root", n)
		}
		if t.PortTo(n, parent) == topo.InvalidPort {
			return 0, fmt.Errorf("controlplane: tree edge %d->%d not adjacent", n, parent)
		}
		pd, err := resolve(parent, hops+1)
		if err != nil {
			return 0, err
		}
		depth[n] = pd + 1
		return pd + 1, nil
	}
	for n := range tree {
		if _, err := resolve(n, 0); err != nil {
			return nil, err
		}
	}
	return depth, nil
}

// ShortestPathTree builds the hop-count shortest-path tree toward root.
func ShortestPathTree(t *topo.Topology, root topo.NodeID) Tree {
	tree := make(Tree, t.NumNodes()-1)
	for _, n := range t.Nodes() {
		if n == root {
			continue
		}
		p := t.ShortestPath(n, root, topo.ByHops)
		if len(p) >= 2 {
			tree[n] = p[1]
		}
	}
	return tree
}

// TreePlan is a prepared destination-tree update: one UIM per (node,
// child) pair — each indication programs one clone-session port; the
// verification labels are identical on all of a node's indications.
type TreePlan struct {
	Nodes   []topo.NodeID // every node of the tree, root first
	Targets []topo.NodeID
	UIMs    []*packet.UIM
}

// PrepareTreePlan labels a destination tree for a single-layer update.
func PrepareTreePlan(t *topo.Topology, flow packet.FlowID, root topo.NodeID,
	tree Tree, version uint32, sizeK uint32) (*TreePlan, error) {

	depth, err := TreeDepths(t, root, tree)
	if err != nil {
		return nil, err
	}
	children := make(map[topo.NodeID][]topo.NodeID)
	for child, parent := range tree {
		children[parent] = append(children[parent], child)
	}
	for _, cs := range children {
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	}
	p := &TreePlan{}
	nodes := make([]topo.NodeID, 0, len(depth))
	for n := range depth {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		if depth[nodes[i]] != depth[nodes[j]] {
			return depth[nodes[i]] < depth[nodes[j]]
		}
		return nodes[i] < nodes[j]
	})
	p.Nodes = nodes

	for _, n := range nodes {
		base := packet.UIM{
			Flow:        flow,
			Version:     version,
			NewDistance: depth[n],
			EgressPort:  packet.NoPort,
			ChildPort:   packet.NoPort,
			FlowSizeK:   sizeK,
			UpdateType:  packet.UpdateSingle,
		}
		if n == root {
			base.Role |= packet.RoleEgress
		} else {
			base.EgressPort = uint16(t.PortTo(n, tree[n]))
		}
		if len(children[n]) == 0 && n != root {
			base.Role |= packet.RoleIngress // a leaf reports completion
		}
		if len(children[n]) == 0 {
			uim := base
			p.UIMs = append(p.UIMs, &uim)
			p.Targets = append(p.Targets, n)
			continue
		}
		// One indication per child: each programs one clone-group port.
		for _, c := range children[n] {
			uim := base
			uim.ChildPort = uint16(t.PortTo(n, c))
			p.UIMs = append(p.UIMs, &uim)
			p.Targets = append(p.Targets, n)
		}
	}
	return p, nil
}

// TreeRecord tracks a destination-routed "flow" in the Flow DB.
type TreeRecord struct {
	Root    topo.NodeID
	Version uint32
	SizeK   uint32
}

// trees is lazily allocated on first RegisterTree.
func (c *Controller) treeDB() map[packet.FlowID]*TreeRecord {
	if c.trees == nil {
		c.trees = make(map[packet.FlowID]*TreeRecord)
	}
	return c.trees
}

// RegisterTree installs destination-based routing toward root along the
// given tree (version 1) and records it in the Flow DB.
func (c *Controller) RegisterTree(root topo.NodeID, tree Tree, sizeK uint32) (packet.FlowID, error) {
	depth, err := TreeDepths(c.Topo, root, tree)
	if err != nil {
		return 0, err
	}
	f := packet.HashFlow(0xffff, uint16(root)) // destination-keyed flow ID
	c.treeDB()[f] = &TreeRecord{Root: root, Version: 1, SizeK: sizeK}
	for n, d := range depth {
		sw := c.Net.Switch(n)
		if n == root {
			sw.InstallInitialRule(f, -2 /* dataplane.PortLocal */, 1, 0, sizeK)
			continue
		}
		sw.InstallInitialRule(f, c.Topo.PortTo(n, tree[n]), 1, d, sizeK)
	}
	return f, nil
}

// TriggerTreeUpdate migrates destination routing for f onto newTree using
// a verified single-layer update: notifications fan out from the root,
// every node checks its new parent is one hop closer, and the update
// completes when the whole tree runs the new version (confirmed by a
// probe from a deepest leaf).
func (c *Controller) TriggerTreeUpdate(f packet.FlowID, newTree Tree) (*UpdateStatus, error) {
	rec, ok := c.treeDB()[f]
	if !ok {
		return nil, fmt.Errorf("controlplane: unknown destination flow %d", f)
	}
	version := rec.Version + 1
	plan, err := PrepareTreePlan(c.Topo, f, rec.Root, newTree, version, rec.SizeK)
	if err != nil {
		return nil, err
	}
	depth, _ := TreeDepths(c.Topo, rec.Root, newTree)
	// The completion probe starts at a deepest leaf (the longest branch).
	deepest := rec.Root
	for n, d := range depth {
		if d > depth[deepest] || (d == depth[deepest] && n < deepest) {
			deepest = n
		}
	}
	probePath := []topo.NodeID{deepest}
	for n := deepest; n != rec.Root; n = newTree[n] {
		probePath = append(probePath, newTree[n])
	}
	u := &UpdateStatus{Flow: f, Version: version, NewPath: probePath}
	c.Launch(u, Dispatch{Pending: plan.Nodes, Send: plan, Resend: plan})
	rec.Version = version
	return u, nil
}

// Send transmits the tree's indications, at launch and on a retrigger.
func (p *TreePlan) Send(c *Controller, _ *UpdateStatus) {
	for i, m := range p.UIMs {
		c.send(p.Targets[i], m)
	}
}
