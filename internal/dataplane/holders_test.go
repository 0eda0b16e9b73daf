package dataplane

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"p4update/internal/packet"
	"p4update/internal/sim"
	"p4update/internal/topo"
)

// ringNet builds an n-switch ring with 1 ms, 100 Mbps links.
func ringNet(n int) (*Network, *topo.Topology) {
	g := topo.New("ring")
	for i := 0; i < n; i++ {
		g.AddNode("", 0, 0)
	}
	for i := 0; i < n; i++ {
		g.AddLink(topo.NodeID(i), topo.NodeID((i+1)%n), time.Millisecond, 100)
	}
	return NewNetwork(sim.New(1), g), g
}

// TestHolderSetsMatchReference drives random State, PeekState,
// InstallPath and RetireFlow calls over a 14-switch ring, so a flow's
// holder set grows past its inline capacity and slots are recycled, and
// checks the holder sets against a brute-force map of every (switch,
// flow) block ever handed out:
//
//   - a (switch, flow) pair resolves to the same block until the flow
//     retires, whatever else retires meanwhile;
//   - every set is in strictly ascending node order;
//   - RetireFlow visits the holders in ascending node order (seen
//     through the order their capacity releases wake parked work) and
//     leaves none behind;
//   - Switch.Flows and FlowStateAt agree with the reference.
func TestHolderSetsMatchReference(t *testing.T) {
	const nodes = 14
	net, g := ringNet(nodes)
	rec := &recorder{}
	net.SetHandler(rec)
	rng := rand.New(rand.NewSource(7))

	ref := make(map[packet.FlowID]map[topo.NodeID]*FlowState)
	var live []packet.FlowID
	next := packet.FlowID(1)
	newFlow := func() packet.FlowID {
		f := next
		next++
		ref[f] = make(map[topo.NodeID]*FlowState)
		live = append(live, f)
		return f
	}
	pickFlow := func() packet.FlowID {
		if len(live) == 0 || rng.Intn(4) == 0 {
			return newFlow()
		}
		return live[rng.Intn(len(live))]
	}
	// record checks a block the fabric returned for (node, f) against the
	// reference, remembering it on first sight.
	record := func(step int, node topo.NodeID, f packet.FlowID, st *FlowState) {
		t.Helper()
		if want, ok := ref[f][node]; ok && want != st {
			t.Fatalf("step %d: flow %d on node %d moved from block %p to %p", step, f, node, want, st)
		}
		ref[f][node] = st
	}

	checkAll := func(step int) {
		t.Helper()
		for i := range net.flows.holders {
			hs := &net.flows.holders[i]
			f, isLive := net.FlowAt(int32(i))
			if !isLive {
				if hs.n != 0 {
					t.Fatalf("step %d: vacant slot %d keeps %d holders", step, i, hs.n)
				}
				continue
			}
			if int(hs.n) != len(ref[f]) || net.NumFlowHolders(int32(i)) != len(ref[f]) {
				t.Fatalf("step %d: flow %d has %d holders, reference %d", step, f, hs.n, len(ref[f]))
			}
			for k := 0; k < int(hs.n); k++ {
				node, st := net.FlowHolder(int32(i), k)
				if k > 0 && hs.at(k-1).node >= node {
					t.Fatalf("step %d: slot %d holders out of order at %d: %d then %d", step, i, k, hs.at(k-1).node, node)
				}
				if ref[f][node] != st {
					t.Fatalf("step %d: FlowHolder(%d, %d) = node %d block %p, reference %p", step, i, k, node, st, ref[f][node])
				}
			}
		}
		for _, sw := range net.Switches() {
			var want []packet.FlowID
			for i := range net.flows.slots {
				f, isLive := net.FlowAt(int32(i))
				st := sw.FlowStateAt(i)
				if wantSt := ref[f][sw.ID]; !isLive && st != nil || isLive && st != wantSt {
					t.Fatalf("step %d: node %d FlowStateAt(%d) = %p, reference %p", step, sw.ID, i, st, wantSt)
				}
				if isLive && ref[f][sw.ID] != nil {
					want = append(want, f)
				}
			}
			if got := sw.Flows(); !slices.Equal(got, want) {
				t.Fatalf("step %d: node %d Flows() = %v, reference %v", step, sw.ID, got, want)
			}
		}
	}

	maxHolders := 0
	for step := 0; step < 6000; step++ {
		switch r := rng.Intn(100); {
		case r < 35: // touch state on any switch
			f, node := pickFlow(), topo.NodeID(rng.Intn(nodes))
			sw := net.Switch(node)
			record(step, node, f, sw.State(f))
			if rng.Intn(3) == 0 {
				sw.StageReservation(f, 0, 1, 2)
			}
		case r < 55: // peek, hit or miss; a peek interns nothing
			f, node := packet.FlowID(1<<30), topo.NodeID(rng.Intn(nodes))
			if len(live) > 0 && rng.Intn(4) != 0 {
				f = live[rng.Intn(len(live))]
			}
			st, ok := net.Switch(node).PeekState(f)
			if want := ref[f][node]; ok != (want != nil) || st != want {
				t.Fatalf("step %d: PeekState(%d) on node %d = (%p, %v), reference %p", step, f, node, st, ok, want)
			}
		case r < 75: // install along an arc of the ring, either direction
			f := pickFlow()
			start, hops, dir := rng.Intn(nodes), 1+rng.Intn(nodes-1), 1+rng.Intn(2)*(nodes-2)
			path := make([]topo.NodeID, hops+1)
			for k := range path {
				path[k] = topo.NodeID((start + k*dir) % nodes)
			}
			net.InstallPath(f, path, 1, 1)
			for _, node := range path {
				st, ok := net.Switch(node).PeekState(f)
				if !ok || !st.HasRule {
					t.Fatalf("step %d: no rule for flow %d on node %d after InstallPath", step, f, node)
				}
				record(step, node, f, st)
			}
		default: // retire
			if len(live) == 0 {
				continue
			}
			k := rng.Intn(len(live))
			f := live[k]
			live = slices.Delete(live, k, k+1)
			if i, ok := net.FlowSlot(f); ok {
				maxHolders = max(maxHolders, int(net.flows.holders[i].n))
			}
			// Park one piece of work on every port of every holder; the
			// retirement's releases wake them in the order it visits.
			var released []topo.NodeID
			for node, st := range ref[f] {
				if st.UpdateContext != nil && len(st.PendingRes) > 0 || st.HasRule && st.EgressPort >= 0 {
					released = append(released, node)
				}
				for p := 0; p < g.Degree(node); p++ {
					net.Switch(node).ParkOnCapacity(topo.PortID(p), &packet.UIM{Flow: f}, topo.InvalidPort)
				}
			}
			slices.Sort(released)
			rec.nodes = rec.nodes[:0]
			if !net.RetireFlow(f) {
				t.Fatalf("step %d: RetireFlow(%d) of a live flow failed", step, f)
			}
			net.Eng.Run()
			if !slices.IsSorted(rec.nodes) || !slices.Equal(slices.Compact(rec.nodes), released) {
				t.Fatalf("step %d: retirement of flow %d woke nodes %v, want ascending %v", step, f, rec.nodes, released)
			}
			for node := range ref[f] {
				sw := net.Switch(node)
				if _, ok := sw.PeekState(f); ok {
					t.Fatalf("step %d: node %d still holds retired flow %d", step, node, f)
				}
				for s := range sw.capWaiters {
					net.dropParked(&sw.capWaiters[s])
				}
			}
			delete(ref, f)
		}
		if step%50 == 0 {
			checkAll(step)
		}
	}
	checkAll(-1)
	if maxHolders <= holderInline {
		t.Fatalf("no retired flow had more than %d holders: the spill was never exercised", holderInline)
	}
}
