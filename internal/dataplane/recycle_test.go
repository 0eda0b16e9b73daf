package dataplane

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"p4update/internal/packet"
	"p4update/internal/sim"
	"p4update/internal/topo"
)

// TestSlotRecyclingNeverAliasesLiveFlows drives a long random
// install/retire churn over the interning table and checks the two
// core recycling invariants after every step: no dense slot is shared
// by two live flows, and the slot space never grows past the peak live
// population.
func TestSlotRecyclingNeverAliasesLiveFlows(t *testing.T) {
	net, _ := lineNet(t, 1)
	rng := rand.New(rand.NewSource(42))
	path := []topo.NodeID{0, 1, 2, 3}

	live := make(map[packet.FlowID]int32)
	peak := 0
	for step := 0; step < 5000; step++ {
		if len(live) == 0 || rng.Intn(100) < 55 {
			f := packet.FlowID(rng.Uint32())
			if _, ok := live[f]; ok {
				continue
			}
			net.InstallPath(f, path, 1, 1)
			i, ok := net.FlowSlot(f)
			if !ok {
				t.Fatalf("step %d: flow %d not interned after install", step, f)
			}
			live[f] = i
		} else {
			// Retire a pseudo-random live flow.
			k := rng.Intn(len(live))
			var victim packet.FlowID
			for f := range live {
				if k == 0 {
					victim = f
					break
				}
				k--
			}
			if !net.RetireFlow(victim) {
				t.Fatalf("step %d: retire of live flow %d failed", step, victim)
			}
			delete(live, victim)
		}
		if len(live) > peak {
			peak = len(live)
		}
		if net.NumFlowSlots() > peak {
			t.Fatalf("step %d: %d slots for peak live %d — table grows with history",
				step, net.NumFlowSlots(), peak)
		}
	}

	// Final audit: every live flow occupies its recorded slot, every
	// slot holds at most one live flow, and dead slots report vacant.
	seen := make(map[int32]packet.FlowID)
	for f, i := range live {
		got, ok := net.FlowSlot(f)
		if !ok || got != i {
			t.Fatalf("flow %d moved from slot %d to (%d, %v)", f, i, got, ok)
		}
		if prev, dup := seen[i]; dup {
			t.Fatalf("slot %d shared by live flows %d and %d", i, prev, f)
		}
		seen[i] = f
		if id, ok := net.FlowAt(i); !ok || id != f {
			t.Fatalf("FlowAt(%d) = (%d, %v), want (%d, true)", i, id, ok, f)
		}
	}
	for i := 0; i < net.NumFlowSlots(); i++ {
		f, ok := net.FlowAt(int32(i))
		if !ok {
			continue
		}
		if got, has := live[f]; !has || got != int32(i) {
			t.Fatalf("slot %d reports flow %d which is not live there", i, f)
		}
	}
}

// liveFlows lists the fabric's live flows by walking its slot space, as
// the invariant auditor does.
func liveFlows(net *Network) []packet.FlowID {
	var out []packet.FlowID
	for i := int32(0); i < int32(net.NumFlowSlots()); i++ {
		if f, live := net.FlowAt(i); live {
			out = append(out, f)
		}
	}
	return out
}

// TestFlowIDsIterateLiveOnly checks that the slot space yields no
// retired flow and re-reports recycled slots' new tenants.
func TestFlowIDsIterateLiveOnly(t *testing.T) {
	net, _ := lineNet(t, 1)
	path := []topo.NodeID{0, 1, 2, 3}
	for f := packet.FlowID(1); f <= 10; f++ {
		net.InstallPath(f, path, 1, 1)
	}
	for f := packet.FlowID(2); f <= 10; f += 2 {
		net.RetireFlow(f)
	}
	want := map[packet.FlowID]bool{1: true, 3: true, 5: true, 7: true, 9: true}
	got := liveFlows(net)
	if len(got) != len(want) {
		t.Fatalf("slots hold %d flows, want %d: %v", len(got), len(want), got)
	}
	for _, f := range got {
		if !want[f] {
			t.Fatalf("slots hold retired flow %d", f)
		}
	}
	// Recycled slots pick up new tenants and reappear exactly once.
	net.InstallPath(100, path, 1, 1)
	net.InstallPath(101, path, 1, 1)
	count := make(map[packet.FlowID]int)
	for _, f := range liveFlows(net) {
		count[f]++
	}
	if count[100] != 1 || count[101] != 1 || len(count) != 7 {
		t.Fatalf("after recycling, live flows = %v", count)
	}
	if net.NumFlowSlots() != 10 {
		t.Fatalf("slot space grew to %d, want 10", net.NumFlowSlots())
	}
}

// TestSteadyStateRecyclingAllocationFree asserts the perf contract of
// the free-list design: once the fabric has reached its peak live
// population, install/retire churn allocates nothing — slots come off
// the interning free list and FlowState blocks off the fabric slab's
// free list, so steady-state memory does not grow with historical flow
// count.
func TestSteadyStateRecyclingAllocationFree(t *testing.T) {
	net, _ := lineNet(t, 1)
	path := []topo.NodeID{0, 1, 2, 3}
	ids := make([]packet.FlowID, 32)
	for i := range ids {
		ids[i] = packet.FlowID(1000 + i)
	}
	cycle := func() {
		for _, f := range ids {
			net.InstallPath(f, path, 1, 1)
		}
		for _, f := range ids {
			net.RetireFlow(f)
		}
	}
	cycle() // warm: grow table, maps, and free lists to peak
	if avg := testing.AllocsPerRun(100, cycle); avg > 0.5 {
		t.Fatalf("steady-state install/retire cycle allocates %.1f objects per cycle, want 0", avg)
	}
}

// TestRetireFlowReleasesSwitchState checks that retirement recycles the
// flow's register blocks into the fabric's slab: re-installing the
// retired path, for another flow, allocates nothing and takes the same
// blocks as a set (the free list is fabric-wide, so which hop gets which
// block is not fixed), each renewed to the new flow's rule.
func TestRetireFlowReleasesSwitchState(t *testing.T) {
	net, _ := lineNet(t, 1)
	path := []topo.NodeID{0, 1, 2, 3}
	blocks := func(f packet.FlowID) map[*FlowState]bool {
		set := make(map[*FlowState]bool)
		for _, node := range path {
			if st, ok := net.Switch(node).PeekState(f); ok {
				set[st] = true
			}
		}
		return set
	}
	f, g := packet.FlowID(7), packet.FlowID(8)
	net.InstallPath(f, path, 1, 1)
	before := blocks(f)
	if len(before) != len(path) {
		t.Fatalf("%d distinct state blocks after install, want %d", len(before), len(path))
	}
	net.RetireFlow(f)
	if got := blocks(f); len(got) != 0 {
		t.Fatalf("%d state blocks still visible after retire", len(got))
	}
	reinstall := func() {
		net.InstallPath(g, path, 2, 1)
		net.RetireFlow(g)
	}
	if avg := testing.AllocsPerRun(10, reinstall); avg != 0 {
		t.Fatalf("re-installing a retired path allocates %.1f objects, want 0", avg)
	}
	net.InstallPath(g, path, 2, 1)
	after := blocks(g)
	if !maps.Equal(before, after) {
		t.Fatal("the retired flow's state blocks were not reused as a set")
	}
	for st := range after {
		if !st.HasRule || st.NewVersion != 2 || st.UpdateContext != nil {
			t.Fatalf("recycled state not renewed: %+v", st)
		}
	}
}

// TestRetireFlowAfterReroute covers the holder set RetireFlow walks
// instead of the whole fabric: a flow rerouted from 0-1-2-5 onto 0-3-4-5
// holds state on old-path and new-path switches alike (the old transit
// rules are still installed and still reserve capacity), and retirement
// must find every one of them, leaving no state, no reservation and a
// reusable slot. It must also release them in ascending node order
// whatever order they joined the set in: a release wakes the port's
// capacity waiters, and wake order is event order.
func TestRetireFlowAfterReroute(t *testing.T) {
	g := topo.New("two-paths")
	for i := 0; i < 7; i++ {
		g.AddNode("", 0, 0)
	}
	for _, e := range [][2]topo.NodeID{{0, 1}, {1, 2}, {2, 5}, {0, 3}, {3, 4}, {4, 5}, {5, 6}} {
		g.AddLink(e[0], e[1], time.Millisecond, 100)
	}
	net := NewNetwork(sim.New(1), g)
	f := packet.FlowID(42)
	oldPath := []topo.NodeID{0, 1, 2, 5}
	newPath := []topo.NodeID{0, 3, 4, 5}
	net.InstallPath(f, oldPath, 1, 300)
	// Commit version 2 along the new path egress-first, as an update
	// would; holders therefore join the set in no particular node order.
	for i := len(newPath) - 1; i >= 0; i-- {
		port := PortLocal
		if i+1 < len(newPath) {
			port = g.PortTo(newPath[i], newPath[i+1])
		}
		ok := net.Switch(newPath[i]).CommitState(f, Commit{
			Port: port, Version: 2, Distance: uint16(len(newPath) - 1 - i),
			OldVersion: 1, SizeK: 300, Type: packet.UpdateSingle,
		})
		if !ok {
			t.Fatalf("commit of version 2 refused at node %d", newPath[i])
		}
	}
	holders := 0
	for _, sw := range net.Switches() {
		if _, ok := sw.PeekState(f); ok {
			holders++
		}
	}
	if holders != 6 {
		t.Fatalf("%d switches hold state after the reroute, want 6 (old and new path)", holders)
	}
	if net.Switch(1).ReservedK(g.PortTo(1, 2)) != 300 || net.Switch(3).ReservedK(g.PortTo(3, 4)) != 300 {
		t.Fatal("expected live reservations on both the old and the new path")
	}
	rec := &recorder{}
	net.SetHandler(rec)
	for _, n := range []topo.NodeID{4, 1, 3, 0, 2} {
		port := g.PortTo(n, map[topo.NodeID]topo.NodeID{0: 3, 1: 2, 2: 5, 3: 4, 4: 5}[n])
		net.Switch(n).ParkOnCapacity(port, &packet.UIM{Flow: 99, Version: 2}, topo.InvalidPort)
	}

	if !net.RetireFlow(f) {
		t.Fatal("RetireFlow of a live flow returned false")
	}
	net.Eng.Run()
	if want := []topo.NodeID{0, 1, 2, 3, 4}; !slices.Equal(rec.nodes, want) {
		t.Errorf("capacity waiters woke in order %v, want ascending %v", rec.nodes, want)
	}
	for _, sw := range net.Switches() {
		if _, ok := sw.PeekState(f); ok {
			t.Errorf("node %d still holds state after retirement", sw.ID)
		}
		for p := 0; p < g.Degree(sw.ID); p++ {
			if r := sw.ReservedK(topo.PortID(p)); r != 0 {
				t.Errorf("node %d port %d still reserves %d kbps", sw.ID, p, r)
			}
		}
	}
	if net.RetireFlow(f) {
		t.Error("second RetireFlow of the same flow returned true")
	}

	// The slot is reusable: the next flow takes it, starts from fresh
	// state everywhere it goes, and retires cleanly in turn.
	h := packet.FlowID(43)
	net.InstallPath(h, newPath, 1, 100)
	if net.NumFlowSlots() != 1 {
		t.Fatalf("slot space grew to %d, want the retired slot reused", net.NumFlowSlots())
	}
	if st, ok := net.Switch(3).PeekState(h); !ok || st.NewVersion != 1 || st.PrevValid {
		t.Fatalf("recycled state on node 3 not fresh: %+v", st)
	}
	if _, ok := net.Switch(1).PeekState(h); ok {
		t.Fatal("new tenant of the slot sees state on a switch only the old tenant used")
	}
	if !net.RetireFlow(h) {
		t.Fatal("retire of the slot's second tenant failed")
	}
	if got := liveFlows(net); len(got) != 0 {
		t.Fatalf("live flows after retiring everything: %v", got)
	}
}
