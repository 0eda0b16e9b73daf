package dataplane

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"p4update/internal/packet"
	"p4update/internal/topo"
)

// flowStateRegisters is the register budget of a flow slot: the ten
// registers of the paper's Table 1, the indication and two-phase-commit
// registers beside them, and the pointer to the update context that only
// updating hops get.
var flowStateRegisters = []string{
	// Table 1.
	"NewDistance", "NewVersion", "EgressPortUpdated", "OldDistance", "OldVersion",
	"EgressPort", "FlowSizeK", "Priority", "LastType", "Counter",
	// Rule presence, indication and the retained previous rule.
	"HasRule", "IndicatedVersion", "PrevEgressPort", "PrevValid", "UIM",
	"UpdateContext",
}

// TestFlowStateFitsOneCacheLine pins the register block every hop of
// every flow holds: its fields, and a size of one 64-byte cache line.
// Anything an update needs only while in flight belongs in
// UpdateContext.
func TestFlowStateFitsOneCacheLine(t *testing.T) {
	typ := reflect.TypeOf(FlowState{})
	var fields []string
	for i := range typ.NumField() {
		fields = append(fields, typ.Field(i).Name)
	}
	if !slices.Equal(fields, flowStateRegisters) {
		t.Errorf("FlowState fields %v, want the register budget %v", fields, flowStateRegisters)
	}
	if size := unsafe.Sizeof(FlowState{}); size > 64 {
		t.Errorf("FlowState takes %d bytes, over the 64-byte register budget", size)
	}
}

// installArcs installs flows 1..n along arcs of g's ring and returns
// each flow's path.
func installArcs(t *testing.T, net *Network, n int) map[packet.FlowID][]topo.NodeID {
	t.Helper()
	nodes := net.Topo.NumNodes()
	paths := make(map[packet.FlowID][]topo.NodeID)
	for f := packet.FlowID(1); f <= packet.FlowID(n); f++ {
		path := make([]topo.NodeID, 2+int(f)%4)
		for k := range path {
			path[k] = topo.NodeID((int(f) + k) % nodes)
		}
		if _, err := net.InstallPath(f, path, 1, 10); err != nil {
			t.Fatal(err)
		}
		paths[f] = path
	}
	return paths
}

// noContexts fails t if any holder of a live flow has an update context
// or the pool ever opened a block.
func noContexts(t *testing.T, net *Network, when string) {
	t.Helper()
	for i := range int32(net.NumFlowSlots()) {
		if _, ok := net.FlowAt(i); !ok {
			continue
		}
		for k := range net.NumFlowHolders(i) {
			if node, st := net.FlowHolder(i, k); st.UpdateContext != nil {
				t.Errorf("%s: node %d holds an update context for slot %d", when, node, i)
			}
		}
	}
	if len(net.contexts.blocks) != 0 {
		t.Errorf("%s: the context pool opened %d blocks", when, len(net.contexts.blocks))
	}
}

// TestInstallRetireAttachesNoContext: a flow installed outside the
// protocol and retired without an update holds registers only, on
// every hop, from install to retirement.
func TestInstallRetireAttachesNoContext(t *testing.T) {
	net, _ := ringNet(8)
	paths := installArcs(t, net, 40)
	noContexts(t, net, "after InstallPath")
	for f := range paths {
		if f%2 == 0 && !net.RetireFlow(f) {
			t.Fatalf("RetireFlow(%d) of a live flow failed", f)
		}
	}
	installArcs(t, net, 10) // reinstalls over retired and live flows alike
	noContexts(t, net, "after RetireFlow and reinstall")
}

// TestRegisterOnlyOperations: the switch operations that scan or peek at
// flows a protocol may never have touched — a crash, the §7.4 priority
// raise and the indication wake-up — work on register-only states
// without attaching a context.
func TestRegisterOnlyOperations(t *testing.T) {
	net, g := ringNet(8)
	paths := installArcs(t, net, 40)
	for _, sw := range net.Switches() {
		for p := range g.Degree(sw.ID) {
			sw.RaisePriorityOfMoversFrom(topo.PortID(p))
		}
		for f := range paths {
			sw.WakeUIMWaiters(f)
		}
	}
	net.Switch(3).Crash()
	net.Switch(3).Restore()
	net.Eng.Run()
	noContexts(t, net, "after crash, priority raise and wake-up")
	for f, path := range paths {
		for _, node := range path {
			st, _ := net.Switch(node).PeekState(f)
			// The crash falls back to the committed version on node 3.
			crashed := node == 3 && st.IndicatedVersion != st.NewVersion
			if st.Priority != PriorityLow || st.UIM != nil || crashed {
				t.Errorf("flow %d on node %d: registers %+v after the register-only operations", f, node, *st)
			}
		}
	}
}

// TestRetiredContextKeepsCapacity: a retiring flow's context goes back
// to the pool with its reservation slice's capacity, and the next flow a
// protocol touches gets it back, so a steady install → stage → retire
// cycle allocates nothing.
func TestRetiredContextKeepsCapacity(t *testing.T) {
	net, g := ringNet(4)
	sw, port := net.Switch(0), g.PortTo(0, 1)
	path := []topo.NodeID{0, 1}
	cycle := func(f packet.FlowID) {
		if _, err := net.InstallPath(f, path, 1, 1); err != nil {
			t.Fatal(err)
		}
		for v := range uint32(5) {
			sw.StageReservation(f, port, 1, v+2)
		}
		net.RetireFlow(f)
	}
	net.InstallPath(1, path, 1, 1)
	for v := range uint32(5) {
		sw.StageReservation(1, port, 1, v+2)
	}
	st, _ := sw.PeekState(1)
	ctx, capacity := st.UpdateContext, cap(st.PendingRes)
	net.RetireFlow(1)
	if st := sw.State(2); st.UpdateContext != ctx || len(st.PendingRes) != 0 || cap(st.PendingRes) != capacity {
		t.Fatalf("next flow got context %p with %d/%d reservations, want the retired %p, empty with capacity %d",
			st.UpdateContext, len(st.PendingRes), cap(st.PendingRes), ctx, capacity)
	}
	net.RetireFlow(2)
	if allocs := testing.AllocsPerRun(100, func() { cycle(3) }); allocs != 0 {
		t.Errorf("an install → stage → retire cycle allocates %.2f times, want 0", allocs)
	}
}

// TestContextPoolGrowth: the pool's blocks double from 8 contexts to
// maxSlabBlock and stay there, however many blocks it opens.
func TestContextPoolGrowth(t *testing.T) {
	var p contextPool
	const n = 100 * maxSlabBlock
	seen := make(map[*UpdateContext]bool, n)
	for range n {
		seen[p.get()] = true
	}
	if len(seen) != n {
		t.Fatalf("%d gets handed out %d distinct contexts", n, len(seen))
	}
	for k, b := range p.blocks {
		want := maxSlabBlock
		if k < 5 {
			want = 8 << k
		}
		if cap(b) != want {
			t.Fatalf("block %d holds %d contexts, want %d", k, cap(b), want)
		}
	}
}
