package audit_test

import (
	"math/rand"
	"testing"
	"time"

	"p4update/internal/audit"
	"p4update/internal/controlplane"
	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/sim"
	"p4update/internal/topo"
	"p4update/internal/traffic"
)

// bed builds a 4-node line fabric with a controller and one registered
// flow 0 -> 3.
func bed(t *testing.T) (*dataplane.Network, *controlplane.Controller, packet.FlowID) {
	t.Helper()
	g := topo.New("line")
	for i := 0; i < 4; i++ {
		g.AddNode("", 0, 0)
	}
	for i := 0; i+1 < 4; i++ {
		g.AddLink(topo.NodeID(i), topo.NodeID(i+1), time.Millisecond, 100)
	}
	eng := sim.New(1)
	eng.MaxEvents = 100_000
	net := dataplane.NewNetwork(eng, g)
	ctl := controlplane.NewController(net)
	f, err := ctl.RegisterFlow(0, 3, []topo.NodeID{0, 1, 2, 3}, 500)
	if err != nil {
		t.Fatal(err)
	}
	return net, ctl, f
}

// cleanup delivers a §11 cleanup frame for version v of flow f to node:
// the data plane's own way of removing a rule older than v.
func cleanup(net *dataplane.Network, node topo.NodeID, f packet.FlowID, v uint32) {
	net.Switch(node).Receive(packet.Marshal(&packet.CLN{Flow: f, Version: v}), topo.InvalidPort)
}

// commit commits version v of flow f at node with egress toward next
// (PortLocal when next == node).
func commit(net *dataplane.Network, node, next topo.NodeID, f packet.FlowID, v, sizeK uint32) {
	port := dataplane.PortLocal
	if next != node {
		port = net.Topo.PortTo(node, next)
	}
	net.Switch(node).CommitState(f, dataplane.Commit{Port: port, Version: v, SizeK: sizeK})
}

func TestCleanStateAuditsClean(t *testing.T) {
	net, ctl, _ := bed(t)
	a := audit.Attach(net, ctl, audit.Config{})
	a.Sweep()
	if r := a.Report(); r.Total() != 0 || r.Sweeps != 1 {
		t.Fatalf("clean fabric reported violations: %+v", r)
	}
}

// TestAuditorDetectsBlackhole checks the checker itself: a mid-path rule
// removed by a cleanup frame must surface as a blackhole.
func TestAuditorDetectsBlackhole(t *testing.T) {
	net, ctl, f := bed(t)
	a := audit.Attach(net, ctl, audit.Config{})
	cleanup(net, 2, f, 2)
	a.Sweep()
	r := a.Report()
	if r.Blackholes != 1 || r.Total() != 1 {
		t.Fatalf("report %+v, want one blackhole", r)
	}
}

// TestAuditorDetectsLoop commits a rule at node 1 that points back at
// node 0 and expects a loop report.
func TestAuditorDetectsLoop(t *testing.T) {
	net, ctl, f := bed(t)
	a := audit.Attach(net, ctl, audit.Config{})
	a.Sweep()
	commit(net, 1, 0, f, 2, 500)
	a.Sweep()
	r := a.Report()
	if r.Loops != 1 {
		t.Fatalf("Loops = %d, want 1: %+v", r.Loops, r)
	}
}

// TestAuditorDetectsOverCapacity overbooks one link past its 100 Mbps
// (100000 kbps) capacity.
func TestAuditorDetectsOverCapacity(t *testing.T) {
	net, ctl, _ := bed(t)
	if _, err := ctl.RegisterFlow(1, 2, []topo.NodeID{1, 2}, 120_000); err != nil {
		t.Fatal(err)
	}
	a := audit.Attach(net, ctl, audit.Config{})
	a.Sweep()
	r := a.Report()
	if r.OverCapacity != 1 {
		t.Fatalf("OverCapacity = %d, want 1: %+v", r.OverCapacity, r)
	}
	// The same fabric with the capacity invariant off must stay clean.
	b := audit.Attach(net, ctl, audit.Config{NoCapacity: true})
	b.Sweep()
	if r := b.Report(); r.Total() != 0 {
		t.Fatalf("NoCapacity sweep still reported: %+v", r)
	}
}

// TestAuditorDetectsVersionRegress rolls a node's applied version
// backwards between sweeps. CommitState refuses to, so the register is
// forged through the state pointer — the one case FlowChanged exists
// for; without it the auditor would keep its verdict of the old registers.
func TestAuditorDetectsVersionRegress(t *testing.T) {
	net, ctl, f := bed(t)
	a := audit.Attach(net, ctl, audit.Config{})
	commit(net, 1, 2, f, 5, 500)
	a.Sweep()
	st, ok := net.Switch(1).PeekState(f)
	if !ok {
		t.Fatal("no state at node 1")
	}
	st.NewVersion = 3
	a.Sweep()
	if r := a.Report(); r.Total() != 0 {
		t.Fatalf("a register forged without FlowChanged was noticed: %+v", r)
	}
	net.FlowChanged(f)
	a.Sweep()
	r := a.Report()
	if r.VersionRegressions != 1 {
		t.Fatalf("VersionRegressions = %d, want 1: %+v", r.VersionRegressions, r)
	}
}

// TestCrashedSwitchIsNotABlackhole: a trace meeting a down switch is a
// physical outage, not a protocol violation.
func TestCrashedSwitchIsNotABlackhole(t *testing.T) {
	net, ctl, _ := bed(t)
	a := audit.Attach(net, ctl, audit.Config{})
	net.Switch(2).Crash()
	a.Sweep()
	if r := a.Report(); r.Total() != 0 {
		t.Fatalf("down switch charged as violation: %+v", r)
	}
	net.Switch(2).Restore()
	a.Sweep()
	if r := a.Report(); r.Total() != 0 {
		t.Fatalf("restored switch audits dirty: %+v", r)
	}
}

// TestAfterStepPeriod wires the auditor to the engine and checks the
// sweep cadence.
func TestAfterStepPeriod(t *testing.T) {
	net, ctl, _ := bed(t)
	a := audit.Attach(net, ctl, audit.Config{Every: 2})
	for i := 0; i < 10; i++ {
		net.Eng.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	net.Eng.Run()
	if r := a.Report(); r.Sweeps != 5 {
		t.Fatalf("Sweeps = %d after 10 steps at Every=2, want 5", r.Sweeps)
	}
}

// TestOnSweepDeltas drives three sweeps — clean, blackholed, clean again
// after repair — and checks the hook sees per-sweep deltas, not running
// totals.
func TestOnSweepDeltas(t *testing.T) {
	net, ctl, f := bed(t)
	a := audit.Attach(net, ctl, audit.Config{})
	var got []audit.SweepStats
	a.OnSweep = func(s audit.SweepStats) { got = append(got, s) }

	a.Sweep()
	cleanup(net, 2, f, 2)
	a.Sweep()
	commit(net, 2, 3, f, 2, 500)
	a.Sweep()

	if len(got) != 3 {
		t.Fatalf("hook fired %d times, want 3", len(got))
	}
	wantBH := []uint64{0, 1, 0}
	for i, s := range got {
		if s.Blackholes != wantBH[i] || s.Total() != wantBH[i] {
			t.Errorf("sweep %d: blackhole delta %d, want %d", i+1, s.Blackholes, wantBH[i])
		}
	}
}

// sweepDeltas collects the per-sweep violation counts OnSweep reports.
func sweepDeltas(a *audit.Auditor) *[]audit.SweepStats {
	var got []audit.SweepStats
	a.OnSweep = func(s audit.SweepStats) { got = append(got, s) }
	return &got
}

// TestUnchangedFabricSweepsWithoutAllocating: with no register written
// and no switch crashed since the last sweep, a sweep re-reports what it
// remembers and allocates nothing, however many flows are live.
func TestUnchangedFabricSweepsWithoutAllocating(t *testing.T) {
	g := topo.B4()
	net := dataplane.NewNetwork(sim.New(1), g)
	ctl := controlplane.NewController(net)
	flows, err := traffic.ManyFlowWorkload(g, rand.New(rand.NewSource(1)), 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if err := ctl.RegisterFlowID(f.ID(), f.Src, f.Dst, f.Old, f.SizeK); err != nil {
			t.Fatal(err)
		}
	}
	a := audit.Attach(net, ctl, audit.Config{})
	a.Sweep()
	if allocs := testing.AllocsPerRun(20, a.Sweep); allocs != 0 {
		t.Errorf("sweeping an unchanged %d-flow fabric allocates %.1f objects a sweep, want 0", len(flows), allocs)
	}
	if r := a.Report(); r.Total() != 0 || r.Sweeps != 22 {
		t.Fatalf("report = %+v, want 22 clean sweeps", r)
	}
}

// TestPersistingViolationCountsEverySweep: a blackhole nobody repairs is
// counted once per sweep although only the first sweep reads a register.
func TestPersistingViolationCountsEverySweep(t *testing.T) {
	net, ctl, f := bed(t)
	a := audit.Attach(net, ctl, audit.Config{})
	cleanup(net, 2, f, 2)
	const n = 5
	for i := 0; i < n; i++ {
		a.Sweep()
	}
	if r := a.Report(); r.Blackholes != n || r.Total() != n {
		t.Fatalf("report after %d sweeps = %+v, want %d blackholes of one flow", n, r, n)
	}
}

// TestRestoreRevealsWhatTheOutageHid: a trace that stops at a crashed
// switch says nothing about the rules behind it. A rule removed there
// during the outage must surface on the first sweep after Restore,
// although by then its revision is old news and no register of the
// restored switch ever changed.
func TestRestoreRevealsWhatTheOutageHid(t *testing.T) {
	net, ctl, f := bed(t)
	a := audit.Attach(net, ctl, audit.Config{})
	got := sweepDeltas(a)
	a.Sweep()
	net.Switch(1).Crash()
	a.Sweep()
	cleanup(net, 2, f, 2)
	a.Sweep()
	a.Sweep()
	net.Switch(1).Restore()
	a.Sweep()
	a.Sweep()
	for i, want := range []uint64{0, 0, 0, 0, 1, 1} {
		if s := (*got)[i]; s.Blackholes != want || s.Total() != want {
			t.Errorf("sweep %d: %+v, want %d blackholes and nothing else", i+1, s, want)
		}
	}
}

// TestNewTenantInheritsNothing: a flow that moves into a retired flow's
// slot between two sweeps starts clean — not the predecessor's blackhole,
// not its applied versions (5 at node 1, the tenant's is 1), not its 500
// kbps on link 1->2 (which would push the tenant's 99.9 Mbps over).
func TestNewTenantInheritsNothing(t *testing.T) {
	net, ctl, f := bed(t)
	a := audit.Attach(net, ctl, audit.Config{})
	got := sweepDeltas(a)
	commit(net, 1, 2, f, 5, 500)
	cleanup(net, 2, f, 6)
	a.Sweep()
	if s := (*got)[0]; s.Blackholes != 1 || s.Total() != 1 {
		t.Fatalf("first tenant: %+v, want one blackhole", s)
	}

	ctl.UnregisterFlow(f)
	net.RetireFlow(f)
	g, err := ctl.RegisterFlow(1, 2, []topo.NodeID{1, 2}, 99_900)
	if err != nil {
		t.Fatal(err)
	}
	if tenant, live := net.FlowAt(0); !live || tenant != g || net.NumFlowSlots() != 1 {
		t.Fatalf("slot 0 holds %d (live %v) of %d slots, want the new flow %d in the only slot", tenant, live, net.NumFlowSlots(), g)
	}
	a.Sweep()
	a.Sweep()
	for i, s := range (*got)[1:] {
		if s.Total() != 0 {
			t.Errorf("new tenant, sweep %d: %+v, want clean", i+1, s)
		}
	}
}

// TestOverCapacityFollowsTheOtherFlow: link 1->2 goes over capacity and
// back under as flow f is rerouted onto and off it, while the flow g it
// shares the link with never has a register written — g's remembered
// load must still be on the link.
func TestOverCapacityFollowsTheOtherFlow(t *testing.T) {
	ring := topo.New("ring")
	for i := 0; i < 4; i++ {
		ring.AddNode("", 0, 0)
	}
	for i := 0; i < 4; i++ {
		ring.AddLink(topo.NodeID(i), topo.NodeID((i+1)%4), time.Millisecond, 100)
	}
	net := dataplane.NewNetwork(sim.New(1), ring)
	ctl := controlplane.NewController(net)
	f, err := ctl.RegisterFlow(0, 2, []topo.NodeID{0, 3, 2}, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.RegisterFlow(1, 2, []topo.NodeID{1, 2}, 60_000); err != nil {
		t.Fatal(err)
	}
	a := audit.Attach(net, ctl, audit.Config{})
	got := sweepDeltas(a)
	a.Sweep()
	commit(net, 1, 2, f, 2, 60_000)
	commit(net, 0, 1, f, 2, 60_000)
	a.Sweep()
	a.Sweep()
	commit(net, 0, 3, f, 3, 60_000)
	a.Sweep()
	for i, want := range []uint64{0, 1, 1, 0} {
		if s := (*got)[i]; s.OverCapacity != want || s.Total() != want {
			t.Errorf("sweep %d: %+v, want %d over-capacity and nothing else", i+1, s, want)
		}
	}
}
