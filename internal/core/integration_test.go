package core_test

import (
	"testing"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/core"
	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/sim"
	"p4update/internal/topo"
)

// testbed wires a full system on the given topology.
type testbed struct {
	eng  *sim.Engine
	topo *topo.Topology
	net  *dataplane.Network
	ctl  *controlplane.Controller
}

// launch sends a prepared plan through the controller's one launch call,
// with the plan's own UIMs as its §11 resend, as TriggerUpdate does.
func launch(ctl *controlplane.Controller, plan *controlplane.Plan) *controlplane.UpdateStatus {
	u := &controlplane.UpdateStatus{Flow: plan.Flow, Version: plan.Version,
		OldPath: plan.OldPath, NewPath: plan.NewPath, Plan: plan}
	ctl.Launch(u, controlplane.Dispatch{Send: plan, Resend: plan})
	return u
}

func newTestbed(t *topo.Topology, seed int64, proto *core.Protocol) *testbed {
	eng := sim.New(seed)
	eng.MaxEvents = 5_000_000
	net := dataplane.NewNetwork(eng, t)
	net.SetHandler(proto)
	controlplane.UseCentroidControl(net)
	ctl := controlplane.NewController(net)
	return &testbed{eng: eng, topo: t, net: net, ctl: ctl}
}

func forceType(ut packet.UpdateType) *packet.UpdateType { return &ut }

// assertNoLoopsEver installs a tap asserting the current forwarding state
// never contains a loop reachable from the flow ingress.
func assertLoopFree(t *testing.T, tb *testbed, f packet.FlowID, ingress topo.NodeID) {
	t.Helper()
	visited, _ := tb.net.TracePath(f, ingress, tb.topo.NumNodes()+2)
	seen := map[topo.NodeID]bool{}
	for _, n := range visited {
		if seen[n] {
			t.Fatalf("forwarding loop through node %d: %v", n, visited)
		}
		seen[n] = true
	}
}

func TestSLUpdateSynthetic(t *testing.T) {
	g := topo.Synthetic()
	tb := newTestbed(g, 1, &core.Protocol{})
	oldP, newP := topo.SyntheticPaths()
	f, err := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
	if err != nil {
		t.Fatal(err)
	}
	u, err := tb.ctl.TriggerUpdate(f, newP, forceType(packet.UpdateSingle))
	if err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()

	if !u.Done() {
		t.Fatal("SL update did not complete")
	}
	if len(u.Alarms) != 0 {
		t.Fatalf("unexpected alarms: %v", u.Alarms)
	}
	// The final forwarding state must be the new path.
	got, delivered := tb.net.TracePath(f, 0, 20)
	if !delivered || len(got) != len(newP) {
		t.Fatalf("final path %v (delivered=%v), want %v", got, delivered, newP)
	}
	for i := range newP {
		if got[i] != newP[i] {
			t.Fatalf("final path %v, want %v", got, newP)
		}
	}
	// SL is sequential: total time at least 7 hops of 20 ms UNM travel.
	elapsed := u.Completed - u.Sent
	if elapsed < 7*20*time.Millisecond {
		t.Errorf("SL update finished implausibly fast: %v", elapsed)
	}
}

func TestDLUpdateSynthetic(t *testing.T) {
	g := topo.Synthetic()
	tb := newTestbed(g, 1, &core.Protocol{})
	oldP, newP := topo.SyntheticPaths()
	f, err := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
	if err != nil {
		t.Fatal(err)
	}
	u, err := tb.ctl.TriggerUpdate(f, newP, forceType(packet.UpdateDual))
	if err != nil {
		t.Fatal(err)
	}
	if u.Plan.Type != packet.UpdateDual {
		t.Fatal("plan did not force dual layer")
	}
	// The Fig-1 segmentation: gateways v0,v2,v4,v7; middle segment backward.
	wantGW := []topo.NodeID{0, 2, 4, 7}
	if len(u.Plan.Seg.Gateways) != len(wantGW) {
		t.Fatalf("gateways = %v, want %v", u.Plan.Seg.Gateways, wantGW)
	}
	for i, g := range wantGW {
		if u.Plan.Seg.Gateways[i] != g {
			t.Fatalf("gateways = %v, want %v", u.Plan.Seg.Gateways, wantGW)
		}
	}
	segs := u.Plan.Seg.Segments
	if len(segs) != 3 || !segs[0].Forward || segs[1].Forward || !segs[2].Forward {
		t.Fatalf("segment classification wrong: %+v", segs)
	}

	tb.eng.Run()
	if !u.Done() {
		t.Fatal("DL update did not complete")
	}
	if len(u.Alarms) != 0 {
		t.Fatalf("unexpected alarms: %v", u.Alarms)
	}
	got, delivered := tb.net.TracePath(f, 0, 20)
	if !delivered || len(got) != len(newP) {
		t.Fatalf("final path %v (delivered=%v), want %v", got, delivered, newP)
	}
	assertLoopFree(t, tb, f, 0)

	// After convergence all nodes on the new path share segment ID 0
	// (iterative inheritance reached everyone).
	for _, n := range newP {
		st, ok := tb.net.Switch(n).PeekState(f)
		if !ok {
			t.Fatalf("node %d has no state", n)
		}
		if st.OldDistance != 0 {
			t.Errorf("node %d old_distance = %d, want 0 (inherited)", n, st.OldDistance)
		}
	}
}

func TestDLFasterThanSLOnSegmentedUpdate(t *testing.T) {
	run := func(ut packet.UpdateType) time.Duration {
		g := topo.Synthetic()
		tb := newTestbed(g, 7, &core.Protocol{})
		oldP, newP := topo.SyntheticPaths()
		f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
		u, err := tb.ctl.TriggerUpdate(f, newP, forceType(ut))
		if err != nil {
			t.Fatal(err)
		}
		tb.eng.Run()
		if !u.Done() {
			t.Fatalf("%v update did not complete", ut)
		}
		return u.Completed - u.Sent
	}
	sl := run(packet.UpdateSingle)
	dl := run(packet.UpdateDual)
	if dl >= sl {
		t.Errorf("DL (%v) not faster than SL (%v) on the segmented Fig-1 update", dl, sl)
	}
}

func TestAutoSelectionPolicy(t *testing.T) {
	// Fig-1 scenario has a backward segment: must pick dual layer.
	g := topo.Synthetic()
	tb := newTestbed(g, 1, &core.Protocol{})
	oldP, newP := topo.SyntheticPaths()
	f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
	u, err := tb.ctl.TriggerUpdate(f, newP, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.Plan.Type != packet.UpdateDual {
		t.Errorf("auto selection picked %v, want DL (backward segment present)", u.Plan.Type)
	}
	tb.eng.Run()
	if !u.Done() {
		t.Fatal("auto update did not complete")
	}

	// A small forward-only detour must pick single layer.
	tb2 := newTestbed(topo.Synthetic(), 1, &core.Protocol{})
	f2, _ := tb2.ctl.RegisterFlow(0, 7, []topo.NodeID{0, 4, 2, 7}, 1000)
	// Detour the middle: 0,4,5,6,7 — v4 switches to v5; 4,5,6 new rules.
	u2, err := tb2.ctl.TriggerUpdate(f2, []topo.NodeID{0, 4, 5, 6, 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u2.Plan.Type != packet.UpdateSingle {
		t.Errorf("auto selection picked %v, want SL (few forward-only updates)", u2.Plan.Type)
	}
	tb2.eng.Run()
	if !u2.Done() {
		t.Fatal("SL auto update did not complete")
	}
}

func TestUpdateWithInstallDelays(t *testing.T) {
	// Per-node rule-install delays (the Dionysus-motivated straggler
	// model of §9.1) must not break correctness.
	for _, ut := range []packet.UpdateType{packet.UpdateSingle, packet.UpdateDual} {
		g := topo.Synthetic()
		tb := newTestbed(g, 3, &core.Protocol{})
		rng := tb.eng.Rand()
		tb.net.SetInstallDelay(func() time.Duration {
			return time.Duration(rng.ExpFloat64() * float64(100*time.Millisecond))
		})
		oldP, newP := topo.SyntheticPaths()
		f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
		u, err := tb.ctl.TriggerUpdate(f, newP, forceType(ut))
		if err != nil {
			t.Fatal(err)
		}
		tb.eng.Run()
		if !u.Done() {
			t.Fatalf("%v update with delays did not complete", ut)
		}
		got, delivered := tb.net.TracePath(f, 0, 20)
		if !delivered || len(got) != len(newP) {
			t.Fatalf("%v: final path %v", ut, got)
		}
	}
}

func TestUpdateOnWANTopologies(t *testing.T) {
	for _, g := range []*topo.Topology{topo.B4(), topo.Internet2()} {
		tb := newTestbed(g, 11, &core.Protocol{})
		// Long flow: between the two latency-farthest nodes.
		src, dst := farthestPair(g)
		oldP := g.ShortestPath(src, dst, topo.ByLatency)
		ks := g.KShortestPaths(src, dst, 2, topo.ByLatency)
		if len(ks) < 2 {
			t.Fatalf("%s: no 2nd shortest path", g.Name)
		}
		newP := ks[1]
		f, err := tb.ctl.RegisterFlow(src, dst, oldP, 1000)
		if err != nil {
			t.Fatal(err)
		}
		u, err := tb.ctl.TriggerUpdate(f, newP, nil)
		if err != nil {
			t.Fatal(err)
		}
		tb.eng.Run()
		if !u.Done() {
			t.Fatalf("%s: update did not complete (pick=%v)", g.Name, u.Plan.Type)
		}
		got, delivered := tb.net.TracePath(f, src, g.NumNodes()+1)
		if !delivered {
			t.Fatalf("%s: traffic not delivered after update: %v", g.Name, got)
		}
		assertLoopFree(t, tb, f, src)
	}
}

func farthestPair(g *topo.Topology) (topo.NodeID, topo.NodeID) {
	var bs, bd topo.NodeID
	best := -1.0
	for _, s := range g.Nodes() {
		dist := g.Distances(s, topo.ByLatency)
		for d, v := range dist {
			if v > best {
				best = v
				bs, bd = s, topo.NodeID(d)
			}
		}
	}
	return bs, bd
}
