package ezsegway

import (
	"testing"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/sim"
	"p4update/internal/topo"
)

type bed struct {
	eng *sim.Engine
	net *dataplane.Network
	ctl *controlplane.Controller
	ez  *Controller
}

func newBed(g *topo.Topology, seed int64, congestion bool) *bed {
	eng := sim.New(seed)
	eng.MaxEvents = 2_000_000
	net := dataplane.NewNetwork(eng, g)
	net.SetHandler(&Handler{Congestion: congestion})
	controlplane.UseCentroidControl(net)
	ctl := controlplane.NewController(net)
	return &bed{eng: eng, net: net, ctl: ctl, ez: NewController(ctl)}
}

func TestPreparePlanSegments(t *testing.T) {
	g := topo.Synthetic()
	oldP, newP := topo.SyntheticPaths()
	plan, err := PreparePlan(g, 1, oldP, newP, 2, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Changed nodes: v0,v1 (segment 1), v2,v3 (segment 2), v4,v5,v6
	// (segment 3) — 7 rule changes, v7 unchanged.
	if len(plan.Changed) != 7 {
		t.Errorf("changed = %v, want 7 nodes", plan.Changed)
	}
	// The backward segment {v2,v3,v4} must be gated on v4's own apply.
	var v4 *packet.EZI
	for i, tgt := range plan.Targets {
		if tgt == 4 {
			v4 = plan.Msgs[i].(*packet.EZI)
		}
	}
	if v4 == nil {
		t.Fatal("no instruction for v4")
	}
	if !v4.Flags.Has(packet.EZInitAfterApply) {
		t.Errorf("v4 flags = %b, want EZInitAfterApply (in_loop upstream segment)", v4.Flags)
	}
}

func TestEZUpdateCompletes(t *testing.T) {
	g := topo.Synthetic()
	b := newBed(g, 1, false)
	oldP, newP := topo.SyntheticPaths()
	f, err := b.ctl.RegisterFlow(0, 7, oldP, 1000)
	if err != nil {
		t.Fatal(err)
	}
	u, err := b.ez.TriggerUpdate(f, newP)
	if err != nil {
		t.Fatal(err)
	}
	b.eng.Run()
	if !u.Done() {
		t.Fatal("ez-Segway update did not complete")
	}
	got, delivered := b.net.TracePath(f, 0, 20)
	if !delivered || len(got) != len(newP) {
		t.Fatalf("final path %v, want %v", got, newP)
	}
}

func TestEZSerializesUpdatesPerFlow(t *testing.T) {
	// ez-Segway defers a new update until the ongoing one completed
	// (§4.2: no fast-forward).
	g := topo.Synthetic()
	b := newBed(g, 2, false)
	oldP, newP := topo.SyntheticPaths()
	f, _ := b.ctl.RegisterFlow(0, 7, oldP, 1000)
	u1, err := b.ez.TriggerUpdate(f, newP)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := b.ez.TriggerUpdate(f, []topo.NodeID{0, 1, 2, 7})
	if err != nil {
		t.Fatal(err)
	}
	if u2 == nil {
		t.Fatal("deferred update returned a nil status")
	}
	if !u2.Queued {
		t.Fatal("second update launched while the first was in flight (not Queued)")
	}
	if u2.Version != 0 || u2.Sent != 0 {
		t.Errorf("queued status prematurely filled: version=%d sent=%v", u2.Version, u2.Sent)
	}
	b.eng.Run()
	if !u1.Done() {
		t.Fatal("first update did not complete")
	}
	if u2.Queued {
		t.Error("deferred update still marked Queued after launch")
	}
	if !u2.Done() {
		t.Fatal("deferred second update did not run to completion")
	}
	u2st, ok := b.ctl.Status(f, 3)
	if !ok || u2st != u2 {
		t.Fatal("tracked version-3 status is not the record handed out at trigger time")
	}
	if u2.Sent < u1.Completed {
		t.Errorf("deferred update sent at %v, before first completed at %v", u2.Sent, u1.Completed)
	}
	got, _ := b.net.TracePath(f, 0, 20)
	want := []topo.NodeID{0, 1, 2, 7}
	if len(got) != len(want) {
		t.Fatalf("final path %v, want %v", got, want)
	}
}

// TestEZDeferredLaunchSurvivesCompletionObserver: the per-flow queue
// hears completions through its own launches, not Controller.OnComplete,
// so an observer installed before or after the ez-Segway controller
// neither hides the first completion from the queue nor misses one.
func TestEZDeferredLaunchSurvivesCompletionObserver(t *testing.T) {
	for _, observerFirst := range []bool{true, false} {
		g := topo.Synthetic()
		eng := sim.New(2)
		eng.MaxEvents = 2_000_000
		net := dataplane.NewNetwork(eng, g)
		net.SetHandler(&Handler{})
		controlplane.UseCentroidControl(net)
		ctl := controlplane.NewController(net)
		var heard []uint32
		observe := func(u *controlplane.UpdateStatus) { heard = append(heard, u.Version) }
		if observerFirst {
			ctl.OnComplete = observe
		}
		ez := NewController(ctl)
		if !observerFirst {
			ctl.OnComplete = observe
		}
		oldP, newP := topo.SyntheticPaths()
		f, _ := ctl.RegisterFlow(0, 7, oldP, 1000)
		if _, err := ez.TriggerUpdate(f, newP); err != nil {
			t.Fatal(err)
		}
		u2, err := ez.TriggerUpdate(f, []topo.NodeID{0, 1, 2, 7})
		if err != nil || !u2.Queued {
			t.Fatalf("observer first %v: second update not deferred (err %v)", observerFirst, err)
		}
		eng.Run()
		if !u2.Done() || len(heard) != 2 || heard[0] != 2 || heard[1] != 3 {
			t.Errorf("observer first %v: deferred update done=%v, observer heard versions %v, want [2 3]",
				observerFirst, u2.Done(), heard)
		}
	}
}

func TestEZLoopsOnMissingIntermediateUpdate(t *testing.T) {
	// The Fig-2 scenario: configuration (c) deploys while (b) is lost in
	// transit; without verification, ez-Segway creates the v1,v2,v3
	// forwarding loop until (b) finally arrives.
	g, cfgA, cfgB, cfgC := topo.Fig2Scenario()
	b := newBed(g, 3, false)
	_ = cfgA
	f, err := b.ctl.RegisterFlow(0, 4, []topo.NodeID{0, 1, 2, 3, 4}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := b.ctl.Flow(f)

	// (b): v0,v1,v2,v4 — reroutes v2 to v4 directly.
	pathB := []topo.NodeID{0, 1, 2, 4}
	planB, err := PreparePlan(g, f, rec.Path, pathB, 2, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	// (c): v0,v3,v1,v2,v4 computed against (b) as believed-current state.
	pathC := []topo.NodeID{0, 3, 1, 2, 4}
	planC, err := PreparePlan(g, f, pathB, pathC, 3, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	// (c)'s instruction set must not touch v2 (its rule is unchanged
	// between (b) and (c)) — that is why the loop can form.
	for _, tgt := range planC.Targets {
		if tgt == 2 {
			t.Fatal("(c) instructs v2; scenario assumption broken")
		}
	}
	// Deploy (c) now; (b) arrives 500 ms later.
	b.ctl.Launch(&controlplane.UpdateStatus{Flow: f, Version: 3, OldPath: pathB, NewPath: pathC},
		controlplane.Dispatch{Pending: planC.Changed, Send: planC})
	b.eng.Schedule(500*time.Millisecond, func() {
		for i := range planB.Msgs {
			b.net.SendToSwitch(planB.Targets[i], planB.Msgs[i], 0)
		}
	})

	loopSeen := false
	for b.eng.Step() {
		visited, _ := b.net.TracePath(f, 0, 12)
		seen := map[topo.NodeID]bool{}
		for _, n := range visited {
			if seen[n] {
				loopSeen = true
			}
			seen[n] = true
		}
	}
	if !loopSeen {
		t.Error("ez-Segway never formed the Fig-2 loop (expected without verification)")
	}
	// After (b) arrived the state converges to (c)'s intent.
	got, delivered := b.net.TracePath(f, 0, 12)
	if !delivered {
		t.Fatalf("final state not delivering: %v", got)
	}
	for i, n := range got {
		if n != pathC[i] {
			t.Fatalf("final path %v, want %v", got, pathC)
		}
	}
	_ = cfgB
	_ = cfgC
}

func TestEZCongestionWaitsForCapacity(t *testing.T) {
	g := topo.New("y")
	s1 := g.AddNode("S1", 0, 0)
	s2 := g.AddNode("S2", 0, 0)
	x := g.AddNode("X", 0, 0)
	a := g.AddNode("A", 0, 0)
	bn := g.AddNode("B", 0, 0)
	c := g.AddNode("C", 0, 0)
	tt := g.AddNode("T", 0, 0)
	lat := time.Millisecond
	g.AddLink(s1, x, lat, 1000)
	g.AddLink(s2, x, lat, 1000)
	g.AddLink(x, a, lat, 10)
	g.AddLink(x, bn, lat, 10)
	g.AddLink(x, c, lat, 10)
	g.AddLink(a, tt, lat, 1000)
	g.AddLink(bn, tt, lat, 1000)
	g.AddLink(c, tt, lat, 1000)

	b := newBed(g, 4, true)
	f1, _ := b.ctl.RegisterFlow(s1, tt, []topo.NodeID{s1, x, a, tt}, 6000)
	f2, _ := b.ctl.RegisterFlow(s2, tt, []topo.NodeID{s2, x, bn, tt}, 6000)
	u1, err := b.ez.TriggerUpdate(f1, []topo.NodeID{s1, x, bn, tt})
	if err != nil {
		t.Fatal(err)
	}
	b.eng.Schedule(50*time.Millisecond, func() {
		if _, err := b.ez.TriggerUpdate(f2, []topo.NodeID{s2, x, c, tt}); err != nil {
			t.Error(err)
		}
	})
	for b.eng.Step() {
		sw := b.net.Switch(x)
		for p := topo.PortID(0); int(p) < g.Degree(x); p++ {
			if sw.ReservedK(p) > sw.CapacityK(p) {
				t.Fatalf("over capacity on X port %d", p)
			}
		}
	}
	if !u1.Done() {
		t.Fatal("blocked ez move never completed")
	}
	u2, ok := b.ctl.Status(f2, 2)
	if !ok || !u2.Done() {
		t.Fatal("f2 move did not complete")
	}
	if u1.Completed <= u2.Completed {
		t.Errorf("f1 (%v) should finish after f2 (%v) freed X-B", u1.Completed, u2.Completed)
	}
}
