package central

import (
	"testing"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/dataplane"
	"p4update/internal/sim"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

type bed struct {
	eng *sim.Engine
	net *dataplane.Network
	ctl *controlplane.Controller
	co  *Coordinator
}

func newBed(g *topo.Topology, seed int64, congestion bool) *bed {
	eng := sim.New(seed)
	eng.MaxEvents = 2_000_000
	net := dataplane.NewNetwork(eng, g)
	net.SetHandler(&controlplane.Agent{Apply: trace.CodeApplyCentral})
	controlplane.UseCentroidControl(net)
	ctl := controlplane.NewController(net)
	co := NewCoordinator(ctl, 500*time.Microsecond)
	co.Congestion = congestion
	return &bed{eng: eng, net: net, ctl: ctl, co: co}
}

func TestCentralUpdateCompletes(t *testing.T) {
	g := topo.Synthetic()
	b := newBed(g, 1, false)
	oldP, newP := topo.SyntheticPaths()
	f, err := b.ctl.RegisterFlow(0, 7, oldP, 1000)
	if err != nil {
		t.Fatal(err)
	}
	u, err := b.co.TriggerUpdate(f, newP)
	if err != nil {
		t.Fatal(err)
	}
	b.eng.Run()
	if !u.Done() {
		t.Fatal("central update did not complete")
	}
	got, delivered := b.net.TracePath(f, 0, 20)
	if !delivered || len(got) != len(newP) {
		t.Fatalf("final path %v, want %v", got, newP)
	}
	for i := range newP {
		if got[i] != newP[i] {
			t.Fatalf("final path %v, want %v", got, newP)
		}
	}
}

func TestCentralStaysConsistentPerRound(t *testing.T) {
	g := topo.Synthetic()
	b := newBed(g, 2, false)
	oldP, newP := topo.SyntheticPaths()
	f, _ := b.ctl.RegisterFlow(0, 7, oldP, 1000)
	if _, err := b.co.TriggerUpdate(f, newP); err != nil {
		t.Fatal(err)
	}
	for b.eng.Step() {
		visited, delivered := b.net.TracePath(f, 0, 12)
		seen := map[topo.NodeID]bool{}
		for _, n := range visited {
			if seen[n] {
				t.Fatalf("t=%v: central rounds formed a loop: %v", b.eng.Now(), visited)
			}
			seen[n] = true
		}
		if !delivered {
			t.Fatalf("t=%v: blackhole under central rounds: %v", b.eng.Now(), visited)
		}
	}
}

func TestCentralUsesMultipleRounds(t *testing.T) {
	// The Fig-1 update cannot deploy in one shot: v2's move depends on
	// v4's (backward segment), so at least two rounds are required.
	g := topo.Synthetic()
	b := newBed(g, 3, false)
	oldP, newP := topo.SyntheticPaths()
	f, _ := b.ctl.RegisterFlow(0, 7, oldP, 1000)
	if _, err := b.co.TriggerUpdate(f, newP); err != nil {
		t.Fatal(err)
	}
	b.eng.Run()
	if b.co.Rounds < 2 {
		t.Errorf("rounds = %d, want >= 2 (v2 depends on v4)", b.co.Rounds)
	}
}

func TestCentralSlowerThanDataPlaneCoordination(t *testing.T) {
	// Central pays a control round trip per dependency level; on the
	// segmented Fig-1 update it must be slower than both in-network
	// systems would be. Compare against the pure propagation floor.
	g := topo.Synthetic()
	b := newBed(g, 4, false)
	oldP, newP := topo.SyntheticPaths()
	f, _ := b.ctl.RegisterFlow(0, 7, oldP, 1000)
	u, _ := b.co.TriggerUpdate(f, newP)
	b.eng.Run()
	if !u.Done() {
		t.Fatal("no completion")
	}
	// Two rounds with ACKs: >= 2 * 2 * max control latency is a loose
	// floor; just assert it is not instantaneous.
	if u.Completed-u.Sent < 80*time.Millisecond {
		t.Errorf("central completed implausibly fast: %v", u.Completed-u.Sent)
	}
}

func TestCentralCongestionFilterDefersMoves(t *testing.T) {
	g := topo.New("y")
	s1 := g.AddNode("S1", 0, 0)
	s2 := g.AddNode("S2", 0, 0)
	x := g.AddNode("X", 0, 0)
	a := g.AddNode("A", 0, 0)
	bb := g.AddNode("B", 0, 0)
	c := g.AddNode("C", 0, 0)
	tt := g.AddNode("T", 0, 0)
	lat := time.Millisecond
	g.AddLink(s1, x, lat, 1000)
	g.AddLink(s2, x, lat, 1000)
	g.AddLink(x, a, lat, 10)
	g.AddLink(x, bb, lat, 10)
	g.AddLink(x, c, lat, 10)
	g.AddLink(a, tt, lat, 1000)
	g.AddLink(bb, tt, lat, 1000)
	g.AddLink(c, tt, lat, 1000)

	b := newBed(g, 5, true)
	f1, _ := b.ctl.RegisterFlow(s1, tt, []topo.NodeID{s1, x, a, tt}, 6000)
	f2, _ := b.ctl.RegisterFlow(s2, tt, []topo.NodeID{s2, x, bb, tt}, 6000)
	u1, err := b.co.TriggerUpdate(f1, []topo.NodeID{s1, x, bb, tt})
	if err != nil {
		t.Fatal(err)
	}
	var u2 *controlplane.UpdateStatus
	b.eng.Schedule(30*time.Millisecond, func() {
		var err error
		u2, err = b.co.TriggerUpdate(f2, []topo.NodeID{s2, x, c, tt})
		if err != nil {
			t.Error(err)
		}
	})
	// f1 is stuck behind f2; the coordinator retries its round when f2's
	// ACK lands. Re-push on progress comes from f2's run completing —
	// drive the clock and then nudge the blocked run.
	for b.eng.Step() {
		sw := b.net.Switch(x)
		for p := topo.PortID(0); int(p) < g.Degree(x); p++ {
			if sw.ReservedK(p) > sw.CapacityK(p) {
				t.Fatalf("over capacity on X port %d", p)
			}
		}
	}
	if u2 == nil || !u2.Done() {
		t.Fatal("f2 did not complete")
	}
	if !u1.Done() {
		t.Fatal("f1 never completed after capacity freed")
	}
	if u1.Completed <= u2.Completed {
		t.Errorf("f1 (%v) should complete after f2 (%v)", u1.Completed, u2.Completed)
	}
}
