package p4update_test

import (
	"testing"
	"time"

	"p4update"
)

func TestQuickstartFlow(t *testing.T) {
	g := p4update.Synthetic()
	net := p4update.NewNetwork(g, p4update.WithSeed(1))
	oldP, newP := p4update.SyntheticPaths()
	f, err := net.AddFlow(0, 7, oldP, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	u, err := net.UpdateFlow(f, newP)
	if err != nil {
		t.Fatal(err)
	}
	net.Run()
	if !u.Done() {
		t.Fatal("update did not complete")
	}
	got, delivered := net.Forwarding(f, 0)
	if !delivered || len(got) != len(newP) {
		t.Fatalf("forwarding %v, want %v", got, newP)
	}
	if stats := net.Stats(); stats.RulesApplied == 0 || stats.UNMReceived == 0 {
		t.Errorf("implausible stats: %+v", stats)
	}
}

func TestAllStrategiesConverge(t *testing.T) {
	for _, s := range p4update.Systems() {
		g := p4update.Synthetic()
		net := p4update.NewNetwork(g, p4update.WithSeed(3), p4update.WithSystem(s))
		oldP, newP := p4update.SyntheticPaths()
		f, err := net.AddFlow(0, 7, oldP, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.UpdateFlow(f, newP); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		net.Run()
		u, ok := net.Status(f, 2)
		if !ok || !u.Done() {
			t.Fatalf("%v: update did not complete", s)
		}
		got, delivered := net.Forwarding(f, 0)
		if !delivered || len(got) != len(newP) {
			t.Fatalf("%v: forwarding %v, want %v", s, got, newP)
		}
	}
}

func TestCongestionOptionEnforced(t *testing.T) {
	g := p4update.NewTopology("tiny")
	s1 := g.AddNode("s1", 0, 0)
	s2 := g.AddNode("s2", 0, 0)
	x := g.AddNode("x", 0, 0)
	a := g.AddNode("a", 0, 0)
	b := g.AddNode("b", 0, 0)
	d := g.AddNode("d", 0, 0)
	lat := time.Millisecond
	g.AddLink(s1, x, lat, 100)
	g.AddLink(s2, x, lat, 100)
	g.AddLink(x, a, lat, 10)
	g.AddLink(x, b, lat, 10)
	g.AddLink(a, d, lat, 100)
	g.AddLink(b, d, lat, 100)

	net := p4update.NewNetwork(g, p4update.WithSeed(4), p4update.WithCongestionFreedom())
	f1, err := net.AddFlow(s1, d, []p4update.NodeID{s1, x, a, d}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddFlow(s2, d, []p4update.NodeID{s2, x, b, d}, 6); err != nil {
		t.Fatal(err)
	}
	// Move f1 onto x-b: must wait (6+6 > 10) — f2 never moves, so the
	// update stays incomplete but capacity is never violated.
	u, err := net.UpdateFlow(f1, []p4update.NodeID{s1, x, b, d})
	if err != nil {
		t.Fatal(err)
	}
	net.Run()
	if u.Done() {
		t.Fatal("move onto a full link completed")
	}
	sw := net.Switch(x)
	if got := sw.ReservedK(g.PortTo(x, b)); got > 10000 {
		t.Errorf("x-b oversubscribed: %d kbps", got)
	}
}

func TestSendPacketAndDeliveryObservation(t *testing.T) {
	g := p4update.Synthetic()
	net := p4update.NewNetwork(g, p4update.WithSeed(5))
	oldP, _ := p4update.SyntheticPaths()
	f, _ := net.AddFlow(0, 7, oldP, 1.0)
	delivered := 0
	net.Fabric().OnDeliver = func(node p4update.NodeID, d *p4update.DataPacket) {
		if node == 7 && d.Seq == 1 {
			delivered++
		}
	}
	if err := net.SendPacket(f, 1); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if net.Stats().DataDelivered != 1 || delivered != 1 {
		t.Errorf("delivered = %d/%d, want 1/1", net.Stats().DataDelivered, delivered)
	}
	if err := net.SendPacket(999, 1); err == nil {
		t.Error("unknown flow accepted")
	}
}

func TestBadFlowRate(t *testing.T) {
	net := p4update.NewNetwork(p4update.Synthetic())
	if _, err := net.AddFlow(0, 7, []p4update.NodeID{0, 4, 2, 7}, 0); err == nil {
		t.Error("zero rate accepted")
	}
}
