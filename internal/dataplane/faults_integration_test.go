// Drop, corrupt and duplicate on the data path, expressed as plan rules.
// This file is an external test package because the in-package tests
// cannot import internal/faults (import cycle).
package dataplane_test

import (
	"testing"
	"time"

	"p4update/internal/dataplane"
	"p4update/internal/faults"
	"p4update/internal/packet"
	"p4update/internal/sim"
	"p4update/internal/topo"
)

// lineNet builds a 4-node line fabric with 1 ms, 100 Mbps links.
func lineNet(t *testing.T, seed int64) (*dataplane.Network, *topo.Topology) {
	t.Helper()
	g := topo.New("line")
	for i := 0; i < 4; i++ {
		g.AddNode("", 0, 0)
	}
	for i := 0; i+1 < 4; i++ {
		g.AddLink(topo.NodeID(i), topo.NodeID(i+1), time.Millisecond, 100)
	}
	eng := sim.New(seed)
	eng.MaxEvents = 100_000
	return dataplane.NewNetwork(eng, g), g
}

func TestPlanDropRuleLosesDataFrame(t *testing.T) {
	net, _ := lineNet(t, 1)
	f := packet.FlowID(3)
	net.InstallPath(f, []topo.NodeID{0, 1, 2, 3}, 1, 100)
	inj := faults.Attach(net, faults.Plan{Seed: 1, Rules: []faults.Rule{
		faults.DropMatching(1, 2, packet.TypeData, 1),
	}})
	net.Switch(0).InjectData(&packet.Data{Flow: f, Seq: 1, TTL: 8})
	net.Eng.Run()
	if inj.RuleHits(0) != 1 {
		t.Fatal("drop rule not exercised")
	}
	if net.Switch(3).Stats.DataDelivered != 0 {
		t.Error("dropped packet delivered")
	}
	// The rule budget is spent: the next packet goes through.
	net.Switch(0).InjectData(&packet.Data{Flow: f, Seq: 2, TTL: 8})
	net.Eng.Run()
	if net.Switch(3).Stats.DataDelivered != 1 {
		t.Error("second packet lost after the rule budget was spent")
	}
}

func TestPlanCorruptRuleRejectedAtReceiver(t *testing.T) {
	net, _ := lineNet(t, 1)
	f := packet.FlowID(3)
	net.InstallPath(f, []topo.NodeID{0, 1, 2, 3}, 1, 100)
	inj := faults.Attach(net, faults.Plan{Seed: 1, Rules: []faults.Rule{
		faults.CorruptMatching(0, 1, packet.TypeData, 1),
	}})
	net.Switch(0).InjectData(&packet.Data{Flow: f, Seq: 1, TTL: 8})
	net.Eng.Run()
	if inj.RuleHits(0) != 1 {
		t.Fatal("corrupt rule not exercised")
	}
	if net.Switch(1).Stats.DecodeErrors != 1 {
		t.Error("corrupted frame not rejected at the receiver")
	}
	if net.Switch(3).Stats.DataDelivered != 0 {
		t.Error("corrupted packet delivered")
	}
}

func TestPlanDuplicateRuleDeliversTwice(t *testing.T) {
	net, _ := lineNet(t, 1)
	f := packet.FlowID(3)
	net.InstallPath(f, []topo.NodeID{0, 1, 2, 3}, 1, 100)
	faults.Attach(net, faults.Plan{Seed: 1, Rules: []faults.Rule{
		faults.DuplicateMatching(2, 3, packet.TypeData, 1),
	}})
	net.Switch(0).InjectData(&packet.Data{Flow: f, Seq: 1, TTL: 8})
	net.Eng.Run()
	if got := net.Switch(3).Stats.DataDelivered; got != 2 {
		t.Fatalf("DataDelivered = %d, want 2 (original + duplicate)", got)
	}
}

func TestCrashDropsInFlightDelivery(t *testing.T) {
	// A frame already on the wire to a switch that crashes before it
	// lands is dropped at delivery time, not received by the corpse.
	net, _ := lineNet(t, 1)
	f := packet.FlowID(3)
	net.InstallPath(f, []topo.NodeID{0, 1, 2, 3}, 1, 100)
	net.Switch(0).InjectData(&packet.Data{Flow: f, Seq: 1, TTL: 8})
	net.Eng.Schedule(500*time.Microsecond, func() { net.Switch(1).Crash() })
	net.Eng.Run()
	if net.Switch(3).Stats.DataDelivered != 0 {
		t.Error("packet delivered through a crashed switch")
	}
}
