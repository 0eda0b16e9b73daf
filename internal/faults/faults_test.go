package faults

import (
	"testing"
	"time"

	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/sim"
	"p4update/internal/topo"
)

// lineNet builds a 4-node line fabric with 1 ms, 100 Mbps links.
func lineNet(t *testing.T, seed int64) *dataplane.Network {
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
	return dataplane.NewNetwork(eng, g)
}

// installLine seeds a 0->3 path for flow f.
func installLine(net *dataplane.Network, f packet.FlowID) {
	net.InstallPath(f, []topo.NodeID{0, 1, 2, 3}, 1, 500)
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	net := lineNet(t, 1)
	f := packet.FlowID(7)
	installLine(net, f)
	inj := Attach(net, Plan{Seed: 1})
	var delivered int
	net.OnDeliver = func(topo.NodeID, *packet.Data) { delivered++ }
	for i := 0; i < 10; i++ {
		net.Switch(0).InjectData(&packet.Data{Flow: f, Seq: uint32(i), TTL: 8})
	}
	net.Eng.Run()
	if delivered != 10 {
		t.Fatalf("delivered %d of 10 with zero plan", delivered)
	}
	if got := inj.Stats; got != (Stats{Inspected: got.Inspected}) {
		t.Fatalf("zero plan faulted frames: %+v", got)
	}
	if inj.Stats.Inspected == 0 {
		t.Fatal("injector saw no frames")
	}
}

func TestDropRateOneLosesEverything(t *testing.T) {
	net := lineNet(t, 1)
	f := packet.FlowID(7)
	installLine(net, f)
	inj := Attach(net, Plan{Seed: 1, Data: Rates{Drop: 1}})
	var delivered int
	net.OnDeliver = func(topo.NodeID, *packet.Data) { delivered++ }
	net.Switch(0).InjectData(&packet.Data{Flow: f, Seq: 1, TTL: 8})
	net.Eng.Run()
	if delivered != 0 {
		t.Fatalf("delivered %d with drop rate 1", delivered)
	}
	if inj.Stats.Dropped == 0 {
		t.Fatal("no drops counted")
	}
}

func TestDuplicateRateOneDoublesDelivery(t *testing.T) {
	net := lineNet(t, 1)
	f := packet.FlowID(7)
	// Single hop so exactly one faultable transmission happens.
	net.InstallPath(f, []topo.NodeID{0, 1}, 1, 500)
	inj := Attach(net, Plan{Seed: 1, Data: Rates{Duplicate: 1}})
	var delivered int
	net.OnDeliver = func(topo.NodeID, *packet.Data) { delivered++ }
	net.Switch(0).InjectData(&packet.Data{Flow: f, Seq: 1, TTL: 8})
	net.Eng.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2 (original + duplicate)", delivered)
	}
	if inj.Stats.Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", inj.Stats.Duplicated)
	}
}

func TestCorruptRateOneIsAlwaysDetected(t *testing.T) {
	net := lineNet(t, 1)
	f := packet.FlowID(7)
	installLine(net, f)
	inj := Attach(net, Plan{Seed: 42, Data: Rates{Corrupt: 1}})
	var delivered int
	net.OnDeliver = func(topo.NodeID, *packet.Data) { delivered++ }
	for i := 0; i < 20; i++ {
		net.Switch(0).InjectData(&packet.Data{Flow: f, Seq: uint32(i), TTL: 8})
	}
	net.Eng.Run()
	if delivered != 0 {
		t.Fatalf("%d corrupted frames decoded and delivered; corruption must be detectable", delivered)
	}
	if inj.Stats.Corrupted == 0 {
		t.Fatal("no corruptions counted")
	}
	if net.Switch(1).Stats.DecodeErrors != inj.Stats.Corrupted {
		t.Fatalf("DecodeErrors = %d, want %d (every corruption detected at first hop)",
			net.Switch(1).Stats.DecodeErrors, inj.Stats.Corrupted)
	}
}

func TestReorderSwapsFrames(t *testing.T) {
	net := lineNet(t, 1)
	f := packet.FlowID(7)
	net.InstallPath(f, []topo.NodeID{0, 1}, 1, 500)
	// Reorder every frame by up to 10 ms over a 1 ms link: with many
	// frames some must arrive out of sequence.
	Attach(net, Plan{Seed: 3, Data: Rates{Reorder: 1, ReorderBy: 10 * time.Millisecond}})
	var seqs []uint32
	net.OnDeliver = func(_ topo.NodeID, d *packet.Data) { seqs = append(seqs, d.Seq) }
	for i := 0; i < 20; i++ {
		net.Switch(0).InjectData(&packet.Data{Flow: f, Seq: uint32(i), TTL: 8})
	}
	net.Eng.Run()
	if len(seqs) != 20 {
		t.Fatalf("delivered %d of 20 (reorder must not lose frames)", len(seqs))
	}
	swapped := false
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			swapped = true
			break
		}
	}
	if !swapped {
		t.Fatal("no reordering observed at rate 1")
	}
}

func TestRuleFiresExactlyCountTimes(t *testing.T) {
	net := lineNet(t, 1)
	f := packet.FlowID(7)
	net.InstallPath(f, []topo.NodeID{0, 1}, 1, 500)
	inj := Attach(net, Plan{Rules: []Rule{
		DropMatching(0, 1, packet.TypeData, 2),
	}})
	var delivered int
	net.OnDeliver = func(topo.NodeID, *packet.Data) { delivered++ }
	for i := 0; i < 5; i++ {
		net.Switch(0).InjectData(&packet.Data{Flow: f, Seq: uint32(i), TTL: 8})
	}
	net.Eng.Run()
	if delivered != 3 {
		t.Fatalf("delivered %d, want 3 (first 2 dropped)", delivered)
	}
	if inj.RuleHits(0) != 2 {
		t.Fatalf("RuleHits = %d, want 2", inj.RuleHits(0))
	}
}

func TestRuleTypeAndEndpointFilters(t *testing.T) {
	net := lineNet(t, 1)
	f := packet.FlowID(7)
	installLine(net, f)
	// A UNM-only rule must not touch data traffic; a wrong-link rule
	// must not fire at all.
	inj := Attach(net, Plan{Rules: []Rule{
		DropMatching(0, 1, packet.TypeUNM, 0),
		DropMatching(2, 1, packet.TypeData, 0),
	}})
	var delivered int
	net.OnDeliver = func(topo.NodeID, *packet.Data) { delivered++ }
	net.Switch(0).InjectData(&packet.Data{Flow: f, Seq: 1, TTL: 8})
	net.Eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
	if inj.RuleHits(0) != 0 || inj.RuleHits(1) != 0 {
		t.Fatalf("filtered rules fired: %d, %d", inj.RuleHits(0), inj.RuleHits(1))
	}
}

func TestCrashRestoreLifecycle(t *testing.T) {
	net := lineNet(t, 1)
	f := packet.FlowID(7)
	installLine(net, f)
	inj := Attach(net, Plan{Crashes: []Crash{
		{Node: 1, At: 5 * time.Millisecond, Restore: 20 * time.Millisecond},
	}})
	var delivered int
	net.OnDeliver = func(topo.NodeID, *packet.Data) { delivered++ }
	// One packet before the crash, one during, one after restore.
	sw0 := net.Switch(0)
	inject := func() { sw0.InjectData(&packet.Data{Flow: f, Seq: 1, TTL: 8}) }
	net.Eng.Schedule(0, inject)
	net.Eng.Schedule(10*time.Millisecond, inject)
	net.Eng.Schedule(30*time.Millisecond, inject)
	net.Eng.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2 (mid-outage packet lost)", delivered)
	}
	sw1 := net.Switch(1)
	if inj.Stats.Crashes != 1 || inj.Stats.Restores != 1 {
		t.Fatalf("injector crash/restore stats = %d/%d", inj.Stats.Crashes, inj.Stats.Restores)
	}
	// Committed rules survive the outage.
	st, ok := sw1.PeekState(f)
	if !ok || !st.HasRule {
		t.Fatal("committed rule lost across crash")
	}
}

func TestPartitionWindowDropsControlFrames(t *testing.T) {
	net := lineNet(t, 1)
	var ctlGot int
	net.ControllerRx = func(topo.NodeID, []byte) { ctlGot++ }
	inj := Attach(net, Plan{Partitions: []Partition{
		{Node: AnyNode, From: 5 * time.Millisecond, Until: 15 * time.Millisecond},
	}})
	send := func() {
		net.SendToController(2, &packet.UFM{Flow: 7, Version: 1, Status: packet.StatusAlarm})
	}
	net.Eng.Schedule(0, send)                   // before window
	net.Eng.Schedule(10*time.Millisecond, send) // inside window
	net.Eng.Schedule(20*time.Millisecond, send) // after window
	net.Eng.Run()
	if ctlGot != 2 {
		t.Fatalf("controller received %d, want 2", ctlGot)
	}
	if inj.Stats.PartitionDrops != 1 {
		t.Fatalf("PartitionDrops = %d, want 1", inj.Stats.PartitionDrops)
	}
	// Partitions never touch the data plane.
	f := packet.FlowID(7)
	installLine(net, f)
	var delivered int
	net.OnDeliver = func(topo.NodeID, *packet.Data) { delivered++ }
	net.Switch(0).InjectData(&packet.Data{Flow: f, Seq: 1, TTL: 8})
	net.Eng.Run()
	if delivered != 1 {
		t.Fatal("partition affected data-plane frame")
	}
}

// TestStreamIndependence checks the splittable-PRNG property the grid
// determinism relies on: adding a second fault kind must not change the
// first kind's decisions.
func TestStreamIndependence(t *testing.T) {
	decisions := func(plan Plan) []bool {
		net := lineNet(t, 1)
		inj := Attach(net, plan)
		var out []bool
		raw := packet.Marshal(&packet.Data{Flow: 7, Seq: 1, TTL: 8})
		for i := 0; i < 200; i++ {
			buf := append([]byte(nil), raw...)
			_, act := inj.Inspect(dataplane.FaultData, 0, 1, buf)
			out = append(out, act.Drop)
		}
		return out
	}
	a := decisions(Plan{Seed: 9, Data: Rates{Drop: 0.3}})
	b := decisions(Plan{Seed: 9, Data: Rates{Drop: 0.3, Duplicate: 0.5, Corrupt: 0.2, Reorder: 0.4, ReorderBy: time.Millisecond}})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop decision %d changed when other fault kinds were enabled", i)
		}
	}
}
