package core_test

import (
	"math/rand"
	"testing"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/core"
	"p4update/internal/dataplane"
	"p4update/internal/faults"
	"p4update/internal/packet"
	"p4update/internal/sim"
	"p4update/internal/topo"
)

// stepAndCheck drives the simulation one event at a time, asserting after
// every event that the flow's forwarding state is blackhole- and loop-free
// from the ingress: the trace must reach the egress without repeating a
// node (the consistency invariant of §5).
func stepAndCheck(t *testing.T, tb *testbed, f packet.FlowID, ingress topo.NodeID) {
	t.Helper()
	limit := tb.topo.NumNodes() + 2
	for tb.eng.Step() {
		visited, delivered := tb.net.TracePath(f, ingress, limit)
		seen := map[topo.NodeID]bool{}
		for _, n := range visited {
			if seen[n] {
				t.Fatalf("t=%v: forwarding loop: %v", tb.eng.Now(), visited)
			}
			seen[n] = true
		}
		if !delivered {
			t.Fatalf("t=%v: blackhole: trace %v did not reach the egress", tb.eng.Now(), visited)
		}
		if tb.eng.Steps() > 2_000_000 {
			t.Fatal("simulation runaway")
		}
	}
}

// attachRules puts targeted, randomness-free fault rules on the fabric.
func attachRules(tb *testbed, rules ...faults.Rule) *faults.Injector {
	return faults.Attach(tb.net, faults.Plan{Rules: rules})
}

// duplicateAllData delivers every data-plane frame twice.
func duplicateAllData() faults.Rule {
	r := faults.DuplicateMatching(faults.AnyNode, faults.AnyNode, packet.TypeInvalid, 0)
	r.Classes = 1 << dataplane.FaultData
	return r
}

func TestInvariantHeldThroughoutSL(t *testing.T) {
	g := topo.Synthetic()
	tb := newTestbed(g, 5, &core.Protocol{})
	oldP, newP := topo.SyntheticPaths()
	f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
	if _, err := tb.ctl.TriggerUpdate(f, newP, forceType(packet.UpdateSingle)); err != nil {
		t.Fatal(err)
	}
	stepAndCheck(t, tb, f, 0)
}

func TestInvariantHeldThroughoutDL(t *testing.T) {
	g := topo.Synthetic()
	tb := newTestbed(g, 5, &core.Protocol{})
	oldP, newP := topo.SyntheticPaths()
	f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
	if _, err := tb.ctl.TriggerUpdate(f, newP, forceType(packet.UpdateDual)); err != nil {
		t.Fatal(err)
	}
	stepAndCheck(t, tb, f, 0)
}

func TestCorruptedDistanceUIMRejected(t *testing.T) {
	// §7.1 scenario (ii): the controller miscomputes distances so a
	// parent claims the same distance as its child. The switches must
	// alarm and never implement a loop.
	g := topo.Synthetic()
	tb := newTestbed(g, 5, &core.Protocol{})
	oldP, newP := topo.SyntheticPaths()
	f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)

	rec, _ := tb.ctl.Flow(f)
	plan, err := controlplane.PreparePlan(tb.topo, f, rec.Path, newP, 2, rec.SizeK, forceType(packet.UpdateSingle))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: give v2 (index 2 on the new path) the same distance as
	// its parent v3 (Fig. 6b).
	plan.UIMs[2].NewDistance = plan.UIMs[3].NewDistance
	var alarms int
	tb.ctl.OnAlarm = func(u packet.UFM) {
		if u.Reason == packet.ReasonDistance {
			alarms++
		}
	}
	u := launch(tb.ctl, plan)
	stepAndCheck(t, tb, f, 0)

	if alarms == 0 {
		t.Error("no distance alarm raised for the corrupted UIM")
	}
	if u.Done() {
		t.Error("corrupted update reported complete")
	}
}

func TestOutOfOrderVersionsFastForward(t *testing.T) {
	// §4.1/§4.2: version 3 arrives and deploys before the delayed
	// version 2; the network must converge to version 3 and stay
	// consistent; late version-2 messages are rejected as outdated.
	g := topo.Synthetic()
	tb := newTestbed(g, 5, &core.Protocol{})
	oldP, newP := topo.SyntheticPaths()
	f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
	rec, _ := tb.ctl.Flow(f)

	// Version 2: the segmented Fig-1 update (will be delayed).
	plan2, err := controlplane.PreparePlan(tb.topo, f, oldP, newP, 2, rec.SizeK, forceType(packet.UpdateDual))
	if err != nil {
		t.Fatal(err)
	}
	// Version 3: a short detour, computed against the *intended* v2
	// state (the controller believes v2 deployed).
	path3 := []topo.NodeID{0, 1, 2, 7}
	plan3, err := controlplane.PreparePlan(tb.topo, f, newP, path3, 3, rec.SizeK, forceType(packet.UpdateSingle))
	if err != nil {
		t.Fatal(err)
	}
	// Deploy v3 now; v2's messages trickle in 300 ms later.
	launch(tb.ctl, plan3)
	tb.eng.Schedule(300*time.Millisecond, func() {
		for i := range plan2.UIMs {
			tb.net.SendToSwitch(plan2.Targets[i], &plan2.UIMs[i], 0)
		}
	})
	var outdatedAlarms int
	tb.ctl.OnAlarm = func(u packet.UFM) {
		if u.Reason == packet.ReasonOutdated {
			outdatedAlarms++
		}
	}
	stepAndCheck(t, tb, f, 0)

	got, delivered := tb.net.TracePath(f, 0, 20)
	if !delivered || len(got) != len(path3) {
		t.Fatalf("final path %v, want %v", got, path3)
	}
	for i := range path3 {
		if got[i] != path3[i] {
			t.Fatalf("final path %v, want %v (highest version)", got, path3)
		}
	}
	if outdatedAlarms == 0 {
		t.Error("stale version-2 messages raised no outdated alarms")
	}
}

func TestDroppedUIMStallsConsistently(t *testing.T) {
	// A lost indication stalls the update at that node, but the mixed
	// state must stay consistent (traffic delivered, no loops).
	g := topo.Synthetic()
	tb := newTestbed(g, 5, &core.Protocol{})
	oldP, newP := topo.SyntheticPaths()
	f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
	lostUIM := faults.DropMatching(dataplane.NodeController, 3, packet.TypeUIM, 0)
	lostUIM.Classes = 1 << dataplane.FaultControlDown // v3 never receives its UIM
	attachRules(tb, lostUIM)
	u, err := tb.ctl.TriggerUpdate(f, newP, forceType(packet.UpdateSingle))
	if err != nil {
		t.Fatal(err)
	}
	stepAndCheck(t, tb, f, 0)
	if u.Done() {
		t.Error("update completed despite a lost UIM")
	}
	// v3 must not have applied; v4..v7 (downstream of the gap) may have.
	if st, ok := tb.net.Switch(3).PeekState(f); ok && st.HasRule {
		t.Error("v3 applied a rule without its UIM")
	}
}

func TestDroppedUNMStallsConsistently(t *testing.T) {
	g := topo.Synthetic()
	tb := newTestbed(g, 5, &core.Protocol{})
	oldP, newP := topo.SyntheticPaths()
	f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
	// Drop the first UNM crossing 5->4.
	inj := attachRules(tb, faults.DropMatching(5, 4, packet.TypeUNM, 1))
	u, err := tb.ctl.TriggerUpdate(f, newP, forceType(packet.UpdateSingle))
	if err != nil {
		t.Fatal(err)
	}
	stepAndCheck(t, tb, f, 0)
	if inj.RuleHits(0) != 1 {
		t.Fatal("test did not exercise the drop")
	}
	if u.Done() {
		t.Error("SL update completed despite a lost UNM (no retransmit in base protocol)")
	}
}

func TestRandomizedDelaysAndReorderingProperty(t *testing.T) {
	// Property: under arbitrary control-plane reordering, per-node
	// install delays and random data-plane jitter, the invariant holds
	// after every event and the update completes.
	for trial := 0; trial < 25; trial++ {
		seed := int64(1000 + trial)
		g := topo.Synthetic()
		tb := newTestbed(g, seed, &core.Protocol{})
		rng := rand.New(rand.NewSource(seed))
		control := faults.Rates{Jitter: 400 * time.Millisecond}
		faults.Attach(tb.net, faults.Plan{
			Seed: seed,
			Data: faults.Rates{Jitter: 10 * time.Millisecond},
			Up:   control, Down: control,
		})
		tb.net.SetInstallDelay(func() time.Duration {
			return time.Duration(rng.ExpFloat64() * float64(50*time.Millisecond))
		})
		oldP, newP := topo.SyntheticPaths()
		f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
		ut := packet.UpdateSingle
		if trial%2 == 0 {
			ut = packet.UpdateDual
		}
		u, err := tb.ctl.TriggerUpdate(f, newP, &ut)
		if err != nil {
			t.Fatal(err)
		}
		stepAndCheck(t, tb, f, 0)
		if !u.Done() {
			t.Fatalf("trial %d (%v): update did not complete", trial, ut)
		}
	}
}

func TestSequentialUpdatesConvergeToHighestVersion(t *testing.T) {
	// Several updates in rapid succession with overlapping deliveries:
	// the network must converge to the last (highest-version) path and
	// stay consistent throughout (§4.2 fast-forward).
	g := topo.Synthetic()
	tb := newTestbed(g, 99, &core.Protocol{})
	control := faults.Rates{Jitter: 200 * time.Millisecond}
	faults.Attach(tb.net, faults.Plan{Seed: 99, Up: control, Down: control})
	oldP, newP := topo.SyntheticPaths()
	f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
	rec, _ := tb.ctl.Flow(f)

	paths := [][]topo.NodeID{
		newP,                     // v2
		{0, 4, 5, 6, 7},          // v3
		{0, 1, 2, 7},             // v4
		{0, 4, 2, 7},             // v5 (back to the original)
		{0, 1, 2, 3, 4, 5, 6, 7}, // v6
	}
	prev := oldP
	for i, p := range paths {
		plan, err := controlplane.PreparePlan(tb.topo, f, prev, p, uint32(i+2), rec.SizeK, forceType(packet.UpdateSingle))
		if err != nil {
			t.Fatal(err)
		}
		launch(tb.ctl, plan)
		prev = p
	}
	stepAndCheck(t, tb, f, 0)

	want := paths[len(paths)-1]
	got, delivered := tb.net.TracePath(f, 0, 20)
	if !delivered || len(got) != len(want) {
		t.Fatalf("final path %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("final path %v, want %v", got, want)
		}
	}
	// The highest version must have completed.
	u, ok := tb.ctl.Status(f, uint32(len(paths)+1))
	if !ok || !u.Done() {
		t.Error("highest-version update did not complete")
	}
}

// byteFlipper inverts one arbitrary byte of about every fourth data-plane
// frame, in place. Unlike faults.Rates.Corrupt the damage is not
// guaranteed detectable: the frame may decode into a wrong UNM, which is
// Alg. 1/2's to reject rather than the decoder's.
type byteFlipper struct{ rng *rand.Rand }

func (b byteFlipper) Inspect(class dataplane.FaultClass, _, _ topo.NodeID, raw []byte) ([]byte, dataplane.FaultAction) {
	if class == dataplane.FaultData && b.rng.Intn(4) == 0 && len(raw) > 0 {
		raw[b.rng.Intn(len(raw))] ^= 0xff
	}
	return raw, dataplane.FaultAction{}
}

func TestMangledUNMDiscarded(t *testing.T) {
	// Bit-flipped frames must not crash the pipeline or corrupt state:
	// undecodable frames count as decode errors; decodable-but-wrong
	// labels are rejected by verification.
	g := topo.Synthetic()
	tb := newTestbed(g, 5, &core.Protocol{})
	tb.net.Faults = byteFlipper{rand.New(rand.NewSource(5))}
	oldP, newP := topo.SyntheticPaths()
	f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
	if _, err := tb.ctl.TriggerUpdate(f, newP, forceType(packet.UpdateSingle)); err != nil {
		t.Fatal(err)
	}
	stepAndCheck(t, tb, f, 0) // invariant must hold regardless of outcome
}

func TestEngineDeterminismAcrossRuns(t *testing.T) {
	run := func() time.Duration {
		g := topo.Synthetic()
		tb := newTestbed(g, 42, &core.Protocol{})
		rng := tb.eng.Rand()
		tb.net.SetInstallDelay(func() time.Duration {
			return time.Duration(rng.ExpFloat64() * float64(30*time.Millisecond))
		})
		oldP, newP := topo.SyntheticPaths()
		f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
		u, _ := tb.ctl.TriggerUpdate(f, newP, forceType(packet.UpdateDual))
		tb.eng.Run()
		if !u.Done() {
			t.Fatal("update did not complete")
		}
		return u.Completed - u.Sent
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different results: %v vs %v", a, b)
	}
	_ = sim.New // keep the import meaningful if helpers change
}

func TestDuplicatedUNMsIdempotent(t *testing.T) {
	// At-least-once delivery: every data-plane frame is delivered twice.
	// Verification must treat replays as duplicates; the update completes
	// exactly once and stays consistent throughout.
	for _, ut := range []packet.UpdateType{packet.UpdateSingle, packet.UpdateDual} {
		g := topo.Synthetic()
		tb := newTestbed(g, 81, &core.Protocol{})
		attachRules(tb, duplicateAllData())
		oldP, newP := topo.SyntheticPaths()
		f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
		u, err := tb.ctl.TriggerUpdate(f, newP, &ut)
		if err != nil {
			t.Fatal(err)
		}
		stepAndCheck(t, tb, f, 0)
		if !u.Done() {
			t.Fatalf("%v: update did not complete under duplication", ut)
		}
		// Each node committed this version exactly once.
		var applied uint64
		for _, sw := range tb.net.Switches() {
			applied += sw.Stats.RulesApplied
		}
		if applied != uint64(len(newP)) {
			t.Errorf("%v: %d rule commits, want %d (no double applies)", ut, applied, len(newP))
		}
	}
}

func TestDuplicatedControlAndDataUnderCongestion(t *testing.T) {
	// Duplication combined with the congestion gate: staged reservations
	// must not be double-booked by replayed notifications.
	g := topo.Synthetic()
	tb := newTestbed(g, 82, &core.Protocol{Congestion: true})
	attachRules(tb, duplicateAllData())
	oldP, newP := topo.SyntheticPaths()
	f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 600_000) // 600 Mbps of 1000
	u, err := tb.ctl.TriggerUpdate(f, newP, forceType(packet.UpdateDual))
	if err != nil {
		t.Fatal(err)
	}
	for tb.eng.Step() {
		for _, sw := range tb.net.Switches() {
			for p := topo.PortID(0); int(p) < tb.topo.Degree(sw.ID); p++ {
				if sw.ReservedK(p) > sw.CapacityK(p) {
					t.Fatalf("node %d port %d over capacity under duplication", sw.ID, p)
				}
			}
		}
	}
	if !u.Done() {
		t.Fatal("update did not complete")
	}
	// Final reservations: exactly one 600 Mbps booking per new-path link.
	for i := 0; i+1 < len(newP); i++ {
		sw := tb.net.Switch(newP[i])
		port := tb.topo.PortTo(newP[i], newP[i+1])
		if got := sw.ReservedK(port); got != 600_000 {
			t.Errorf("link %d->%d reserved %d, want 600000", newP[i], newP[i+1], got)
		}
	}
}
