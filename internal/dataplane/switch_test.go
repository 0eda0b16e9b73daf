package dataplane

import (
	"testing"
	"time"

	"p4update/internal/packet"
	"p4update/internal/sim"
	"p4update/internal/topo"
)

// lineNet builds a 4-node line fabric with 1 ms, 100 Mbps links.
func lineNet(t *testing.T, seed int64) (*Network, *topo.Topology) {
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
	return NewNetwork(eng, g), g
}

func TestInstallPathAndForwarding(t *testing.T) {
	net, _ := lineNet(t, 1)
	f := packet.FlowID(7)
	net.InstallPath(f, []topo.NodeID{0, 1, 2, 3}, 1, 500)

	// Registers carry hop distances to the egress.
	for i, want := range []uint16{3, 2, 1, 0} {
		st, ok := net.Switch(topo.NodeID(i)).PeekState(f)
		if !ok || st.NewDistance != want {
			t.Errorf("node %d distance = %v, want %d", i, st, want)
		}
	}
	// A packet injected at the ingress is delivered at the egress.
	var deliveredAt topo.NodeID = -1
	net.OnDeliver = func(n topo.NodeID, d *packet.Data) { deliveredAt = n }
	net.Switch(0).InjectData(&packet.Data{Flow: f, Seq: 1, TTL: 8})
	net.Eng.Run()
	if deliveredAt != 3 {
		t.Fatalf("delivered at %d, want 3", deliveredAt)
	}
	if net.Switch(3).Stats.DataDelivered != 1 {
		t.Error("egress delivery not counted")
	}
	if net.Switch(1).Stats.DataForwarded != 1 {
		t.Error("transit forwarding not counted")
	}
}

func TestBlackholeAndTTLDrops(t *testing.T) {
	net, _ := lineNet(t, 1)
	f := packet.FlowID(7)
	// No rule anywhere: blackhole at the ingress.
	net.Switch(0).InjectData(&packet.Data{Flow: f, Seq: 1, TTL: 8})
	if net.Switch(0).Stats.BlackholeDrops != 1 {
		t.Error("missing-rule packet not counted as blackhole")
	}
	// TTL expiry mid-path.
	net.InstallPath(f, []topo.NodeID{0, 1, 2, 3}, 1, 500)
	net.Switch(0).InjectData(&packet.Data{Flow: f, Seq: 2, TTL: 2})
	net.Eng.Run()
	if net.Switch(1).Stats.TTLDrops != 1 {
		t.Errorf("TTL drop not counted: %+v", net.Switch(1).Stats)
	}
	if net.Switch(3).Stats.DataDelivered != 0 {
		t.Error("expired packet delivered")
	}
}

func TestFRMGeneratedForUnknownFlow(t *testing.T) {
	net, _ := lineNet(t, 1)
	var got *packet.FRM
	net.ControllerRx = func(from topo.NodeID, raw []byte) {
		if m, err := packet.Decode(raw); err == nil {
			if frm, ok := m.(*packet.FRM); ok {
				got = frm
			}
		}
	}
	net.Switch(0).FRMEnabled = true
	net.Switch(0).InjectData(&packet.Data{Flow: 99, Seq: 1, TTL: 8})
	net.Eng.Run()
	if got == nil || got.Flow != 99 {
		t.Fatalf("FRM = %+v, want flow 99", got)
	}
}

func TestCapacityAccounting(t *testing.T) {
	net, g := lineNet(t, 1)
	sw := net.Switch(1)
	p := g.PortTo(1, 2)
	if sw.CapacityK(p) != 100_000 {
		t.Fatalf("capacity = %d, want 100000 kbps", sw.CapacityK(p))
	}
	sw.Reserve(p, 60_000)
	if sw.RemainingK(p) != 40_000 {
		t.Errorf("remaining = %d, want 40000", sw.RemainingK(p))
	}
	sw.Reserve(p, 60_000) // oversubscribed
	if sw.RemainingK(p) != 0 {
		t.Errorf("oversubscribed remaining = %d, want 0", sw.RemainingK(p))
	}
	sw.Release(p, 120_000)
	if sw.ReservedK(p) != 0 {
		t.Errorf("reserved after full release = %d, want 0", sw.ReservedK(p))
	}
	// Local port is uncapacitated and ignores reservations.
	sw.Reserve(PortLocal, 999)
	if sw.ReservedK(PortLocal) != 0 {
		t.Error("PortLocal took a reservation")
	}
}

func TestCommitStateMovesReservation(t *testing.T) {
	net, g := lineNet(t, 1)
	sw := net.Switch(1)
	f := packet.FlowID(5)
	p01 := g.PortTo(1, 0)
	p12 := g.PortTo(1, 2)
	sw.InstallInitialRule(f, p01, 1, 2, 30_000)
	if sw.ReservedK(p01) != 30_000 {
		t.Fatal("initial reservation missing")
	}
	ok := sw.CommitState(f, Commit{
		Port: p12, Version: 2, Distance: 1,
		OldVersion: 1, OldDistance: 2, SizeK: 30_000,
	})
	if !ok {
		t.Fatal("commit refused")
	}
	if sw.ReservedK(p01) != 0 || sw.ReservedK(p12) != 30_000 {
		t.Errorf("reservations: old=%d new=%d", sw.ReservedK(p01), sw.ReservedK(p12))
	}
	st, _ := sw.PeekState(f)
	if st.NewVersion != 2 || st.OldVersion != 1 || st.EgressPort != p12 {
		t.Errorf("registers after commit: %+v", st)
	}
	// Committing an older version is refused.
	if sw.CommitState(f, Commit{Port: p01, Version: 1, SizeK: 30_000}) {
		t.Error("older version committed")
	}
	if sw.ReservedK(p12) != 30_000 {
		t.Error("refused commit disturbed reservations")
	}
}

func TestStagedReservationConsumedOrReturned(t *testing.T) {
	net, g := lineNet(t, 1)
	sw := net.Switch(1)
	f := packet.FlowID(5)
	p12 := g.PortTo(1, 2)
	sw.StageReservation(f, p12, 10_000, 2)
	if sw.ReservedK(p12) != 10_000 {
		t.Fatal("staged reservation not booked")
	}
	// Commit of the same version+port consumes it without double booking.
	sw.CommitState(f, Commit{Port: p12, Version: 2, SizeK: 10_000})
	if sw.ReservedK(p12) != 10_000 {
		t.Errorf("after commit reserved = %d, want 10000 (no double booking)", sw.ReservedK(p12))
	}
	// A staged reservation superseded by a newer commit is returned.
	sw.StageReservation(f, p12, 5_000, 3)
	p01 := g.PortTo(1, 0)
	sw.CommitState(f, Commit{Port: p01, Version: 4, SizeK: 10_000})
	if sw.ReservedK(p12) != 0 {
		t.Errorf("stale staged reservation leaked: %d", sw.ReservedK(p12))
	}
}

func TestParkAndWakeUIM(t *testing.T) {
	net, _ := lineNet(t, 1)
	rec := &recorder{}
	net.SetHandler(rec)
	sw := net.Switch(1)
	sw.ParkOnUIM(&packet.UNM{Flow: 3, Vn: 2}, 0)
	sw.ParkOnUIM(&packet.EZN{Flow: 3, Version: 2}, 0)
	sw.WakeUIMWaiters(4) // different flow: nothing
	net.Eng.Run()
	if len(rec.frames) != 0 {
		t.Fatal("woke the wrong flow's waiters")
	}
	sw.WakeUIMWaiters(3)
	net.Eng.Run()
	if len(rec.frames) != 2 {
		t.Fatalf("resubmitted %d messages, want 2", len(rec.frames))
	}
	if sw.Stats.Resubmissions != 2 {
		t.Errorf("resubmissions = %d, want 2", sw.Stats.Resubmissions)
	}
}

func TestParkOnCapacityWokenByRelease(t *testing.T) {
	net, g := lineNet(t, 1)
	rec := &recorder{}
	net.SetHandler(rec)
	sw := net.Switch(1)
	p := g.PortTo(1, 2)
	sw.Reserve(p, 100_000)
	sw.ParkOnCapacity(p, &packet.UIM{Flow: 3, Version: 2}, topo.InvalidPort)
	net.Eng.Run()
	if len(rec.frames) != 0 {
		t.Fatal("woke without a release")
	}
	sw.Release(p, 100_000)
	net.Eng.Run()
	if len(rec.frames) != 1 {
		t.Fatal("release did not wake the parked instruction")
	}
}

func TestHighWaitingBookkeeping(t *testing.T) {
	net, g := lineNet(t, 1)
	sw := net.Switch(1)
	p := g.PortTo(1, 2)
	sw.MarkHighWaiting(p, 5)
	if !sw.HighWaitingOn(p, 6) {
		t.Error("other flow should see the high waiter")
	}
	if sw.HighWaitingOn(p, 5) {
		t.Error("a flow is not blocked by itself")
	}
	sw.ClearHighWaiting(p, 5)
	if sw.HighWaitingOn(p, 6) || sw.highWaitingN != 0 {
		t.Errorf("cleared waiter still visible (%d counted)", sw.highWaitingN)
	}
}

// TestRetireLeavesHighWaiting: a retiring flow leaves every
// high-priority waiter set of every holder, and only it does — the
// scan retirement skips on a switch whose sets are empty must still run
// wherever one is not.
func TestRetireLeavesHighWaiting(t *testing.T) {
	net, g := lineNet(t, 1)
	const f, other = packet.FlowID(5), packet.FlowID(6)
	net.InstallPath(f, []topo.NodeID{0, 1, 2, 3}, 1, 1)
	net.InstallPath(other, []topo.NodeID{1, 2}, 1, 1)
	sw := net.Switch(1)
	left, right := g.PortTo(1, 0), g.PortTo(1, 2)
	sw.MarkHighWaiting(left, f)
	sw.MarkHighWaiting(right, f)
	sw.MarkHighWaiting(right, other)
	net.Switch(2).MarkHighWaiting(g.PortTo(2, 3), f)
	net.RetireFlow(f)
	if sw.HighWaitingOn(left, other) || net.Switch(2).HighWaitingOn(g.PortTo(2, 3), other) {
		t.Error("the retired flow still waits on a port")
	}
	if !sw.HighWaitingOn(right, f) {
		t.Error("retiring one flow dropped another's high-priority wait")
	}
	net.RetireFlow(other)
	if sw.HighWaitingOn(right, f) {
		t.Error("the second retired flow still waits on a port")
	}
	for _, sw := range net.Switches() {
		if sw.highWaitingN != 0 {
			t.Errorf("switch %d counts %d high-priority waiters, holds none", sw.ID, sw.highWaitingN)
		}
	}
}

func TestCleanupGuards(t *testing.T) {
	net, g := lineNet(t, 1)
	f := packet.FlowID(9)
	net.InstallPath(f, []topo.NodeID{0, 1, 2, 3}, 1, 500)
	sw1 := net.Switch(1)
	p := g.PortTo(1, 2)

	// Cleanup for an older-or-equal version: refused.
	sw1.Receive(packet.Marshal(&packet.CLN{Flow: f, Version: 1}), topo.InvalidPort)
	if st, _ := sw1.PeekState(f); !st.HasRule {
		t.Fatal("cleanup removed a rule of the same version")
	}
	// A pending indication protects the rule.
	st, _ := sw1.PeekState(f)
	st.IndicatedVersion = 2
	sw1.Receive(packet.Marshal(&packet.CLN{Flow: f, Version: 2}), topo.InvalidPort)
	if st, _ := sw1.PeekState(f); !st.HasRule {
		t.Fatal("cleanup removed a rule with a pending indication")
	}
	// The egress delivery rule is never removed.
	sw3 := net.Switch(3)
	sw3.Receive(packet.Marshal(&packet.CLN{Flow: f, Version: 99}), topo.InvalidPort)
	if st, _ := sw3.PeekState(f); !st.HasRule {
		t.Fatal("cleanup removed the egress rule")
	}
	// A genuinely stale rule is removed and its capacity released.
	st.IndicatedVersion = 0
	if sw1.ReservedK(p) != 500 {
		t.Fatalf("precondition: reservation = %d", sw1.ReservedK(p))
	}
	sw1.Receive(packet.Marshal(&packet.CLN{Flow: f, Version: 2}), topo.InvalidPort)
	if st, _ := sw1.PeekState(f); st.HasRule {
		t.Fatal("stale rule survived cleanup")
	}
	if sw1.ReservedK(p) != 0 {
		t.Error("cleanup did not release the reservation")
	}
	if sw1.Stats.RulesCleaned != 1 {
		t.Errorf("RulesCleaned = %d, want 1", sw1.Stats.RulesCleaned)
	}
}

func TestDecodeErrorCounted(t *testing.T) {
	net, _ := lineNet(t, 1)
	net.Switch(0).Receive([]byte{0xff, 1, 2}, topo.InvalidPort)
	if net.Switch(0).Stats.DecodeErrors != 1 {
		t.Error("undecodable frame not counted")
	}
	// Controller-bound types arriving at a switch are also dropped.
	net.Switch(0).Receive(packet.Marshal(&packet.UFM{Flow: 1}), topo.InvalidPort)
	if net.Switch(0).Stats.DecodeErrors != 2 {
		t.Error("misdelivered UFM not dropped")
	}
}

func TestApplyDelayModel(t *testing.T) {
	net, _ := lineNet(t, 1)
	rec := &recorder{}
	net.SetHandler(rec)
	sw := net.Switch(0)
	sw.InstallDelay = func() time.Duration { return 10 * time.Millisecond }
	for _, v := range []uint32{2, 3} {
		c := sw.StageCommit()
		*c = StagedCommit{Flow: 3, UIM: packet.UIM{Flow: 3, Version: v}}
		sw.Apply(v == 2, c) // version 2 changes the port, 3 only relabels
	}
	net.Eng.Run()
	at := map[uint32]time.Duration{}
	for i, c := range rec.commits {
		at[c.Version] = rec.commitAt[i]
	}
	portChangeAt, relabelAt := at[2], at[3]
	if portChangeAt != 10*time.Millisecond {
		t.Errorf("port change committed at %v, want 10ms", portChangeAt)
	}
	if relabelAt >= portChangeAt {
		t.Errorf("register relabel (%v) should be faster than a table write (%v)", relabelAt, portChangeAt)
	}
}

func TestTracePathLoopGuard(t *testing.T) {
	net, g := lineNet(t, 1)
	f := packet.FlowID(3)
	// Create an artificial loop 1->2->1.
	net.Switch(1).InstallInitialRule(f, g.PortTo(1, 2), 1, 1, 100)
	net.Switch(2).InstallInitialRule(f, g.PortTo(2, 1), 1, 1, 100)
	visited, delivered := net.TracePath(f, 1, 10)
	if delivered {
		t.Fatal("loop reported as delivered")
	}
	if len(visited) != 11 {
		t.Errorf("loop guard visited %d nodes, want maxHops+1", len(visited))
	}
}
