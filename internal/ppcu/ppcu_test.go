package ppcu

import (
	"slices"
	"testing"
	"time"

	"p4update/internal/audit"
	"p4update/internal/controlplane"
	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/sim"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

// yBed is a contention fabric: flows from S1 and S2 to T cross X, whose
// links to A, B and C carry 10 Mbps each — room for one of the two 6 Mbps
// flows at a time. f1 runs S1-X-A-T and f2 S2-X-B-T, so f1 moving onto
// X-B waits on capacity until f2 leaves it. The invariant auditor sweeps
// every step.
type yBed struct {
	eng                   *sim.Engine
	net                   *dataplane.Network
	co                    *Coordinator
	aud                   *audit.Auditor
	s1, s2, x, a, b, c, t topo.NodeID
	f1, f2                packet.FlowID
	// acks is every StatusUpdated feedback, in arrival order.
	acks []packet.UFM
}

func newYBed(t *testing.T) *yBed {
	t.Helper()
	g := topo.New("y")
	y := &yBed{}
	for _, n := range []struct {
		id   *topo.NodeID
		name string
	}{{&y.s1, "S1"}, {&y.s2, "S2"}, {&y.x, "X"}, {&y.a, "A"}, {&y.b, "B"}, {&y.c, "C"}, {&y.t, "T"}} {
		*n.id = g.AddNode(n.name, 0, 0)
	}
	for _, l := range [][3]topo.NodeID{
		{y.s1, y.x, 1000}, {y.s2, y.x, 1000}, {y.x, y.a, 10}, {y.x, y.b, 10}, {y.x, y.c, 10},
		{y.a, y.t, 1000}, {y.b, y.t, 1000}, {y.c, y.t, 1000},
	} {
		g.AddLink(l[0], l[1], time.Millisecond, float64(l[2]))
	}
	y.eng = sim.New(1)
	y.eng.MaxEvents = 1_000_000
	y.net = dataplane.NewNetwork(y.eng, g)
	y.net.SetHandler(&controlplane.Agent{Apply: trace.CodeApplyPPCU, Congestion: true})
	for _, sw := range y.net.Switches() {
		sw.TwoPhase = true
	}
	controlplane.UseCentroidControl(y.net)
	ctl := controlplane.NewController(y.net)
	y.co = NewCoordinator(ctl)
	rx := y.net.ControllerRx
	y.net.ControllerRx = func(from topo.NodeID, raw []byte) {
		var u packet.UFM
		if len(raw) > 0 && packet.MsgType(raw[0]) == packet.TypeUFM &&
			u.DecodeFromBytes(raw) == nil && u.Status == packet.StatusUpdated {
			y.acks = append(y.acks, u)
		}
		rx(from, raw)
	}
	var err error
	if y.f1, err = ctl.RegisterFlow(y.s1, y.t, []topo.NodeID{y.s1, y.x, y.a, y.t}, 6000); err != nil {
		t.Fatal(err)
	}
	if y.f2, err = ctl.RegisterFlow(y.s2, y.t, []topo.NodeID{y.s2, y.x, y.b, y.t}, 6000); err != nil {
		t.Fatal(err)
	}
	y.aud = audit.Attach(y.net, ctl, audit.Config{})
	return y
}

// port returns X's port toward n.
func (y *yBed) port(n topo.NodeID) topo.PortID { return y.net.Topo.PortTo(y.x, n) }

// moveF1ThenF2 moves f1 onto X-B, checks at 30 ms that it is parked on
// capacity there and runs between(), then at 60 ms moves f2 off X-B onto
// X-C, and runs the fabric to quiescence.
func (y *yBed) moveF1ThenF2(t *testing.T, between func()) (u1, u2 *controlplane.UpdateStatus) {
	t.Helper()
	u1, err := y.co.TriggerUpdate(y.f1, []topo.NodeID{y.s1, y.x, y.b, y.t})
	if err != nil {
		t.Fatal(err)
	}
	y.eng.Schedule(30*time.Millisecond, func() {
		if !y.net.Switch(y.x).HasCapacityWaiters(y.port(y.b)) {
			t.Error("f1's instruction did not park on X-B's capacity")
		}
		between()
	})
	y.eng.Schedule(60*time.Millisecond, func() {
		if u2, err = y.co.TriggerUpdate(y.f2, []topo.NodeID{y.s2, y.x, y.c, y.t}); err != nil {
			t.Error(err)
		}
	})
	y.eng.Run()
	if u2 == nil || !u2.Done() {
		t.Fatal("f2 did not move off X-B")
	}
	if y.net.Switch(y.x).Stats.Resubmissions == 0 {
		t.Error("f2 leaving X-B woke nothing at X")
	}
	// Over-capacity is not checked: until f2's ingress flips, its
	// old-version packets keep crossing X-B over the retained rule while
	// f1's new-version packets already do. That double occupancy is the
	// two-phase scheme's own cost, not the wait's.
	if r := y.aud.Report(); r.Blackholes+r.Loops+r.VersionRegressions != 0 {
		t.Errorf("auditor found consistency violations: %+v", r)
	}
	return u1, u2
}

// TestCapacityWaitResumesWhenTheLinkFrees: f1's instruction at X parks
// on X-B's capacity; f2 vacating X-B wakes it, it commits, and the
// two-phase update completes once f2 has moved.
func TestCapacityWaitResumesWhenTheLinkFrees(t *testing.T) {
	y := newYBed(t)
	u1, u2 := y.moveF1ThenF2(t, func() {})
	if !u1.Done() || u1.Completed <= u2.Sent {
		t.Fatalf("f1 done=%v at %v, want done after f2's move started (%v)", u1.Done(), u1.Completed, u2.Sent)
	}
	if got, ok := y.net.TracePath(y.f1, y.s1, 10); !ok || !slices.Equal(got, []topo.NodeID{y.s1, y.x, y.b, y.t}) {
		t.Errorf("f1 forwards along %v, want S1-X-B-T", got)
	}
}

// TestSupersededCapacityWaitNeitherCommitsNorAcks: while f1's version-2
// instruction waits at X, a version-3 instruction keeping f1 on X-A
// commits there. When f2 frees X-B the woken version-2 apply must
// neither commit, book capacity, nor acknowledge.
func TestSupersededCapacityWaitNeitherCommitsNorAcks(t *testing.T) {
	y := newYBed(t)
	y.moveF1ThenF2(t, func() {
		y.net.SendToSwitch(y.x, &packet.UIM{
			Flow: y.f1, Version: 3, NewDistance: 2, EgressPort: uint16(y.port(y.a)),
			ChildPort: packet.NoPort, FlowSizeK: 6000,
		}, 0)
	})
	st, _ := y.net.Switch(y.x).PeekState(y.f1)
	if st.NewVersion != 3 || st.EgressPort != y.port(y.a) {
		t.Errorf("X holds f1 version %d on port %d, want version 3 on X-A", st.NewVersion, st.EgressPort)
	}
	if r := y.net.Switch(y.x).ReservedK(y.port(y.b)); r != 0 {
		t.Errorf("X-B still reserves %d kbps after f2 left", r)
	}
	for _, u := range y.acks {
		if u.Flow == y.f1 && u.Version == 2 && topo.NodeID(u.Node) == y.x {
			t.Errorf("X acknowledged the superseded version 2: %+v", u)
		}
	}
}
