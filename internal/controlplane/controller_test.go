package controlplane

import (
	"math"
	"testing"
	"time"

	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/sim"
	"p4update/internal/topo"
)

// echoHandler applies any UIM immediately (a minimal protocol for
// exercising the controller's tracking machinery in isolation).
type echoHandler struct{}

func (echoHandler) HandleUIM(sw *dataplane.Switch, m *packet.UIM) {
	c := sw.StageCommit()
	*c = dataplane.StagedCommit{Flow: m.Flow, UIM: *m, State: sw.State(m.Flow)}
	sw.Apply(true, c)
}

func (echoHandler) CommitStaged(sw *dataplane.Switch, c *dataplane.StagedCommit) {
	sw.CommitRule(c.Flow, &c.UIM, c.State.NewVersion, c.State.NewDistance, 0)
}

func (echoHandler) HandleUNM(*dataplane.Switch, *packet.UNM, topo.PortID) {}

func (echoHandler) Resubmit(*dataplane.Switch, packet.Message, topo.PortID) {}

func bed(t *testing.T) (*sim.Engine, *dataplane.Network, *Controller) {
	t.Helper()
	g := topo.Synthetic()
	eng := sim.New(1)
	eng.MaxEvents = 500_000
	net := dataplane.NewNetwork(eng, g)
	net.SetHandler(echoHandler{})
	UseCentroidControl(net)
	return eng, net, NewController(net)
}

func TestRegisterFlowValidation(t *testing.T) {
	_, net, ctl := bed(t)
	if _, err := ctl.RegisterFlow(0, 7, []topo.NodeID{0, 4, 2, 7}, 100); err != nil {
		t.Fatalf("valid flow rejected: %v", err)
	}
	if _, err := ctl.RegisterFlow(0, 7, []topo.NodeID{1, 4, 2, 7}, 100); err == nil {
		t.Error("path not starting at src accepted")
	}
	// A path the topology lacks is refused before anything is installed.
	for _, path := range [][]topo.NodeID{{0, 7}, {0, 4, 0, 7}, nil} {
		if err := ctl.RegisterFlowID(99, 0, 7, path, 100); err == nil {
			t.Errorf("invalid path %v accepted", path)
		}
		if _, ok := net.FlowSlot(99); ok {
			t.Errorf("invalid path %v left the flow interned", path)
		}
	}
}

func TestUnknownFlowUpdateRejected(t *testing.T) {
	_, _, ctl := bed(t)
	if _, err := ctl.TriggerUpdate(12345, []topo.NodeID{0, 4, 2, 7}, nil); err == nil {
		t.Error("unknown flow accepted")
	}
}

func TestCompletionProbeAndCleanup(t *testing.T) {
	eng, net, ctl := bed(t)
	f, err := ctl.RegisterFlow(0, 7, []topo.NodeID{0, 4, 2, 7}, 100)
	if err != nil {
		t.Fatal(err)
	}
	var completed *UpdateStatus
	ctl.OnComplete = func(u *UpdateStatus) { completed = u }
	u, err := ctl.TriggerUpdate(f, []topo.NodeID{0, 1, 2, 3, 4, 5, 6, 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if completed != u || !u.Done() {
		t.Fatal("completion callback not fired")
	}
	if u.AllApplied == 0 || u.Completed < u.AllApplied {
		t.Errorf("timestamps inconsistent: applied=%v completed=%v", u.AllApplied, u.Completed)
	}
	// §11 cleanup: no old-path-only nodes here (old ⊂ new), so nothing
	// to clean — verify by checking rules still exist everywhere.
	for _, n := range u.NewPath {
		if st, ok := net.Switch(n).PeekState(f); !ok || !st.HasRule {
			t.Errorf("node %d lost its rule", n)
		}
	}
	// Now move to a path abandoning v1, v3, v5, v6: they get cleaned.
	u2, err := ctl.TriggerUpdate(f, []topo.NodeID{0, 4, 2, 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !u2.Done() {
		t.Fatal("second update incomplete")
	}
	for _, n := range []topo.NodeID{1, 3, 5, 6} {
		if st, ok := net.Switch(n).PeekState(f); ok && st.HasRule {
			t.Errorf("abandoned node %d kept its rule", n)
		}
	}
	rec, _ := ctl.Flow(f)
	if rec.Version != 3 || len(rec.Path) != 4 {
		t.Errorf("flow DB not updated: %+v", rec)
	}
}

func TestFRMTriggersOnNewFlow(t *testing.T) {
	eng, net, ctl := bed(t)
	var reported packet.FlowID
	ctl.OnNewFlow = func(f packet.FlowID) { reported = f }
	net.Switch(0).FRMEnabled = true
	net.Switch(0).InjectData(&packet.Data{Flow: 777, Seq: 1, TTL: 4})
	eng.Run()
	if reported != 777 {
		t.Errorf("OnNewFlow got %d, want 777", reported)
	}
}

func TestAlarmRecording(t *testing.T) {
	eng, net, ctl := bed(t)
	f, _ := ctl.RegisterFlow(0, 7, []topo.NodeID{0, 4, 2, 7}, 100)
	u, _ := ctl.TriggerUpdate(f, []topo.NodeID{0, 1, 2, 7}, nil)
	var alarms int
	ctl.OnAlarm = func(packet.UFM) { alarms++ }
	// A switch raises an alarm for this update's version.
	net.Switch(2).Alarm(f, u.Version, packet.ReasonDistance)
	eng.Run()
	if alarms != 1 || len(u.Alarms) != 1 {
		t.Errorf("alarms: hook=%d recorded=%d, want 1/1", alarms, len(u.Alarms))
	}
	if u.Alarms[0].Reason != packet.ReasonDistance {
		t.Errorf("alarm reason = %v", u.Alarms[0].Reason)
	}
}

func TestControlLatencyModels(t *testing.T) {
	g := topo.Synthetic()
	eng := sim.New(1)
	net := dataplane.NewNetwork(eng, g)
	UseCentroidControl(net)
	if net.ControlLatency(g.Centroid()) != 0 {
		t.Error("controller-co-located switch should have zero latency")
	}
	UseSampledControl(net, func() time.Duration { return 7 * time.Millisecond })
	for _, n := range g.Nodes() {
		if net.ControlLatency(n) != 7*time.Millisecond {
			t.Fatalf("sampled latency wrong for node %d", n)
		}
	}
}

func TestUpdatesListing(t *testing.T) {
	eng, _, ctl := bed(t)
	f, _ := ctl.RegisterFlow(0, 7, []topo.NodeID{0, 4, 2, 7}, 100)
	ctl.TriggerUpdate(f, []topo.NodeID{0, 1, 2, 7}, nil)
	eng.Run()
	if got := len(ctl.updates); got != 1 {
		t.Errorf("%d tracked updates, want 1", got)
	}
	if _, ok := ctl.Status(f, 2); !ok {
		t.Error("Status lookup failed")
	}
	if _, ok := ctl.Status(f, 9); ok {
		t.Error("phantom status")
	}
}

// TestUpdateWatchdogCycleAllocatesNothing: every firing of the
// completion watchdog on an update that never completes spends one
// retrigger on its (counting) resend and re-arms, and allocates nothing.
func TestUpdateWatchdogCycleAllocatesNothing(t *testing.T) {
	eng, _, ctl := bed(t)
	ctl.ProbeTimeout = 10 * time.Millisecond
	ctl.MaxRetriggers = math.MaxInt
	path := []topo.NodeID{0, 4, 2, 7}
	f, err := ctl.RegisterFlow(0, 7, path, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing is sent, so nothing commits.
	u := &UpdateStatus{Flow: f, Version: 2, OldPath: path, NewPath: path}
	ctl.Launch(u, Dispatch{Resend: new(countingSender)})
	cycle := func() {
		if !eng.Step() {
			t.Fatal("the watchdog did not re-arm")
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("an arm-and-fire cycle of the completion watchdog allocates %.2f times, want 0", allocs)
	}
	if want := 8 + 1001; u.Retriggers != want {
		t.Errorf("%d retriggers, want one per firing (%d)", u.Retriggers, want)
	}
}

// countingSender counts the resends it is asked for and sends nothing.
type countingSender int

func (s *countingSender) Send(*Controller, *UpdateStatus) { *s++ }

// scriptedFaults drops every controller-to-switch frame while ctlDown is
// set, and the first dropData data frames on the link from→to.
type scriptedFaults struct {
	ctlDown  bool
	from, to topo.NodeID
	dropData int
}

func (s *scriptedFaults) Inspect(class dataplane.FaultClass, from, to topo.NodeID, raw []byte) ([]byte, dataplane.FaultAction) {
	switch {
	case class == dataplane.FaultControlDown && s.ctlDown:
		return raw, dataplane.FaultAction{Drop: true}
	case class == dataplane.FaultData && from == s.from && to == s.to && s.dropData > 0 &&
		packet.MsgType(raw[0]) == packet.TypeData:
		s.dropData--
		return raw, dataplane.FaultAction{Drop: true}
	}
	return raw, dataplane.FaultAction{}
}

// TestWatchdogStopsWithNothingToResend: an update launched without a
// resend is not recoverable. Neither the watchdog nor a stall
// report charges it budget, the watchdog stops after one look, and the
// engine quiesces.
func TestWatchdogStopsWithNothingToResend(t *testing.T) {
	eng, net, ctl := bed(t)
	ctl.ProbeTimeout = 10 * time.Millisecond
	ctl.MaxRetriggers = 5
	path := []topo.NodeID{0, 4, 2, 7}
	f, err := ctl.RegisterFlow(0, 7, path, 100)
	if err != nil {
		t.Fatal(err)
	}
	u := &UpdateStatus{Flow: f, Version: 2, OldPath: path, NewPath: path}
	ctl.Launch(u, Dispatch{})
	net.Switch(4).SendUFM(packet.UFM{Flow: f, Version: 2, Status: packet.StatusStalled})
	eng.Run()
	if eng.CutShort() {
		t.Fatal("the engine never quiesced")
	}
	if u.Retriggers != 0 {
		t.Errorf("%d retriggers charged for an update with nothing to re-send", u.Retriggers)
	}
	if eng.Steps() != 2 {
		t.Errorf("%d events, want 2 (the stall report and one watchdog firing)", eng.Steps())
	}
}

// TestWatchdogStopsWhenBudgetSpent: a recoverable update that never
// completes is re-sent exactly MaxRetriggers times, once per
// ProbeTimeout, and the watchdog then stops so the engine quiesces.
func TestWatchdogStopsWhenBudgetSpent(t *testing.T) {
	eng, _, ctl := bed(t)
	ctl.ProbeTimeout = 10 * time.Millisecond
	ctl.MaxRetriggers = 3
	path := []topo.NodeID{0, 4, 2, 7}
	f, err := ctl.RegisterFlow(0, 7, path, 100)
	if err != nil {
		t.Fatal(err)
	}
	u := &UpdateStatus{Flow: f, Version: 2, OldPath: path, NewPath: path}
	resends := new(countingSender)
	ctl.Launch(u, Dispatch{Resend: resends})
	end := eng.Run()
	if eng.CutShort() {
		t.Fatal("the engine never quiesced")
	}
	if u.Retriggers != 3 || *resends != 3 {
		t.Errorf("%d retriggers, %d resends, want 3 each", u.Retriggers, *resends)
	}
	if end != 40*time.Millisecond {
		t.Errorf("quiesced at %v, want 40ms (three re-sends, one last look)", end)
	}
}

// TestStragglerCommitRearmsWatchdog: once the watchdog has stopped, a
// straggler commit that empties the pending set re-arms it, so a lost
// confirmation probe is still re-injected and the update completes.
func TestStragglerCommitRearmsWatchdog(t *testing.T) {
	eng, net, ctl := bed(t)
	ctl.ProbeTimeout = time.Second // longer than a probe's round trip
	ctl.MaxRetriggers = 0          // the plan is never re-sent: the watchdog stops
	f, err := ctl.RegisterFlow(0, 7, []topo.NodeID{0, 4, 2, 7}, 100)
	if err != nil {
		t.Fatal(err)
	}
	fs := &scriptedFaults{ctlDown: true, from: 0, to: 1, dropData: 1}
	net.Faults = fs
	u, err := ctl.TriggerUpdate(f, []topo.NodeID{0, 1, 2, 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Run(); eng.CutShort() || u.AllApplied != 0 || eng.Steps() != 1 {
		t.Fatalf("lost plan: cut short %v, applied at %v after %d events; want one watchdog firing",
			eng.CutShort(), u.AllApplied, eng.Steps())
	}
	// The straggler: the plan's indications arrive after all.
	fs.ctlDown = false
	for i := range u.Plan.UIMs {
		net.SendToSwitch(u.Plan.Targets[i], &u.Plan.UIMs[i], 0)
	}
	eng.Run()
	if eng.CutShort() {
		t.Fatal("the engine never quiesced")
	}
	if fs.dropData != 0 {
		t.Fatal("the first probe was not dropped")
	}
	if !u.Done() || u.ProbeRetries != 1 || u.Retriggers != 0 {
		t.Errorf("done %v after %d probe retries and %d retriggers, want done after 1 and 0",
			u.Done(), u.ProbeRetries, u.Retriggers)
	}
}

// TestFlowDBSlotReuse: the Flow DB is indexed by data-plane slot, and a
// record answers only for the flow it was registered for. After flow A
// leaves (with and without UnregisterFlow before its RetireFlow), a
// flow B interned into A's recycled slot is never handed A's record.
func TestFlowDBSlotReuse(t *testing.T) {
	for _, unregister := range []bool{true, false} {
		_, net, ctl := bed(t)
		pathA, pathB := []topo.NodeID{0, 4, 2, 7}, []topo.NodeID{7, 2, 4, 0}
		a, err := ctl.RegisterFlow(0, 7, pathA, 100)
		if err != nil {
			t.Fatal(err)
		}
		slotA, _ := net.FlowSlot(a)
		if unregister {
			ctl.UnregisterFlow(a)
		}
		net.RetireFlow(a)
		if _, ok := ctl.Flow(a); ok {
			t.Errorf("unregister=%v: retired flow A still in the Flow DB", unregister)
		}

		// B reaches A's slot through the fabric alone: no record is B's.
		b := packet.HashFlow(7, 0)
		if slot, err := net.InstallPath(b, pathB, 1, 100); err != nil || slot != slotA {
			t.Fatalf("B interned in slot %d (%v), want A's recycled slot %d", slot, err, slotA)
		}
		if rec, ok := ctl.Flow(b); ok {
			t.Errorf("unregister=%v: unregistered B found record %+v", unregister, *rec)
		}
		if rec, ok := ctl.FlowAt(slotA, b); ok {
			t.Errorf("unregister=%v: FlowAt handed B the slot's record %+v", unregister, *rec)
		}

		// Registered, B gets its own record; A still has none.
		if err := ctl.RegisterFlowID(b, 7, 0, pathB, 100); err != nil {
			t.Fatal(err)
		}
		rec, ok := ctl.Flow(b)
		if !ok || rec.Flow != b || rec.Src != 7 || rec.Version != 1 {
			t.Errorf("unregister=%v: B's record %+v, %v", unregister, rec, ok)
		}
		if _, ok := ctl.Flow(a); ok {
			t.Errorf("unregister=%v: A found a record after B took its slot", unregister)
		}
		if _, ok := ctl.FlowAt(slotA, a); ok {
			t.Errorf("unregister=%v: FlowAt answered for A in B's slot", unregister)
		}
	}
}
