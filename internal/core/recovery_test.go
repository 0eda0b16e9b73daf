package core_test

import (
	"testing"
	"time"

	"p4update/internal/core"
	"p4update/internal/dataplane"
	"p4update/internal/faults"
	"p4update/internal/packet"
	"p4update/internal/topo"
)

// dropFirstUNM installs a fault plan dropping the first notification
// crossing from->to. The returned injector's RuleHits(0) reports
// whether the drop fired.
func dropFirstUNM(tb *testbed, from, to topo.NodeID) *faults.Injector {
	return faults.Attach(tb.net, faults.Plan{Seed: 1, Rules: []faults.Rule{
		faults.DropMatching(from, to, packet.TypeUNM, 1),
	}})
}

func TestRecoveryFromLostUNM(t *testing.T) {
	// §11 "Failures in the Update Process": a lost notification stalls
	// the chain; watchdogs report it and the controller re-triggers.
	g := topo.Synthetic()
	tb := newTestbed(g, 21, &core.Protocol{WatchdogTimeout: 500 * time.Millisecond})
	tb.ctl.MaxRetriggers = 3
	oldP, newP := topo.SyntheticPaths()
	f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
	inj := dropFirstUNM(tb, 5, 4)
	u, err := tb.ctl.TriggerUpdate(f, newP, forceType(packet.UpdateSingle))
	if err != nil {
		t.Fatal(err)
	}
	stepAndCheck(t, tb, f, 0) // the invariant must hold during recovery too
	if inj.RuleHits(0) != 1 {
		t.Fatal("drop not exercised")
	}
	if !u.Done() {
		t.Fatal("update did not recover from the lost UNM")
	}
	if u.Retriggers == 0 {
		t.Error("completion without any re-trigger — watchdog never fired?")
	}
	got, delivered := tb.net.TracePath(f, 0, 20)
	if !delivered || len(got) != len(newP) {
		t.Fatalf("final path %v, want %v", got, newP)
	}
}

func TestRecoveryDualLayer(t *testing.T) {
	g := topo.Synthetic()
	tb := newTestbed(g, 22, &core.Protocol{WatchdogTimeout: 500 * time.Millisecond})
	tb.ctl.MaxRetriggers = 3
	oldP, newP := topo.SyntheticPaths()
	f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
	inj := dropFirstUNM(tb, 6, 5)
	u, err := tb.ctl.TriggerUpdate(f, newP, forceType(packet.UpdateDual))
	if err != nil {
		t.Fatal(err)
	}
	stepAndCheck(t, tb, f, 0)
	if inj.RuleHits(0) != 1 {
		t.Fatal("drop not exercised")
	}
	if !u.Done() {
		t.Fatal("dual-layer update did not recover")
	}
}

func TestRecoveryBounded(t *testing.T) {
	// With every UNM into v4 dropped forever, recovery retries its
	// bounded number of times and then gives up; consistency holds.
	g := topo.Synthetic()
	tb := newTestbed(g, 23, &core.Protocol{WatchdogTimeout: 200 * time.Millisecond})
	tb.ctl.MaxRetriggers = 2
	oldP, newP := topo.SyntheticPaths()
	f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
	faults.Attach(tb.net, faults.Plan{Seed: 1, Rules: []faults.Rule{
		faults.DropMatching(faults.AnyNode, 4, packet.TypeUNM, 0),
	}})
	u, err := tb.ctl.TriggerUpdate(f, newP, forceType(packet.UpdateSingle))
	if err != nil {
		t.Fatal(err)
	}
	stepAndCheck(t, tb, f, 0)
	if u.Done() {
		t.Fatal("update completed despite a permanently broken link")
	}
	if u.Retriggers != 2 {
		t.Errorf("retriggers = %d, want exactly MaxRetriggers", u.Retriggers)
	}
}

func TestRecoveryFromLostControllerUIM(t *testing.T) {
	// Regression: SendToSwitch used to bypass the fault hooks entirely,
	// so a lost controller->switch indication was untestable. Drop the
	// first UIM into a mid-path node: the node never learns about the
	// update, its upstream neighbors hold their indications, their §11
	// watchdogs report the stall, and the controller re-sends the plan.
	g := topo.Synthetic()
	tb := newTestbed(g, 25, &core.Protocol{WatchdogTimeout: 500 * time.Millisecond})
	tb.ctl.MaxRetriggers = 3
	oldP, newP := topo.SyntheticPaths()
	f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
	inj := faults.Attach(tb.net, faults.Plan{Seed: 1, Rules: []faults.Rule{
		faults.DropMatching(dataplane.NodeController, newP[len(newP)/2], packet.TypeUIM, 1),
	}})
	u, err := tb.ctl.TriggerUpdate(f, newP, forceType(packet.UpdateSingle))
	if err != nil {
		t.Fatal(err)
	}
	stepAndCheck(t, tb, f, 0)
	if inj.RuleHits(0) != 1 {
		t.Fatal("UIM drop not exercised")
	}
	if !u.Done() {
		t.Fatal("update did not recover from the lost controller UIM")
	}
	if u.Retriggers == 0 {
		t.Error("completion without any re-trigger — stall never reported?")
	}
	got, delivered := tb.net.TracePath(f, 0, 20)
	if !delivered || len(got) != len(newP) {
		t.Fatalf("final path %v, want %v", got, newP)
	}
}

func TestWatchdogQuietOnSuccess(t *testing.T) {
	// A healthy update must not produce stalled reports.
	g := topo.Synthetic()
	tb := newTestbed(g, 24, &core.Protocol{WatchdogTimeout: 300 * time.Millisecond})
	tb.ctl.MaxRetriggers = 3
	oldP, newP := topo.SyntheticPaths()
	f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
	u, err := tb.ctl.TriggerUpdate(f, newP, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	if !u.Done() {
		t.Fatal("update did not complete")
	}
	if u.Retriggers != 0 {
		t.Errorf("healthy update re-triggered %d times", u.Retriggers)
	}
}

// TestWatchdogCycleAllocatesNothing: a retransmitted indication arms the
// §11 stall watchdog, which then fires, reports and re-arms until the
// per-version budget is spent. Once the watchdog record pool is warm,
// that whole cycle — eight reports, their re-arms and the final check —
// allocates nothing.
func TestWatchdogCycleAllocatesNothing(t *testing.T) {
	g := topo.Synthetic()
	p := &core.Protocol{WatchdogTimeout: 10 * time.Millisecond}
	tb := newTestbed(g, 26, p)
	oldP, newP := topo.SyntheticPaths()
	f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
	node := newP[1]
	sw := tb.net.Switch(node)
	uim := &packet.UIM{
		Flow: f, Version: 2, NewDistance: uint16(len(newP) - 2),
		EgressPort: uint16(g.PortTo(node, newP[2])), ChildPort: packet.NoPort,
		FlowSizeK: 1000, UpdateType: packet.UpdateSingle,
	}
	cycle := func() {
		p.HandleUIM(sw, uim)
		tb.eng.Run()
	}
	cycle()
	if st, _ := sw.PeekState(f); st.StallReports != 8 {
		t.Fatalf("%d stall reports for the held indication, want the default budget of 8", st.StallReports)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("an arm-and-fire cycle of the stall watchdog allocates %.2f times, want 0", allocs)
	}
}

// TestWatchdogForReRegisteredFlow: a stall watchdog armed for a flow
// that then retires fires after the FlowID was registered again, so it
// finds a state installed outside the protocol, with no update context.
// It must leave that state alone: no report, no context attached.
func TestWatchdogForReRegisteredFlow(t *testing.T) {
	g := topo.Synthetic()
	p := &core.Protocol{WatchdogTimeout: 10 * time.Millisecond}
	tb := newTestbed(g, 27, p)
	oldP, newP := topo.SyntheticPaths()
	f, err := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
	if err != nil {
		t.Fatal(err)
	}
	node := oldP[1]
	sw := tb.net.Switch(node)
	p.HandleUIM(sw, &packet.UIM{
		Flow: f, Version: 2, NewDistance: uint16(len(newP) - 2),
		EgressPort: uint16(g.PortTo(node, oldP[2])), ChildPort: packet.NoPort,
		FlowSizeK: 1000, UpdateType: packet.UpdateSingle,
	})
	tb.ctl.UnregisterFlow(f)
	tb.net.RetireFlow(f)
	if err := tb.ctl.RegisterFlowID(f, 0, 7, oldP, 1000); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	if st, ok := sw.PeekState(f); !ok || st.UpdateContext != nil {
		t.Fatalf("re-registered flow on node %d holds %+v; want registers only", node, st)
	}
	if n := tb.eng.Steps(); n != 1 {
		t.Errorf("%d events ran, want the one watchdog firing that found nothing to report", n)
	}
}
