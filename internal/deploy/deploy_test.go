package deploy

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"p4update/internal/packet"
	"p4update/internal/replaydiff"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

// testScenario tightens the default scenario's timers so the crash
// test's controller outage comfortably covers the whole install chain.
func testScenario() Scenario {
	scn := Fig2Scenario()
	scn.InstallDelay = 40 * time.Millisecond
	scn.WatchdogTimeout = 3 * time.Second
	scn.ProbeTimeout = 3 * time.Second
	return scn
}

const testRTO = 30 * time.Millisecond

// fabric is an in-process deployment: every daemon runs in this test
// binary, talking real UDP over the loopback interface.
type fabric struct {
	t         *testing.T
	scn       Scenario
	dir       string
	peers     map[int32]string
	ctlPort   int
	switches  []*SwitchDaemon
	delivered chan packet.Data
}

func startFabric(t *testing.T, scn Scenario) *fabric {
	t.Helper()
	g, err := scn.Topology()
	if err != nil {
		t.Fatal(err)
	}
	fb := &fabric{
		t:         t,
		scn:       scn,
		dir:       t.TempDir(),
		peers:     make(map[int32]string),
		delivered: make(chan packet.Data, 64),
	}
	ctlConn, err := ListenLocal(0)
	if err != nil {
		t.Fatal(err)
	}
	fb.ctlPort = ctlConn.LocalAddr().(*net.UDPAddr).Port
	fb.peers[-1] = ctlConn.LocalAddr().String()
	ctlConn.Close() // the controller rebinds this port when started

	n := g.NumNodes()
	conns := make([]*net.UDPConn, n)
	for i := 0; i < n; i++ {
		c, err := ListenLocal(0)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		fb.peers[int32(i)] = c.LocalAddr().String()
	}
	egress := scn.NewPath[len(scn.NewPath)-1]
	for i := 0; i < n; i++ {
		cfg := SwitchConfig{
			Node:      topo.NodeID(i),
			Scn:       scn,
			Conn:      conns[i],
			Peers:     fb.peers,
			StateFile: filepath.Join(fb.dir, fmt.Sprintf("sw%d.json", i)),
			RTO:       testRTO,
		}
		if topo.NodeID(i) == egress {
			cfg.OnDeliver = func(d *packet.Data) {
				select {
				case fb.delivered <- *d:
				default:
				}
			}
		}
		sd, err := NewSwitch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sd.Start()
		t.Cleanup(sd.Stop)
		fb.switches = append(fb.switches, sd)
	}
	return fb
}

// startController (re)binds the conventional controller port and
// launches a controller incarnation over the shared state file.
func (fb *fabric) startController() *ControllerDaemon {
	fb.t.Helper()
	conn, err := ListenLocal(fb.ctlPort)
	if err != nil {
		fb.t.Fatal(err)
	}
	d, err := NewControllerDaemon(ControllerConfig{
		Scn:       fb.scn,
		Conn:      conn,
		Peers:     fb.peers,
		StateFile: filepath.Join(fb.dir, "controller.json"),
		RTO:       testRTO,
	})
	if err != nil {
		fb.t.Fatal(err)
	}
	d.Start()
	fb.t.Cleanup(d.Stop)
	return d
}

func waitCh(t *testing.T, ch <-chan struct{}, d time.Duration, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(d):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// collectLog dumps a daemon's flight recording and canonicalizes the
// events it owns.
func collectLog(t *testing.T, dump func(w io.Writer) error, node int32) *replaydiff.Log {
	t.Helper()
	var buf bytes.Buffer
	if err := dump(&buf); err != nil {
		t.Fatal(err)
	}
	evs, err := trace.ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return replaydiff.Canonicalize(replaydiff.OwnedBy(evs, node))
}

// TestControllerCrashMidUpdate is the daemon-level regression for the
// paper's autonomy claim: kill controllerd right after it pushed the
// update's indications, assert the switch processes finish the update
// and keep forwarding on their own, restart the controller, and assert
// it re-syncs, confirms the update, cleans up the stale path — and that
// the whole multi-process run is decision-equivalent to the simulated
// oracle.
func TestControllerCrashMidUpdate(t *testing.T) {
	scn := testScenario()
	fb := startFabric(t, scn)
	f := scn.Flow()

	ctl1 := fb.startController()
	if ctl1.Epoch() != 1 {
		t.Fatalf("first incarnation epoch = %d, want 1", ctl1.Epoch())
	}
	waitCh(t, ctl1.Pushed(), 15*time.Second, "update push")
	ctl1.Stop() // crash: mid-update, before any switch could have confirmed

	// Outage phase: every new-path switch commits v2 with no controller.
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range scn.NewPath {
		for {
			if v, ok := fb.switches[n].FlowVersion(f); ok && v == 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d did not commit v2 during the outage", n)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// Forwarding works end to end while the controller is down.
	fb.switches[scn.NewPath[0]].Inject(&packet.Data{Flow: f, TTL: 64})
	select {
	case d := <-fb.delivered:
		if d.Flow != f {
			t.Fatalf("delivered flow %d, want %d", d.Flow, f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no end-to-end delivery during the outage")
	}

	// Restart: the new incarnation re-syncs from disk + live switch
	// state and drives the update to probe-confirmed completion.
	ctl2 := fb.startController()
	if ctl2.Epoch() != 2 {
		t.Fatalf("second incarnation epoch = %d, want 2", ctl2.Epoch())
	}
	waitCh(t, ctl2.Completed(), 15*time.Second, "update completion")

	// §11 cleanup: the node that left the path drops its stale rule.
	stale := topo.NodeID(-1)
	onNew := make(map[topo.NodeID]bool)
	for _, n := range scn.NewPath {
		onNew[n] = true
	}
	for _, n := range scn.OldPath {
		if !onNew[n] {
			stale = n
		}
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		if _, ok := fb.switches[stale].FlowVersion(f); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale node %d still holds a rule after completion", stale)
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctl2.Stop()

	// Differential check against the simulated oracle.
	golden, err := GoldenEvents(scn)
	if err != nil {
		t.Fatal(err)
	}
	want := replaydiff.Canonicalize(golden)
	if want.Len() == 0 {
		t.Fatal("oracle recorded no decisions")
	}
	logs := []*replaydiff.Log{
		collectLog(t, ctl1.WriteTrace, trace.NodeController),
		collectLog(t, ctl2.WriteTrace, trace.NodeController),
	}
	for i, sd := range fb.switches {
		logs = append(logs, collectLog(t, sd.WriteTrace, int32(i)))
	}
	got := replaydiff.Merge(logs...)
	if divs := replaydiff.Diff(got, want); len(divs) != 0 {
		t.Fatalf("deployment diverges from oracle:\n%s", replaydiff.Report(divs))
	}
	if got.Len() != want.Len() {
		t.Fatalf("merged %d decisions, oracle has %d", got.Len(), want.Len())
	}
}

// TestSwitchBootstrapFromLKG asserts a restarted switchd reinstalls its
// persisted last-known-good rules before hearing from anyone, and bumps
// its transport epoch.
func TestSwitchBootstrapFromLKG(t *testing.T) {
	scn := testScenario()
	f := scn.Flow()
	stateFile := filepath.Join(t.TempDir(), "sw0.json")
	err := saveJSON(stateFile, switchState{
		Epoch: 3,
		Rules: []lkgRule{{Flow: uint32(f), Port: 1, Version: 2, Distance: 3, SizeK: scn.SizeK}},
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := ListenLocal(0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewSwitch(SwitchConfig{
		Node: 0, Scn: scn, Conn: conn,
		Peers:     map[int32]string{-1: "127.0.0.1:9"},
		StateFile: stateFile,
		RTO:       testRTO,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Stop()
	if d.Epoch() != 4 {
		t.Errorf("epoch = %d, want 4", d.Epoch())
	}
	if v, ok := d.FlowVersion(f); !ok || v != 2 {
		t.Fatalf("restored rule = (v%d, %v), want v2 present", v, ok)
	}
	var st switchState
	if err := loadJSON(stateFile, &st); err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 4 || len(st.Rules) != 1 || st.Rules[0].Version != 2 {
		t.Fatalf("persisted state = %+v, want epoch 4 with the v2 rule", st)
	}
	// A snapshot naming a path the topology lacks is dropped.
	d.host.Do(func() {
		d.applySnapshot(packet.SnapshotFlow{Flow: f + 1, Version: 1, SizeK: scn.SizeK, Path: []uint16{0, 0}})
	})
	if _, ok := d.FlowVersion(f + 1); ok {
		t.Fatal("a snapshot with an invalid path installed a rule")
	}
}

// TestRestartedControllerResendsThroughGate: a controller restarted
// over an update no switch has acknowledged re-sends its indications
// through the §11 retrigger gate once the fabric syncs, so the resend
// spends a unit of the update's budget and leaves a controller Watchdog
// event like every other resend.
func TestRestartedControllerResendsThroughGate(t *testing.T) {
	scn := testScenario()
	f := scn.Flow()
	stateFile := filepath.Join(t.TempDir(), "controller.json")
	err := saveJSON(stateFile, ctlState{
		Epoch: 1,
		Flows: []flowSpec{{
			Flow: uint32(f), Src: int32(scn.FlowSrc), Dst: int32(scn.FlowDst),
			SizeK: scn.SizeK, Version: 1, Path: toWire(scn.OldPath),
		}},
		Update: &updateIntent{Flow: uint32(f), Version: 2, OldPath: toWire(scn.OldPath), NewPath: toWire(scn.NewPath)},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := scn.Topology()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := ListenLocal(0)
	if err != nil {
		t.Fatal(err)
	}
	peers := map[int32]string{-1: conn.LocalAddr().String()}
	for i := range g.NumNodes() {
		peers[int32(i)] = "127.0.0.1:9"
	}
	d, err := NewControllerDaemon(ControllerConfig{
		Scn: scn, Conn: conn, Peers: peers, StateFile: stateFile, RTO: testRTO,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if d.Epoch() != 2 || d.u == nil {
		t.Fatalf("epoch %d, update %v: want a restarted controller tracking the open intent", d.Epoch(), d.u)
	}
	var retriggers int
	var events []trace.Event
	d.host.Do(func() {
		d.onSynced()
		retriggers = d.u.Retriggers
		events = d.sys.Trace.Events()
	})
	if retriggers != 1 {
		t.Errorf("the restart's resend charged %d retriggers, want 1", retriggers)
	}
	var watchdogs int
	for _, ev := range events {
		if ev.Kind == trace.KindWatchdog && ev.Node == trace.NodeController &&
			ev.Flow == uint32(f) && ev.Ver == 2 && ev.A == 1 {
			watchdogs++
		}
	}
	if watchdogs != 1 {
		t.Errorf("%d controller Watchdog events for the resend of v2, want 1", watchdogs)
	}
}
