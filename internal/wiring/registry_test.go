package wiring

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"p4update/internal/faults"
	"p4update/internal/packet"
	"p4update/internal/plancache"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

// build wires a Fig-1 testbed for the named system and registers the
// synthetic flow on its old path.
func buildNamed(t *testing.T, name string, topt *trace.Options) (*System, packet.FlowID, []topo.NodeID) {
	t.Helper()
	g := topo.Synthetic()
	sys := New(g, Config{Seed: 1, System: name, MaxEvents: 5_000_000, Trace: topt})
	oldP, newP := topo.SyntheticPaths()
	f, err := sys.Ctl.RegisterFlow(oldP[0], oldP[len(oldP)-1], oldP, 1000)
	if err != nil {
		t.Fatalf("%s: register: %v", name, err)
	}
	return sys, f, newP
}

// TestRegistryNames pins the registration order (the figures' series
// order) and the primary/variant split.
func TestRegistryNames(t *testing.T) {
	wantPrimary := []string{"p4update", "ez-segway", "central", "ppcu", "opt-oracle"}
	got := Names()
	if len(got) != len(wantPrimary) {
		t.Fatalf("Names() = %v, want %v", got, wantPrimary)
	}
	for i, n := range wantPrimary {
		if got[i] != n {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], n)
		}
	}
	all := AllNames()
	if len(all) != len(wantPrimary)+2 {
		t.Fatalf("AllNames() = %v, want primaries + 2 variants", all)
	}
	for _, v := range []string{"p4update-sl", "p4update-dl"} {
		if _, ok := Lookup(v); !ok {
			t.Fatalf("variant %q not registered", v)
		}
	}
}

// TestEveryRegisteredSystemCompletesTraced drives every registered
// system — primaries and variants — through the Fig-1 single-flow
// update with a flight recorder attached: the update must complete and
// the recorder must have captured protocol events. This is the
// registry-level analogue of the core decision-coverage test: a system
// whose handler or coordinator breaks under tracing fails here by name.
func TestEveryRegisteredSystemCompletesTraced(t *testing.T) {
	for _, name := range AllNames() {
		t.Run(name, func(t *testing.T) {
			sys, f, newP := buildNamed(t, name, &trace.Options{})
			u, err := sys.Trigger(f, newP)
			if err != nil {
				t.Fatalf("trigger: %v", err)
			}
			sys.Eng.Run()
			if u == nil || !u.Done() {
				t.Fatalf("update did not complete under %s", name)
			}
			if sys.Trace == nil || sys.Trace.Recorded() == 0 {
				t.Fatalf("%s: traced run recorded no events", name)
			}
		})
	}
}

// TestEveryRegisteredSystemZeroAllocDataPathUntraced guards the
// zero-overhead contract at the registry level: after a completed
// update, steady-state data forwarding through each system's handler
// must not allocate when no recorder is attached. The injected packet
// is reused across iterations (InjectData does not take ownership; the
// fabric forwards pooled copies).
func TestEveryRegisteredSystemZeroAllocDataPathUntraced(t *testing.T) {
	for _, name := range AllNames() {
		t.Run(name, func(t *testing.T) {
			sys, f, newP := buildNamed(t, name, nil)
			if sys.Trace != nil {
				t.Fatal("untraced system unexpectedly carries a recorder")
			}
			u, err := sys.Trigger(f, newP)
			if err != nil {
				t.Fatalf("trigger: %v", err)
			}
			sys.Eng.Run()
			if u == nil || !u.Done() {
				t.Fatalf("update did not complete under %s", name)
			}
			ingress := newP[0]
			sw := sys.Net.Switch(ingress)
			d := &packet.Data{Flow: f, TTL: 64}
			var seq uint32
			// Warm the pools and the engine's event storage before measuring.
			for i := 0; i < 64; i++ {
				seq++
				d.Flow, d.Seq, d.TTL, d.Tag = f, seq, 64, 0
				sw.InjectData(d)
				sys.Eng.Run()
			}
			allocs := testing.AllocsPerRun(500, func() {
				seq++
				d.Flow, d.Seq, d.TTL, d.Tag = f, seq, 64, 0
				sw.InjectData(d)
				sys.Eng.Run()
			})
			if allocs != 0 {
				t.Errorf("%s: untraced data path allocates %.1f/op, want 0", name, allocs)
			}
		})
	}
}

// ladder builds two disjoint four-hop rails from src (rails[r][0]) to
// dst (the last node of each rail), frozen.
func ladder() (*topo.Topology, [2][]topo.NodeID) {
	g := topo.New("ladder")
	src, dst := g.AddNode("src", 0, 0), g.AddNode("dst", 0, 0)
	rails := [2][]topo.NodeID{{src}, {src}}
	for r := range rails {
		for i := 0; i < 4; i++ {
			n := g.AddNode("", 0, 0)
			g.AddLink(rails[r][len(rails[r])-1], n, time.Millisecond, 10000)
			rails[r] = append(rails[r], n)
		}
		g.AddLink(rails[r][len(rails[r])-1], dst, time.Millisecond, 10000)
		rails[r] = append(rails[r], dst)
	}
	g.Freeze()
	return g, rails
}

// updatePathAllocs is each system's allocation budget for one reroute
// of TestUpdatePathAllocations: its reading under the race detector,
// which adds one allocation a reroute to the plain build's, rounded up.
var updatePathAllocs = map[string]float64{
	"p4update":    4,
	"p4update-sl": 4,
	"p4update-dl": 4,
	"ez-segway":   11,
	"central":     17,
	"ppcu":        19,
	"opt-oracle":  14,
}

// recoveryTally is what the §11 recovery path did over one run of
// reroutes: stall reports the controller received, and the retriggers
// and re-probes its completion watchdog and the reports spent.
type recoveryTally struct {
	stalls, retriggers, probeRetries int
}

// rerouteAllocs wires the named system on the ladder under cfg and
// flips a flow between the two rails 200 times, each reroute run to
// quiescence. It returns the allocations per reroute of a second run,
// the first having filled the plan cache for every version it asks
// for, and that run's recovery tally.
func rerouteAllocs(t *testing.T, name string, cfg Config) (float64, recoveryTally) {
	t.Helper()
	g, rails := ladder()
	src, dst := rails[0][0], rails[0][len(rails[0])-1]
	cfg.Seed, cfg.System, cfg.MaxEvents, cfg.ChainedDL = 1, name, 5_000_000, true
	cfg.Plans = plancache.New(g)
	const updates = 200
	run := func() (float64, recoveryTally) {
		sys := New(g, cfg)
		const f = packet.FlowID(77)
		if err := sys.Ctl.RegisterFlowID(f, src, dst, rails[0], 1); err != nil {
			t.Fatal(err)
		}
		var tally recoveryTally
		rx := sys.Net.ControllerRx
		sys.Net.ControllerRx = func(from topo.NodeID, raw []byte) {
			var m packet.UFM
			if len(raw) > 0 && packet.MsgType(raw[0]) == packet.TypeUFM &&
				m.DecodeFromBytes(raw) == nil && m.Status == packet.StatusStalled {
				tally.stalls++
			}
			rx(from, raw)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 1; i <= updates; i++ {
			u, err := sys.Trigger(f, rails[i%2])
			if err != nil {
				t.Fatal(err)
			}
			sys.Eng.Run()
			if !u.Done() {
				t.Fatalf("update %d did not complete", i)
			}
			tally.retriggers += u.Retriggers
			tally.probeRetries += u.ProbeRetries
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / updates, tally
	}
	run()
	return run()
}

// TestUpdatePathAllocations pins every system's update-path allocation
// budget: a flow flips between the two rails of a ladder, 200 reroutes.
// Once the plan cache holds the plans, a P4Update update — indications
// out, verification, staged commits, notifications, probe, feedback,
// cleanup — allocates its UpdateStatus and that record's pending set,
// plus a share of the record slabs and engine queue warming up and of
// the controller's update map growing: 2.3 in all (3.3 under the race
// detector), against 36 when indications, commits, parks and frames each
// took an allocation. The baselines pay for their coordinators' per-run
// maps on top.
func TestUpdatePathAllocations(t *testing.T) {
	for _, name := range AllNames() {
		t.Run(name, func(t *testing.T) {
			got, _ := rerouteAllocs(t, name, Config{})
			t.Logf("%s: %.2f allocations per reroute", name, got)
			if max := updatePathAllocs[name]; got > max {
				t.Errorf("a %s reroute allocates %.2f times, want at most %v", name, got, max)
			}
		})
	}
}

// triggerAllocs is what one Trigger call allocates in each system, in
// the plain build (raceAllocs adds the race detector's one), with the
// plan cache warm. P4Update's is its UpdateStatus and pending set; a
// round system's Trigger no longer allocates a resend closure per run.
var triggerAllocs = map[string]uint64{
	"p4update":    2,
	"p4update-sl": 2,
	"p4update-dl": 2,
	"ez-segway":   3,
	"central":     10,
	"ppcu":        13,
	"opt-oracle":  8,
}

// TestTriggerAllocations pins triggerAllocs: the median, over 200
// reroutes on the ladder, of the allocations inside Trigger alone (the
// mean adds the update map's and the event queue's amortized growth).
func TestTriggerAllocations(t *testing.T) {
	g, rails := ladder()
	src, dst := rails[0][0], rails[0][len(rails[0])-1]
	for _, name := range AllNames() {
		cfg := Config{Seed: 1, System: name, MaxEvents: 5_000_000, ChainedDL: true, Plans: plancache.New(g)}
		run := func() uint64 {
			sys := New(g, cfg)
			const f = packet.FlowID(77)
			if err := sys.Ctl.RegisterFlowID(f, src, dst, rails[0], 1); err != nil {
				t.Fatal(err)
			}
			per := make([]uint64, 0, 200)
			var m0, m1 runtime.MemStats
			for i := 1; i <= cap(per); i++ {
				runtime.ReadMemStats(&m0)
				u, err := sys.Trigger(f, rails[i%2])
				runtime.ReadMemStats(&m1)
				if err != nil {
					t.Fatal(err)
				}
				per = append(per, m1.Mallocs-m0.Mallocs)
				if sys.Eng.Run(); !u.Done() {
					t.Fatalf("%s: update %d did not complete", name, i)
				}
			}
			slices.Sort(per)
			return per[len(per)/2]
		}
		run() // fill the plan cache
		if got, want := run(), triggerAllocs[name]+raceAllocs; got > want {
			t.Errorf("a %s Trigger allocates %d times, want at most %d", name, got, want)
		}
	}
}

// recoveryPathAllocs is each system's allocation budget for one reroute
// of TestRecoveryPathAllocations, read like updatePathAllocs: the race
// detector's reading, rounded up.
var recoveryPathAllocs = map[string]float64{
	"p4update":    4,
	"p4update-sl": 4,
	"p4update-dl": 4,
	"ez-segway":   11,
	"central":     17,
	"ppcu":        19,
	"opt-oracle":  14,
}

// lossFatal names the systems without a §11 resend: a lost instruction
// or acknowledgement wedges their update for good (Central's status
// carries no Resend, ez-Segway's coordinator none at all), so
// TestRecoveryPathAllocations arms their recovery timers on a loss-free
// channel, where the watchdogs fire and find the update done.
var lossFatal = map[string]bool{"central": true, "ez-segway": true}

// TestRecoveryPathAllocations is TestUpdatePathAllocations with §11
// recovery armed: switch stall watchdogs, the controller's completion
// watchdog and its retrigger budget, on a control channel that loses a
// tenth of its frames each way. Watchdogs fire, re-arm and retrigger
// every few reroutes; the 20 ms ProbeTimeout sits just under a ladder
// update's ~20.3 ms, so the completion watchdog also re-probes. Every
// timer they arm is a bound method with a pooled or already-owned
// argument, so a P4Update reroute allocates 2.47 times here against 2.30
// without recovery (the fault injector's and the longer runs' share),
// and 18.7 with a closure per stall-watchdog arming.
func TestRecoveryPathAllocations(t *testing.T) {
	for _, name := range AllNames() {
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				WatchdogTimeout: 5 * time.Millisecond,
				ProbeTimeout:    20 * time.Millisecond,
				MaxRetriggers:   1000,
			}
			if !lossFatal[name] {
				cfg.Faults = &faults.Plan{Up: faults.Rates{Drop: 0.1}, Down: faults.Rates{Drop: 0.1}}
			}
			got, tally := rerouteAllocs(t, name, cfg)
			t.Logf("%s: %.2f allocations per reroute; %d stall reports, %d retriggers, %d re-probes",
				name, got, tally.stalls, tally.retriggers, tally.probeRetries)
			if cfg.Faults != nil && tally.retriggers == 0 {
				t.Errorf("no retrigger in 200 lossy reroutes: the controller's recovery never ran")
			}
			if strings.HasPrefix(name, "p4update") && tally.stalls == 0 {
				t.Errorf("no stall report in 200 lossy reroutes: the switch watchdogs never reported")
			}
			if max := recoveryPathAllocs[name]; got > max {
				t.Errorf("a %s reroute with recovery armed allocates %.2f times, want at most %v", name, got, max)
			}
		})
	}
}

// TestCrashBeforeCommitLosesTheInstall: a rule install still waiting out
// its delay when its switch crashes belonged to the dead incarnation.
// With no fault injector attached, the restored switch must neither
// commit it nor acknowledge it, whichever baseline staged it.
func TestCrashBeforeCommitLosesTheInstall(t *testing.T) {
	g, rails := ladder()
	src, dst := rails[0][0], rails[0][len(rails[0])-1]
	port := g.PortTo(src, rails[1][1])
	for _, name := range []string{"central", "ppcu", "opt-oracle", "ez-segway"} {
		t.Run(name, func(t *testing.T) {
			sys := New(g, Config{Seed: 1, System: name, BaseInstallDelay: 10 * time.Millisecond})
			const f = packet.FlowID(77)
			if err := sys.Ctl.RegisterFlowID(f, src, dst, rails[0], 1); err != nil {
				t.Fatal(err)
			}
			acks := 0
			rx := sys.Net.ControllerRx
			sys.Net.ControllerRx = func(from topo.NodeID, raw []byte) {
				if m, err := packet.Decode(raw); err == nil {
					if u, ok := m.(*packet.UFM); ok && u.Flow == f && u.Status == packet.StatusUpdated {
						acks++
					}
				}
				rx(from, raw)
			}
			// Version 2 moves the ingress onto the other rail. Each system
			// applies it on arrival and, at the flow ingress, acknowledges.
			sw := sys.Net.Switch(src)
			if name == "ez-segway" {
				sw.Receive(packet.Marshal(&packet.EZI{Flow: f, Version: 2, EgressPort: uint16(port),
					ChildPort: packet.NoPort, FlowSizeK: 1, Flags: packet.EZIngress}), topo.InvalidPort)
				sw.Receive(packet.Marshal(&packet.EZN{Flow: f, Version: 2}), port)
			} else {
				sw.Receive(packet.Marshal(&packet.UIM{Flow: f, Version: 2, NewDistance: 5, EgressPort: uint16(port),
					ChildPort: packet.NoPort, FlowSizeK: 1, Role: packet.RoleIngress | packet.RoleEgress}), topo.InvalidPort)
			}
			sys.Eng.RunUntil(5 * time.Millisecond)
			sw.Crash()
			sw.Restore()
			sys.Eng.Run()
			st, _ := sw.PeekState(f)
			if st.NewVersion != 1 || st.EgressPort == port || sw.Stats.RulesApplied != 0 {
				t.Errorf("the install staged before the crash committed: version %d, %d rules applied",
					st.NewVersion, sw.Stats.RulesApplied)
			}
			if acks != 0 {
				t.Errorf("%d StatusUpdated feedback left for the lost install, want none", acks)
			}
		})
	}
}
