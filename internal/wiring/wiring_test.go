package wiring

import (
	"strings"
	"testing"
	"time"

	"p4update/internal/central"
	"p4update/internal/ezsegway"
	"p4update/internal/optoracle"
	"p4update/internal/ppcu"
	"p4update/internal/topo"
)

// TestNewWiresStrategySpecificControllers: every registered name builds a
// complete system, and each system's coordinator — only its own — is
// its updater. The empty name is "p4update".
func TestNewWiresStrategySpecificControllers(t *testing.T) {
	coordinators := func(s *System) map[string]bool {
		_, ez := s.Updater.(*ezsegway.Controller)
		_, co := s.Updater.(*central.Coordinator)
		_, pp := s.Updater.(*ppcu.Coordinator)
		_, oo := s.Updater.(*optoracle.Coordinator)
		return map[string]bool{"ez-segway": ez, "central": co, "ppcu": pp, "opt-oracle": oo}
	}
	for _, name := range append(AllNames(), "") {
		sys := New(topo.Synthetic(), Config{Seed: 1, System: name})
		if sys.Eng == nil || sys.Net == nil || sys.Ctl == nil || sys.Driver == nil || sys.Updater == nil {
			t.Fatalf("%q: incomplete system", name)
		}
		if name == "" {
			name = "p4update"
		}
		if sys.SystemName() != name {
			t.Errorf("SystemName() = %q, want %q", sys.SystemName(), name)
		}
		for owner, attached := range coordinators(sys) {
			if attached != (owner == name) {
				t.Errorf("%q: coordinator of %q attached = %v", name, owner, attached)
			}
		}
	}
}

// TestUnreachableSwitchPanics: on a topology in two components, some
// switch has no control channel to the controller, and both wirings
// that derive control latency from propagation — the centroid default
// and a pinned Controller — refuse it by name instead of handing that
// switch a negative latency.
func TestUnreachableSwitchPanics(t *testing.T) {
	twoComponents := func() *topo.Topology {
		g := topo.New("two-components")
		for _, name := range []string{"a", "b", "c", "d"} {
			g.AddNode(name, 0, 0)
		}
		g.AddLink(0, 1, time.Millisecond, 100)
		g.AddLink(2, 3, time.Millisecond, 100)
		return g
	}
	pinned := topo.NodeID(3)
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"centroid", Config{Seed: 1}, `switch 2 "c" unreachable from controller 0`},
		{"pinned", Config{Seed: 1, Controller: &pinned}, `switch 0 "a" unreachable from controller 3`},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Errorf("%s: panic %q, want one naming %s", c.name, msg, c.want)
				}
			}()
			New(twoComponents(), c.cfg)
		}()
	}
}

// TestTriggerCompletesUnderEveryStrategy drives one full update through
// the dispatch path of every registered system.
func TestTriggerCompletesUnderEveryStrategy(t *testing.T) {
	oldP, newP := topo.SyntheticPaths()
	for _, name := range AllNames() {
		sys := New(topo.Synthetic(), Config{
			Seed:          1,
			System:        name,
			MaxEvents:     5_000_000,
			CtrlProcDelay: 500 * time.Microsecond,
		})
		f, err := sys.Ctl.RegisterFlow(0, 7, oldP, 1000)
		if err != nil {
			t.Fatalf("%s: register: %v", name, err)
		}
		u, err := sys.Trigger(f, newP)
		if err != nil {
			t.Fatalf("%s: trigger: %v", name, err)
		}
		if u == nil {
			t.Fatalf("%s: nil status", name)
		}
		sys.Eng.Run()
		if !u.Done() {
			t.Errorf("%s: update did not complete", name)
		}
	}
}

// TestTriggerUnknownStrategyErrors: an unregistered name still wires an
// inspectable data plane, and Trigger names the systems that exist.
func TestTriggerUnknownStrategyErrors(t *testing.T) {
	sys := New(topo.Synthetic(), Config{Seed: 1, System: "no-such-system"})
	oldP, _ := topo.SyntheticPaths()
	f, err := sys.Ctl.RegisterFlow(0, 7, oldP, 1000)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Trigger(f, oldP)
	if err == nil {
		t.Fatal("unknown system name did not error")
	}
	if !strings.Contains(err.Error(), "no-such-system") || !strings.Contains(err.Error(), "ez-segway") {
		t.Errorf("error %q names neither the unknown system nor the available ones", err)
	}
}
