package wiring

import (
	"runtime"
	"testing"
	"time"

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
	wantPrimary := []string{"p4update", "ez-segway", "central", "local-verify", "ppcu", "opt-oracle"}
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

// TestP4UpdateUpdatePathAllocations pins the update path's allocation
// budget: a flow flips between the two rails of a ladder, single-layer
// updates each way. Once the plan cache holds the plans, an update —
// indications out, verification, staged commits, notifications, probe,
// feedback, cleanup — allocates its UpdateStatus and that record's
// pending set, plus a share of the record slabs and engine queue warming
// up and of the controller's update map growing: 2.3 in all (3.3 under
// the race detector), against 36 when indications, commits, parks and
// frames each took an allocation.
func TestP4UpdateUpdatePathAllocations(t *testing.T) {
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
	plans := plancache.New(g)
	const updates = 200
	perUpdate := func() float64 {
		sys := New(g, Config{Seed: 1, System: "p4update-sl", MaxEvents: 5_000_000, Plans: plans})
		const f = packet.FlowID(77)
		if err := sys.Ctl.RegisterFlowID(f, src, dst, rails[0], 1); err != nil {
			t.Fatal(err)
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
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / updates
	}
	perUpdate() // fills the plan cache for every version the second run asks for
	if got := perUpdate(); got > 4 {
		t.Errorf("a P4Update reroute allocates %.2f times, want at most 4", got)
	}
}
