package soak

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"p4update/internal/topo"
	"p4update/internal/traffic"
	"p4update/internal/wiring"
)

// quietHarness wires a p4update harness on g whose workload admits no
// arrival of its own: tests drive onArrival by hand.
func quietHarness(tb testing.TB, g *topo.Topology, grace time.Duration) *Harness {
	tb.Helper()
	sys := wiring.New(g, wiring.Config{
		Seed:             1,
		System:           "p4update",
		MaxEvents:        5_000_000,
		BaseInstallDelay: time.Millisecond,
		CtrlProcDelay:    500 * time.Microsecond,
	})
	opt := Options{ArrivalRate: 1, MeanLifetime: time.Second, Duration: time.Nanosecond, EdgeOnly: true, RetireGrace: grace}
	w, err := NewWorkload(g, 1, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return NewHarness(sys, g, w, opt)
}

// warmK16 builds a harness on a jittered fat-tree K=16 holding 11,000
// long-lived flows (the churn-k16 live population) and returns it with
// the edge pairs arrivalCycle draws from, each already cycled once so
// its link lists and path trees are warm.
func warmK16(tb testing.TB) (*Harness, [][2]topo.NodeID) {
	tb.Helper()
	g := topo.FatTree(16)
	traffic.JitterLatencies(g, 1, 0.2)
	h := quietHarness(tb, g, 0)
	edges := topo.EdgeSwitches(g)
	rng := rand.New(rand.NewSource(1))
	pair := func() [2]topo.NodeID {
		s, d := edges[rng.Intn(len(edges))], edges[rng.Intn(len(edges))]
		for d == s {
			d = edges[rng.Intn(len(edges))]
		}
		return [2]topo.NodeID{s, d}
	}
	for i := 0; i < 11_000; i++ {
		p := pair()
		a := traffic.ChurnArrival{Src: p[0], Dst: p[1], Salt: uint16(i), Lifetime: time.Hour}
		if h.lookup(a.ID()) != nil {
			continue // a hash collision with a live flow
		}
		h.onArrival(a)
	}
	pairs := make([][2]topo.NodeID, 64)
	for i := range pairs {
		pairs[i] = pair()
	}
	for i := range pairs {
		arrivalCycle(tb, h, pairs, i)
	}
	return h, pairs
}

// arrivalCycle admits one short-lived flow between pairs[k%len] and runs
// the engine until the harness has retired it.
func arrivalCycle(tb testing.TB, h *Harness, pairs [][2]topo.NodeID, k int) {
	p := pairs[k%len(pairs)]
	now := h.sys.Eng.Now()
	a := traffic.ChurnArrival{At: now, Src: p[0], Dst: p[1], Salt: 1 << 15, Lifetime: time.Microsecond}
	retired := h.c.Retired
	h.onArrival(a)
	h.sys.Eng.RunUntil(now + time.Microsecond)
	if h.c.Retired != retired+1 {
		tb.Fatalf("cycle %d: flow %d not retired", k, a.ID())
	}
}

// TestArrivalRetireAllocations pins one arrival → departure → retire
// cycle on a warmed fat-tree K=16 harness to one allocation, the path
// ShortestPath returns: the flow's harness record, its Flow-DB record,
// its switch state and its link-index entries all sit in storage
// recycled with its data-plane slot.
func TestArrivalRetireAllocations(t *testing.T) {
	h, pairs := warmK16(t)
	live := h.LiveFlows()
	k := 0
	if a := testing.AllocsPerRun(200, func() {
		arrivalCycle(t, h, pairs, k)
		k++
	}); a > 1 {
		t.Fatalf("one arrival-departure-retire cycle allocates %v times, want ≤ 1 (the path)", a)
	}
	if h.LiveFlows() != live {
		t.Fatalf("live flows %d after the cycles, want %d", h.LiveFlows(), live)
	}
}

// BenchmarkArrivalRetire admits, departs and retires one flow per op on
// a fat-tree K=16 harness holding 11,000 live flows: the path query,
// RegisterFlowID, the flow-table and link-index entries, the departure
// timer, UnregisterFlow and RetireFlow.
func BenchmarkArrivalRetire(b *testing.B) {
	h, pairs := warmK16(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrivalCycle(b, h, pairs, i)
	}
}

// TestSlotReuseIgnoresPreviousTenantTimers: a flow's harness record is
// recycled with its data-plane slot, and a departure or retire timer the
// previous tenant left pending must do nothing to the next one.
func TestSlotReuseIgnoresPreviousTenantTimers(t *testing.T) {
	g := topo.FatTree(4)
	const grace = 50 * time.Millisecond
	h := quietHarness(t, g, grace)
	e := topo.EdgeSwitches(g)
	ctl, eng := h.sys.Ctl, h.sys.Eng

	// admit registers a flow and checks it took the given slot (-1: any).
	admit := func(src, dst topo.NodeID, life time.Duration, slot int32) traffic.ChurnArrival {
		t.Helper()
		a := traffic.ChurnArrival{At: eng.Now(), Src: src, Dst: dst, Lifetime: life}
		h.onArrival(a)
		if i, _ := h.sys.Net.FlowSlot(a.ID()); slot >= 0 && i != slot {
			t.Fatalf("flow %d took slot %d, want the recycled slot %d", a.ID(), i, slot)
		}
		return a
	}
	// holds checks that a is live in the harness and the Flow DB.
	holds := func(a traffic.ChurnArrival, what string) {
		t.Helper()
		cf := h.lookup(a.ID())
		if cf == nil || cf.departed {
			t.Fatalf("%s: flow %d is gone or departed (record %+v)", what, a.ID(), cf)
		}
		rec, ok := ctl.Flow(a.ID())
		if !ok || rec.Flow != a.ID() || rec.Src != a.Src || rec.Dst != a.Dst {
			t.Fatalf("%s: Flow DB answers %+v, %v for flow %d", what, rec, ok, a.ID())
		}
	}

	// A departure timer pending for A.
	a := admit(e[0], e[1], 100*time.Millisecond, -1)
	slot, _ := h.sys.Net.FlowSlot(a.ID())
	h.retire(h.lookup(a.ID()))
	b := admit(e[2], e[3], time.Hour, slot)
	if _, ok := ctl.Flow(a.ID()); ok {
		t.Fatal("the Flow DB still answers for retired flow A")
	}
	eng.RunUntil(200 * time.Millisecond)
	holds(b, "after A's departure time")
	if h.c.Departures != 0 {
		t.Fatalf("%d departures, want 0", h.c.Departures)
	}

	// A retire timer pending for B: B departs mid-update, so its
	// completion schedules teardown after the grace.
	cf := h.lookup(b.ID())
	var alt []topo.NodeID
	for _, p := range g.KShortestPaths(b.Src, b.Dst, 4, topo.ByHops) {
		if !slices.Equal(p, cf.path) {
			alt = p
			break
		}
	}
	if alt == nil {
		t.Fatal("no alternative path")
	}
	u, err := h.sys.Trigger(b.ID(), alt)
	if err != nil {
		t.Fatal(err)
	}
	cf.updating, cf.u = true, u
	h.onDeparture(cf)
	for !u.Done() && eng.Step() {
	}
	if !u.Done() || !cf.live {
		t.Fatalf("B's update done=%v, B live=%v: want a confirmed update awaiting its retire", u.Done(), cf.live)
	}
	h.retire(cf) // B leaves early; its retire timer is still pending
	c := admit(e[4], e[5], time.Hour, slot)
	eng.RunUntil(eng.Now() + 2*grace)
	holds(c, "after B's retire grace")
	if got := h.c.Retired; got != 2 {
		t.Fatalf("%d retirements, want 2 (A and B)", got)
	}
}
