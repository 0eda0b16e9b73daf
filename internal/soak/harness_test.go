package soak

import (
	"testing"
	"time"

	"p4update/internal/topo"
	"p4update/internal/traffic"
	"p4update/internal/wiring"
)

// TestChurnDrainsToEmptyFabric runs a small unfaulted churn trial on a
// jittered fat-tree K=4 and lets it drain until every admitted flow has
// departed. Reroute waves move flows between paths while they live, so a
// retired flow's state sits on old-path and new-path switches; at the
// end the harness's link index must be empty, no switch may hold state
// for any flow, and the fabric's slot space must not have outgrown the
// peak live population (retired slots were recycled).
func TestChurnDrainsToEmptyFabric(t *testing.T) {
	const seed = 7
	g := topo.FatTree(4)
	traffic.JitterLatencies(g, seed, 0.2)
	sys := wiring.New(g, wiring.Config{
		Seed:             seed,
		System:           "p4update",
		MaxEvents:        5_000_000,
		BaseInstallDelay: time.Millisecond,
		CtrlProcDelay:    500 * time.Microsecond,
		CtrlQueueMean:    40 * time.Millisecond,
	})
	opt := Options{
		ArrivalRate:  2000,
		MeanLifetime: 150 * time.Millisecond,
		Duration:     time.Second,
		Drain:        4 * time.Second,
		RerouteEvery: 10 * time.Millisecond,
		EdgeOnly:     true,
		RetireGrace:  50 * time.Millisecond,
	}
	w, err := NewWorkload(g, seed, opt)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness(sys, g, w, opt)
	h.Start()
	sys.Eng.RunUntil(opt.Duration + opt.Drain)

	c := h.Counters()
	if c.Arrivals < 1000 || c.Completed == 0 {
		t.Fatalf("trial too small to mean anything: %d arrivals, %d completed reroutes", c.Arrivals, c.Completed)
	}
	if c.Retired != c.Arrivals || h.LiveFlows() != 0 {
		t.Fatalf("%d arrivals, %d retired, %d still live after the drain", c.Arrivals, c.Retired, h.LiveFlows())
	}
	for id, flows := range h.linkFlows {
		if len(flows) != 0 {
			t.Errorf("link %d still indexes %d flows", id, len(flows))
		}
	}
	for _, sw := range sys.Net.Switches() {
		if left := sw.Flows(); len(left) != 0 {
			t.Errorf("node %d still holds state for %d retired flows (first: %d)", sw.ID, len(left), left[0])
		}
		for p := 0; p < g.Degree(sw.ID); p++ {
			if r := sw.ReservedK(topo.PortID(p)); r != 0 {
				t.Errorf("node %d port %d still reserves %d kbps", sw.ID, p, r)
			}
		}
	}
	for i := int32(0); i < int32(sys.Net.NumFlowSlots()); i++ {
		if f, live := sys.Net.FlowAt(i); live {
			t.Errorf("fabric still interns live flow %d in slot %d", f, i)
		}
	}
	if slots := sys.Net.NumFlowSlots(); slots > c.PeakLive {
		t.Errorf("%d flow slots for a peak live population of %d: slots are not recycled", slots, c.PeakLive)
	}
}
