package core_test

import (
	"math/rand"
	"testing"
	"time"

	"p4update/internal/core"
	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/traffic"
)

func TestChainedDualLayerUpdates(t *testing.T) {
	// Appendix C: consecutive dual-layer updates. The base algorithm
	// requires a single-layer update in between; with the extension the
	// second DL update converges directly.
	run := func(allowChained bool) (doneV2, doneV3 bool) {
		g := topo.Synthetic()
		tb := newTestbed(g, 51, &core.Protocol{AllowChainedDL: allowChained})
		oldP, newP := topo.SyntheticPaths()
		f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
		u2, err := tb.ctl.TriggerUpdate(f, newP, forceType(packet.UpdateDual))
		if err != nil {
			t.Fatal(err)
		}
		tb.eng.Run()
		// Second DL update: back to the short path (this segmentation
		// contains the backward segment {4,...,2} w.r.t. the long path).
		u3, err := tb.ctl.TriggerUpdate(f, oldP, forceType(packet.UpdateDual))
		if err != nil {
			t.Fatal(err)
		}
		tb.eng.Run()
		return u2.Done(), u3.Done()
	}

	d2, d3 := run(false)
	if !d2 {
		t.Fatal("first DL update failed even without chaining")
	}
	if d3 {
		t.Error("base algorithm completed a chained DL update (should stall at gateways)")
	}
	d2, d3 = run(true)
	if !d2 || !d3 {
		t.Fatalf("extension: v2 done=%v v3 done=%v, want both", d2, d3)
	}
}

func TestChainedDLInvariantHeld(t *testing.T) {
	g := topo.Synthetic()
	tb := newTestbed(g, 52, &core.Protocol{AllowChainedDL: true})
	oldP, newP := topo.SyntheticPaths()
	f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
	if _, err := tb.ctl.TriggerUpdate(f, newP, forceType(packet.UpdateDual)); err != nil {
		t.Fatal(err)
	}
	// Fire the second DL update while the first is still in flight.
	tb.eng.Schedule(100*time.Millisecond, func() {
		if _, err := tb.ctl.TriggerUpdate(f, []topo.NodeID{0, 4, 2, 7}, forceType(packet.UpdateDual)); err != nil {
			t.Error(err)
		}
	})
	stepAndCheck(t, tb, f, 0)
	u, ok := tb.ctl.Status(f, 3)
	if !ok || !u.Done() {
		t.Fatal("overlapping chained DL update did not converge")
	}
}

func TestMultiFlowInvariantStepping(t *testing.T) {
	// System-level property: under the Fig-7d workload (congestion
	// freedom, gravity traffic), every flow's forwarding stays loop- and
	// blackhole-free after every single event.
	g := topo.B4()
	cfg := struct{ seed int64 }{seed: 61}
	tb := newTestbed(g, cfg.seed, &core.Protocol{Congestion: true})
	rng := rand.New(rand.NewSource(cfg.seed))
	flows, err := traffic.MultiFlowWorkload(g, rng, traffic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range flows {
		if _, err := tb.ctl.RegisterFlow(fs.Src, fs.Dst, fs.Old, fs.SizeK); err != nil {
			t.Fatal(err)
		}
	}
	for _, fs := range flows {
		if _, err := tb.ctl.TriggerUpdate(fs.ID(), fs.New, nil); err != nil {
			t.Fatal(err)
		}
	}
	limit := g.NumNodes() + 2
	for tb.eng.Step() {
		for _, fs := range flows {
			visited, delivered := tb.net.TracePath(fs.ID(), fs.Src, limit)
			seen := map[topo.NodeID]bool{}
			for _, n := range visited {
				if seen[n] {
					t.Fatalf("flow %d->%d loops: %v", fs.Src, fs.Dst, visited)
				}
				seen[n] = true
			}
			if !delivered {
				t.Fatalf("flow %d->%d blackholed: %v", fs.Src, fs.Dst, visited)
			}
		}
		// Capacity safety across all switches.
		for _, sw := range tb.net.Switches() {
			for p := topo.PortID(0); int(p) < g.Degree(sw.ID); p++ {
				if sw.ReservedK(p) > sw.CapacityK(p) {
					t.Fatalf("node %d port %d over capacity", sw.ID, p)
				}
			}
		}
		if tb.eng.Steps() > 500_000 {
			t.Fatal("runaway")
		}
	}
	for _, fs := range flows {
		u, ok := tb.ctl.Status(fs.ID(), 2)
		if !ok || !u.Done() {
			t.Errorf("flow %d->%d update incomplete", fs.Src, fs.Dst)
		}
	}
}

// unmSniffer records every UNM put on the wire and faults nothing.
type unmSniffer []unmObs

type unmObs struct {
	from, to topo.NodeID
	m        packet.UNM
}

func (s *unmSniffer) Inspect(_ dataplane.FaultClass, from, to topo.NodeID, raw []byte) ([]byte, dataplane.FaultAction) {
	if m, err := packet.Decode(raw); err == nil {
		if u, ok := m.(*packet.UNM); ok {
			*s = append(*s, unmObs{from, to, *u})
		}
	}
	return raw, dataplane.FaultAction{}
}

func TestEmittedUNMSemantics(t *testing.T) {
	// The coordination contract of §7.2/§B, checked on the wire: after
	// the egress applies, its notification carries Vn=version, Dn=0 and
	// Do=0 (segment ID zero); after an interior node applies, its
	// notification carries the inherited Do and an incremented counter.
	g := topo.Synthetic()
	tb := newTestbed(g, 71, &core.Protocol{})
	oldP, newP := topo.SyntheticPaths()
	f, _ := tb.ctl.RegisterFlow(0, 7, oldP, 1000)

	var unms unmSniffer
	tb.net.Faults = &unms
	u, err := tb.ctl.TriggerUpdate(f, newP, forceType(packet.UpdateDual))
	if err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	if !u.Done() {
		t.Fatal("update did not complete")
	}
	var sawEgress, sawInherit bool
	for _, o := range unms {
		if o.m.Vn != 2 {
			t.Fatalf("UNM with wrong version: %+v", o.m)
		}
		if o.from == 7 {
			if o.m.Dn != 0 || o.m.Do != 0 {
				t.Errorf("egress UNM labels: %+v", o.m)
			}
			sawEgress = true
		}
		if o.from == 6 && o.m.Do == 0 && o.m.Counter == 1 {
			sawInherit = true // v6 inherited Do=0 from v7 and counted one hop
		}
	}
	if !sawEgress || !sawInherit {
		t.Errorf("missing expected notifications: egress=%v inherit=%v (total %d)",
			sawEgress, sawInherit, len(unms))
	}

	// Table-1 register effects at a gateway: v4 must hold the inherited
	// segment ID 0 and last update type DL.
	st, _ := tb.net.Switch(4).PeekState(f)
	if st.OldDistance != 0 || st.LastType != packet.UpdateDual {
		t.Errorf("gateway registers: oldDist=%d lastType=%v", st.OldDistance, st.LastType)
	}
	_ = dataplane.FreshDistance
}
