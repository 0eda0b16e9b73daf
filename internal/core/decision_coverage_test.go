package core_test

import (
	"testing"

	"p4update/internal/core"
	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

// TestDecisionCoverage drives every verification decision code of the
// flight recorder's decision log (trace.CoreCodes) and fails naming any
// code no scenario emitted. Two organic end-to-end updates cover the
// common paths; the crafted scenarios pin each remaining branch by
// feeding hand-built UIMs/UNMs straight into the protocol handlers with
// the register state set up to select exactly that branch.
func TestDecisionCoverage(t *testing.T) {
	var recs []*trace.Recorder

	// traced builds a recorded testbed on the Fig-1 topology.
	traced := func(proto *core.Protocol) (*testbed, *trace.Recorder) {
		tb := newTestbed(topo.Synthetic(), 1, proto)
		rec := trace.New(trace.Options{})
		rec.Clock = tb.eng.Now
		tb.eng.Trace = rec
		recs = append(recs, rec)
		return tb, rec
	}

	// Organic coverage: a full single-layer and a full dual-layer update
	// on the Fig-1 scenario (egress apply, SL apply, DL segment/gateway
	// applies, inheritance, dependency waits).
	for _, ut := range []packet.UpdateType{packet.UpdateSingle, packet.UpdateDual} {
		tb, _ := traced(&core.Protocol{})
		oldP, newP := topo.SyntheticPaths()
		f, err := tb.ctl.RegisterFlow(0, 7, oldP, 1000)
		if err != nil {
			t.Fatal(err)
		}
		u, err := tb.ctl.TriggerUpdate(f, newP, forceType(ut))
		if err != nil {
			t.Fatal(err)
		}
		tb.eng.Run()
		if !u.Done() {
			t.Fatalf("organic %v update did not complete", ut)
		}
	}

	// Crafted scenarios. Each runs on a fresh testbed and calls the
	// handlers directly on node v2; the engine is never run, so the
	// verdicts observed are exactly the synchronous decisions.
	const f = packet.FlowID(42)
	g := topo.Synthetic()
	pDown := g.PortTo(2, 7)  // v2's old-path downstream port
	pDown2 := g.PortTo(2, 3) // an alternative downstream port
	pIn := g.PortTo(2, 4)    // the port a UNM would arrive on

	// uim builds an indication for v2 with the given labels.
	uim := func(ver uint32, nd uint16, egress topo.PortID, sizeK uint32, ut packet.UpdateType, role packet.Role) *packet.UIM {
		return &packet.UIM{
			Flow: f, Version: ver, NewDistance: nd,
			EgressPort: uint16(int32(egress)), ChildPort: packet.NoPort,
			FlowSizeK: sizeK, UpdateType: ut, Role: role,
		}
	}
	// unm builds a notification as v2's downstream parent would send it.
	unm := func(vn uint32, dn uint16, vo uint32, do uint16, counter uint16, ut packet.UpdateType) *packet.UNM {
		return &packet.UNM{Flow: f, UpdateType: ut, Vn: vn, Dn: dn, Vo: vo, Do: do, Counter: counter}
	}

	type scenario struct {
		name  string
		proto *core.Protocol
		want  trace.Code
		run   func(p *core.Protocol, sw *dataplane.Switch)
	}
	scenarios := []scenario{
		{
			name: "wait-uim", want: trace.CodeWaitUIM,
			run: func(p *core.Protocol, sw *dataplane.Switch) {
				// Notification ahead of any indication: park (Alg. 1 l. 10).
				p.HandleUNM(sw, unm(2, 2, 1, 3, 0, packet.UpdateSingle), pIn)
			},
		},
		{
			name: "reject-outdated", want: trace.CodeRejectOutdated,
			run: func(p *core.Protocol, sw *dataplane.Switch) {
				p.HandleUIM(sw, uim(3, 3, pDown, 1000, packet.UpdateSingle, 0))
				p.HandleUNM(sw, unm(2, 2, 1, 3, 0, packet.UpdateSingle), pIn)
			},
		},
		{
			name: "duplicate", want: trace.CodeDuplicate,
			run: func(p *core.Protocol, sw *dataplane.Switch) {
				// Already running the notified version: the echo is noise.
				st := sw.State(f)
				st.HasRule, st.NewVersion, st.EgressPort = true, 2, pDown
				p.HandleUIM(sw, uim(2, 3, pDown, 1000, packet.UpdateSingle, 0))
				p.HandleUNM(sw, unm(2, 2, 1, 3, 0, packet.UpdateSingle), pIn)
			},
		},
		{
			name: "reject-distance", want: trace.CodeRejectDistance,
			run: func(p *core.Protocol, sw *dataplane.Switch) {
				// Dn(UIM)=5 but Dn(UNM)+1=3: inconsistent labels.
				p.HandleUIM(sw, uim(2, 5, pDown, 1000, packet.UpdateSingle, 0))
				p.HandleUNM(sw, unm(2, 2, 1, 3, 0, packet.UpdateSingle), pIn)
			},
		},
		{
			name: "reject-flow-size", want: trace.CodeRejectFlowSize,
			proto: &core.Protocol{Congestion: true},
			run: func(p *core.Protocol, sw *dataplane.Switch) {
				// §A.2: the size bound is immutable; a mismatch is reported.
				st := sw.State(f)
				st.HasRule, st.NewVersion, st.EgressPort, st.FlowSizeK = true, 1, pDown, 1000
				p.HandleUIM(sw, uim(2, 3, pDown, 500, packet.UpdateSingle, 0))
			},
		},
		{
			name: "apply-egress", want: trace.CodeApplyEgress,
			run: func(p *core.Protocol, sw *dataplane.Switch) {
				p.HandleUIM(sw, uim(2, 0, dataplane.PortLocal, 1000, packet.UpdateSingle, packet.RoleEgress))
			},
		},
		{
			name: "apply-sl", want: trace.CodeApplySL,
			run: func(p *core.Protocol, sw *dataplane.Switch) {
				p.HandleUIM(sw, uim(2, 3, pDown, 1000, packet.UpdateSingle, 0))
				p.HandleUNM(sw, unm(2, 2, 1, 3, 0, packet.UpdateSingle), pIn)
			},
		},
		{
			name: "apply-dl-segment", want: trace.CodeApplyDLSegment,
			run: func(p *core.Protocol, sw *dataplane.Switch) {
				// Fresh node inside a segment inherits the parent's Do.
				p.HandleUIM(sw, uim(2, 3, pDown, 1000, packet.UpdateDual, 0))
				p.HandleUNM(sw, unm(2, 2, 1, 4, 0, packet.UpdateDual), pIn)
			},
		},
		{
			name: "apply-dl-gateway", want: trace.CodeApplyDLGateway,
			run: func(p *core.Protocol, sw *dataplane.Switch) {
				// Gateway one version behind; segment-ID gate 6 > 4 passes.
				st := sw.State(f)
				st.HasRule, st.NewVersion, st.NewDistance = true, 1, 6
				st.EgressPort, st.LastType = pDown, packet.UpdateSingle
				p.HandleUIM(sw, uim(2, 3, pDown2, 1000, packet.UpdateDual, 0))
				p.HandleUNM(sw, unm(2, 2, 1, 4, 0, packet.UpdateDual), pIn)
			},
		},
		{
			name: "wait-dependency", want: trace.CodeWaitDependency,
			run: func(p *core.Protocol, sw *dataplane.Switch) {
				// Same gateway but the proposed segment ID 7 is not smaller
				// than the node's distance 6: the move could close a loop.
				st := sw.State(f)
				st.HasRule, st.NewVersion, st.NewDistance = true, 1, 6
				st.EgressPort, st.LastType = pDown, packet.UpdateSingle
				p.HandleUIM(sw, uim(2, 3, pDown2, 1000, packet.UpdateDual, 0))
				p.HandleUNM(sw, unm(2, 2, 1, 7, 0, packet.UpdateDual), pIn)
			},
		},
		{
			name: "inherit-distance", want: trace.CodeInherit,
			run: func(p *core.Protocol, sw *dataplane.Switch) {
				// Already updated; the notification carries a smaller Do.
				st := sw.State(f)
				st.HasRule, st.NewVersion, st.OldVersion = true, 2, 1
				st.NewDistance, st.OldDistance, st.EgressPort = 3, 5, pDown
				p.HandleUIM(sw, uim(2, 3, pDown, 1000, packet.UpdateDual, 0))
				p.HandleUNM(sw, unm(2, 2, 1, 4, 0, packet.UpdateDual), pIn)
			},
		},
		{
			name: "inherit-counter", want: trace.CodeInheritCounter,
			run: func(p *core.Protocol, sw *dataplane.Switch) {
				// Equal Do; the hop counter breaks the symmetry (Alg. 2).
				st := sw.State(f)
				st.HasRule, st.NewVersion, st.OldVersion = true, 2, 1
				st.NewDistance, st.OldDistance, st.Counter, st.EgressPort = 3, 4, 3, pDown
				p.HandleUIM(sw, uim(2, 3, pDown, 1000, packet.UpdateDual, 0))
				p.HandleUNM(sw, unm(2, 2, 1, 4, 1, packet.UpdateDual), pIn)
			},
		},
		{
			name: "capacity-block", want: trace.CodeCapacityBlock,
			proto: &core.Protocol{Congestion: true},
			run: func(p *core.Protocol, sw *dataplane.Switch) {
				// The verified move wants more capacity than the link has.
				p.HandleUIM(sw, uim(2, 3, pDown, 1<<31, packet.UpdateSingle, 0))
				p.HandleUNM(sw, unm(2, 2, 1, 3, 0, packet.UpdateSingle), pIn)
			},
		},
		{
			name: "priority-yield", want: trace.CodePriorityYield,
			proto: &core.Protocol{Congestion: true},
			run: func(p *core.Protocol, sw *dataplane.Switch) {
				// Capacity suffices, but a high-priority flow is already
				// waiting on the link: the low-priority move yields.
				sw.MarkHighWaiting(pDown, f+1)
				p.HandleUIM(sw, uim(2, 3, pDown, 10, packet.UpdateSingle, 0))
				p.HandleUNM(sw, unm(2, 2, 1, 3, 0, packet.UpdateSingle), pIn)
			},
		},
		{
			name: "priority-promote", want: trace.CodePriorityPromote,
			proto: &core.Protocol{Congestion: true},
			run: func(p *core.Protocol, sw *dataplane.Switch) {
				// Another flow is parked on the link this flow occupies:
				// moving away frees it, so the mover turns high priority.
				st := sw.State(f)
				st.HasRule, st.NewVersion, st.EgressPort, st.FlowSizeK = true, 1, pDown, 10
				sw.ParkOnCapacity(pDown, &packet.UNM{Flow: f + 1, Vn: 2}, pIn)
				p.HandleUIM(sw, uim(2, 3, pDown2, 10, packet.UpdateSingle, 0))
				p.HandleUNM(sw, unm(2, 2, 1, 3, 0, packet.UpdateSingle), pIn)
			},
		},
	}

	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			proto := sc.proto
			if proto == nil {
				proto = &core.Protocol{}
			}
			tb, rec := traced(proto)
			sc.run(proto, tb.net.Switch(2))
			if got := rec.Summarize().ByClass["verdict:"+sc.want.String()]; got == 0 {
				t.Errorf("scenario %q did not emit verdict %s",
					sc.name, trace.ClassLabel(trace.KindVerdict, uint8(sc.want)))
			}
		})
	}

	// The lock: every core decision code must have been recorded by at
	// least one scenario above.
	for _, code := range trace.CoreCodes() {
		var n uint64
		for _, rec := range recs {
			n += rec.Summarize().ByClass["verdict:"+code.String()]
		}
		if n == 0 {
			t.Errorf("decision code %q has no covering scenario",
				trace.ClassLabel(trace.KindVerdict, uint8(code)))
		}
	}
}
