package core

import (
	"time"

	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

// Protocol is the P4Update data-plane handler: it wires the verification
// procedures into the switch pipeline and implements the UNM coordination
// of §7.2/§B plus the congestion extension of §7.4/§A.2.
type Protocol struct {
	// Congestion enables the per-link capacity gate and the dynamic
	// inter-flow priority scheduler.
	Congestion bool
	// AllowChainedDL enables the Appendix-C extension letting dual-layer
	// updates follow dual-layer updates.
	AllowChainedDL bool
	// WatchdogTimeout, when nonzero, makes switches monitor the arrival
	// of the update for each indication they hold; if the configured
	// version has not been applied when the timer fires, the switch
	// assumes the notification was lost in transit and reports
	// StatusStalled so the controller can re-trigger (§11 "Failures in
	// the Update Process"). The watchdog re-arms after firing — a single
	// report can itself be lost on a lossy control channel — bounded by
	// maxStallReports per awaited version.
	WatchdogTimeout time.Duration

	// watchdogs recycles the records of armed stall checks, and fireFn
	// is fireWatchdog bound once: a watchdog is scheduled through
	// ScheduleArg, so arming one costs no closure.
	watchdogs []*watchdog
	fireFn    func(any)
}

// watchdog is one armed stall check: the awaited version of flow at sw.
type watchdog struct {
	sw      *dataplane.Switch
	flow    packet.FlowID
	version uint32
}

// maxStallReports bounds how many StatusStalled reports a node sends
// for one awaited version. The budget resets whenever the indication is
// retransmitted, so every controller retrigger buys a fresh round of
// local monitoring.
const maxStallReports = 8

var _ dataplane.Handler = (*Protocol)(nil)

// HandleUIM processes an Update Indication Message: it stores the highest
// indication, verifies the flow-size bound (§A.2), applies immediately at
// the flow egress, performs the dual-layer early emission at segment
// gateways, and wakes notifications parked on the indication.
func (p *Protocol) HandleUIM(sw *dataplane.Switch, m *packet.UIM) {
	st := sw.State(m.Flow)
	if st.UIM != nil && m.Version < st.UIM.Version {
		return // stale indication
	}
	if st.UIM != nil && m.Version == st.UIM.Version {
		// Same version again: either a §11 destination-tree indication
		// adding another child to the clone group, or a failure-recovery
		// retransmission. Nodes that already applied re-emit so the
		// notification chain resumes past a loss; dual-layer gateways
		// repeat their early proposal.
		p.addChild(st, m)
		switch {
		case st.HasRule && st.NewVersion == m.Version:
			p.emit(sw, m.Flow, st, st.UIM, packet.LayerIntra)
		case m.UpdateType == packet.UpdateDual && m.Role.Has(packet.RoleGateway):
			p.emit(sw, m.Flow, st, st.UIM, packet.LayerInter)
		}
		sw.WakeUIMWaiters(m.Flow)
		if p.WatchdogTimeout > 0 && (!st.HasRule || st.NewVersion < m.Version) {
			// A retransmission restarts local monitoring with a fresh
			// report budget.
			st.StallReports = 0
			p.armWatchdog(sw, m.Flow, m.Version)
		}
		return
	}
	// Flow-size verification: a flow's size bound is immutable (§A.2);
	// a mismatching indication is discarded and reported.
	if p.Congestion && st.HasRule && st.FlowSizeK != 0 &&
		m.FlowSizeK != st.FlowSizeK {
		sw.Tracer().Verdict(int32(sw.ID), trace.CodeRejectFlowSize,
			uint32(m.Flow), m.Version, uint32(m.FlowSizeK), uint32(st.FlowSizeK))
		sw.Alarm(m.Flow, m.Version, packet.ReasonFlowSize)
		return
	}
	st.Indicate(m)
	st.ChildPorts.Reset()
	p.addChild(st, m)
	if m.Version > st.IndicatedVersion {
		st.IndicatedVersion = m.Version
	}

	switch {
	case m.Role.Has(packet.RoleEgress):
		// §7.2: the egress applies directly once the indication is well
		// formed (new distance 0, newer version).
		if m.NewDistance != 0 {
			sw.Tracer().Verdict(int32(sw.ID), trace.CodeRejectDistance,
				uint32(m.Flow), m.Version, uint32(m.NewDistance), 0)
			sw.Alarm(m.Flow, m.Version, packet.ReasonDistance)
			return
		}
		sw.Tracer().Verdict(int32(sw.ID), trace.CodeApplyEgress,
			uint32(m.Flow), m.Version, 0, 0)
		p.stageApply(sw, m.Flow, st, m, Verdict{
			Decision:  DecisionApply,
			OldVer:    st.NewVersion,
			Inherited: 0, // the egress anchors segment ID 0
			Counter:   0,
			Code:      trace.CodeApplyEgress,
		})
	case m.UpdateType == packet.UpdateDual && m.Role.Has(packet.RoleGateway):
		// Dual-layer early emission: every segment egress-gateway
		// proposes its current segment ID upstream as soon as it knows
		// the new configuration, before updating itself. Forward
		// segments therefore start in parallel immediately.
		p.emit(sw, m.Flow, st, m, packet.LayerInter)
	}
	sw.WakeUIMWaiters(m.Flow)
	if p.WatchdogTimeout > 0 {
		st.StallReports = 0
		p.armWatchdog(sw, m.Flow, m.Version)
	}
}

// armWatchdog schedules one §11 stall check for (flow, version). If the
// version is still awaited when the timer fires, the node reports
// StatusStalled and re-arms — a one-shot report is not enough on a
// control channel that can also lose the report itself. The per-version
// budget (FlowState.StallReports, reset on every indication arrival)
// keeps an abandoned update from reporting forever.
func (p *Protocol) armWatchdog(sw *dataplane.Switch, flow packet.FlowID, version uint32) {
	if p.fireFn == nil {
		p.fireFn = p.fireWatchdog
	}
	var w *watchdog
	if n := len(p.watchdogs); n > 0 {
		w = p.watchdogs[n-1]
		p.watchdogs = p.watchdogs[:n-1]
	} else {
		w = new(watchdog)
	}
	*w = watchdog{sw: sw, flow: flow, version: version}
	sw.Network().Eng.ScheduleArg(p.WatchdogTimeout, p.fireFn, w)
}

// fireWatchdog runs one armed stall check and recycles its record.
func (p *Protocol) fireWatchdog(x any) {
	w := x.(*watchdog)
	sw, flow, version := w.sw, w.flow, w.version
	*w = watchdog{}
	p.watchdogs = append(p.watchdogs, w)

	cur, ok := sw.PeekState(flow)
	if !ok || cur.UpdateContext == nil {
		return // retired, and the FlowID re-registered without an update
	}
	if cur.UIM == nil || cur.UIM.Version != version ||
		(cur.HasRule && cur.NewVersion >= version) || cur.Applying {
		return // applied, superseded, or mid-install
	}
	if cur.StallReports >= maxStallReports {
		return // budget spent; controller-side recovery takes over
	}
	cur.StallReports++
	sw.Tracer().Watchdog(int32(sw.ID), uint32(flow), version,
		uint32(cur.StallReports))
	sw.SendUFM(packet.UFM{
		Flow: flow, Version: version, Status: packet.StatusStalled,
	})
	p.armWatchdog(sw, flow, version)
}

// HandleUNM processes an Update Notification Message per Alg. 1/Alg. 2.
func (p *Protocol) HandleUNM(sw *dataplane.Switch, m *packet.UNM, inPort topo.PortID) {
	st := sw.State(m.Flow)

	var v Verdict
	if m.UpdateType != packet.UpdateDual ||
		(st.UIM != nil && m.Vn == st.UIM.Version && st.UIM.UpdateType != packet.UpdateDual) {
		// Alg. 2 lines 2-3: fall back to single-layer verification when
		// either side is not dual-layer.
		v = VerifySL(st, m)
	} else {
		v = VerifyDL(st, m, p.AllowChainedDL)
	}
	sw.Tracer().Verdict(int32(sw.ID), v.Code,
		uint32(m.Flow), m.Vn, uint32(m.Dn), uint32(m.Do))

	switch v.Decision {
	case DecisionWaitUIM:
		sw.ParkOnUIM(m, inPort)
	case DecisionReject:
		sw.Alarm(m.Flow, m.Vn, v.Reason)
	case DecisionWaitDependency, DecisionDuplicate:
		// Drop. For WaitDependency the downstream gateway re-emits after
		// its own update, which re-triggers verification here.
	case DecisionInherit:
		st.OldDistance = v.Inherited
		st.Counter = v.Counter
		p.emit(sw, m.Flow, st, st.UIM, m.Layer)
	case DecisionApply:
		uim := st.UIM
		if st.Applying && st.ApplyingVersion >= uim.Version {
			// An install for this (or a newer) version is in flight. The
			// notification may still carry a smaller inherited distance,
			// so re-verify once the install commits (it will then take
			// the branch-3 inheritance path).
			sw.Tracer().Verdict(int32(sw.ID), trace.CodeWaitUIM,
				uint32(m.Flow), m.Vn, uint32(m.Dn), uint32(m.Do))
			sw.ParkOnUIM(m, inPort)
			return
		}
		if p.Congestion && !p.congestionGate(sw, m, inPort, st, uim) {
			return // parked on capacity or priority
		}
		p.stageApply(sw, m.Flow, st, uim, v)
	}
}

// Resubmit re-verifies a notification parked on an indication or on
// capacity, as if it arrived again on inPort.
func (p *Protocol) Resubmit(sw *dataplane.Switch, m packet.Message, inPort topo.PortID) {
	p.HandleUNM(sw, m.(*packet.UNM), inPort)
}

// stageApply stages the rule change (egress_port_updated) and commits it
// after the switch's install delay (CommitStaged), then runs the
// post-apply coordination. The staged record copies uim: the indication
// being installed stays fixed even if a newer one arrives meanwhile.
func (p *Protocol) stageApply(sw *dataplane.Switch, f packet.FlowID, st *dataplane.FlowState, uim *packet.UIM, v Verdict) {
	if st.Applying && st.ApplyingVersion >= uim.Version {
		return // an equal-or-newer install is already in flight
	}
	st.Applying = true
	st.ApplyingVersion = uim.Version
	st.EgressPortUpdated = dataplane.PortFromWire(uim.EgressPort)
	portChanged := !st.HasRule || st.EgressPort != st.EgressPortUpdated
	c := sw.StageCommit()
	*c = dataplane.StagedCommit{
		Flow: f, UIM: *uim,
		OldVersion: v.OldVer, Inherited: v.Inherited, Counter: v.Counter,
	}
	sw.Apply(portChanged, c)
}

// CommitStaged commits a rule staged by stageApply, re-validated by
// CommitRule against a newer version that may have won the race
// meanwhile.
func (p *Protocol) CommitStaged(sw *dataplane.Switch, c *dataplane.StagedCommit) {
	if sw.CommitRule(c.Flow, &c.UIM, c.OldVersion, c.Inherited, c.Counter) {
		p.afterApply(sw, c.Flow, sw.State(c.Flow), &c.UIM)
	} else if st := sw.State(c.Flow); st.ApplyingVersion == c.UIM.Version {
		st.Applying = false
	}
}

// afterApply notifies the child (upstream neighbor on the new path) and,
// at the flow ingress, reports completion to the controller.
func (p *Protocol) afterApply(sw *dataplane.Switch, f packet.FlowID, st *dataplane.FlowState, uim *packet.UIM) {
	p.emit(sw, f, st, uim, packet.LayerIntra)
	// Re-examine notifications that arrived while the install was in
	// flight (they may carry smaller inherited distances).
	sw.WakeUIMWaiters(f)
	if uim.Role.Has(packet.RoleIngress) {
		sw.SendUFM(packet.UFM{
			Flow: f, Version: uim.Version, Status: packet.StatusUpdated,
		})
	}
}

// addChild records the indication's child port in the version's clone
// group (destination trees deliver one indication per child).
func (p *Protocol) addChild(st *dataplane.FlowState, m *packet.UIM) {
	if port := dataplane.PortFromWire(m.ChildPort); port != dataplane.PortLocal {
		st.ChildPorts.Add(port)
	}
}

// emit clones a UNM toward the node's children on the new path (the
// clone group has one port for path flows, one per child for destination
// trees). The labels
// are positional (from the indication); the carried old distance is the
// node's effective segment ID: the inherited old distance once the node
// runs this version, its current applied distance before that (the early
// proposal of the dual-layer intuition in §3.2).
func (p *Protocol) emit(sw *dataplane.Switch, f packet.FlowID, st *dataplane.FlowState, uim *packet.UIM, layer packet.Layer) {
	children := st.ChildPorts.Ports()
	if len(children) == 0 {
		return // the ingress / a tree leaf has no children
	}
	do := st.CurrentDistance()
	vo := uim.Version - 1
	if st.HasRule && st.NewVersion == uim.Version {
		do = st.OldDistance
		if uim.UpdateType != packet.UpdateDual {
			vo = st.OldVersion
		}
	}
	for _, child := range children {
		// SendUNM serializes synchronously, so a pooled struct can be
		// recycled as soon as it returns.
		unm := sw.Pool().GetUNM()
		*unm = packet.UNM{
			Flow:       f,
			Layer:      layer,
			UpdateType: uim.UpdateType,
			Vn:         uim.Version,
			Dn:         uim.NewDistance,
			Vo:         vo,
			Do:         do,
			Counter:    st.Counter,
		}
		sw.SendUNM(child, unm)
		sw.Pool().PutUNM(unm)
	}
}

// congestionGate implements the local capacity check of §A.2 and the
// dynamic priority scheduler of §7.4. It returns true when the move may
// proceed; otherwise the notification is parked and false returned.
func (p *Protocol) congestionGate(sw *dataplane.Switch, m *packet.UNM, inPort topo.PortID, st *dataplane.FlowState, uim *packet.UIM) bool {
	newPort := dataplane.PortFromWire(uim.EgressPort)
	if newPort == dataplane.PortLocal {
		return true // egress needs no outgoing capacity
	}
	if st.HasRule && st.EgressPort == newPort && st.FlowSizeK >= uim.FlowSizeK {
		return true // capacity already allocated on the same link
	}
	// Dynamic priority (§7.4): if another flow is blocked waiting for the
	// capacity this flow currently occupies, this flow's move is what
	// frees it — it becomes high priority.
	if st.HasRule && sw.HasCapacityWaiters(st.EgressPort) {
		if st.Priority != dataplane.PriorityHigh {
			sw.Tracer().Verdict(int32(sw.ID), trace.CodePriorityPromote,
				uint32(m.Flow), m.Vn, uint32(int32(st.EgressPort)), uint32(int32(newPort)))
		}
		st.Priority = dataplane.PriorityHigh
	}
	if sw.RemainingK(newPort) < uint64(uim.FlowSizeK) {
		// Insufficient capacity: every flow that wants to move away from
		// this link becomes high priority so it can free the capacity.
		sw.Tracer().Verdict(int32(sw.ID), trace.CodeCapacityBlock,
			uint32(m.Flow), m.Vn, uint32(int32(newPort)), uint32(uim.FlowSizeK))
		sw.RaisePriorityOfMoversFrom(newPort)
		if st.Priority == dataplane.PriorityHigh {
			sw.MarkHighWaiting(newPort, m.Flow)
		}
		sw.ParkOnCapacity(newPort, m, inPort)
		return false
	}
	// Capacity suffices, but a low-priority flow must let waiting
	// high-priority flows onto the link first.
	if st.Priority == dataplane.PriorityLow && sw.HighWaitingOn(newPort, m.Flow) {
		sw.Tracer().Verdict(int32(sw.ID), trace.CodePriorityYield,
			uint32(m.Flow), m.Vn, uint32(int32(newPort)), uint32(uim.FlowSizeK))
		sw.ParkOnCapacity(newPort, m, inPort)
		return false
	}
	// Book the capacity now so concurrent gate decisions during the
	// install delay cannot oversubscribe the link.
	sw.StageReservation(m.Flow, newPort, uim.FlowSizeK, uim.Version)
	return true
}
