// Package localverify implements a decentralized local-verification
// update scheduler in the style of Foerster & Schmid ("Local Checkability
// in Dynamic Networks", and the consistent-update survey's local-check
// schedulers, arXiv 1908.10086): the controller ships every new-path node
// one distance-labelled instruction, the egress anchors the update, and
// each node applies only after locally verifying a confirmation from its
// downstream neighbor on the new path — the confirmation must carry the
// expected version and a distance exactly one below the node's own label,
// so a forged, reordered or stale confirmation is rejected locally
// without controller involvement.
//
// Unlike P4Update there is no dual-layer mode, no version fast-forward
// and no switch-side stall watchdog: lost messages are repaired by the
// controller's probe-timeout resend, which every already-applied node
// answers by re-confirming upstream (duplicate instructions and
// confirmations are idempotent).
package localverify

import (
	"fmt"

	"p4update/internal/controlplane"
	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

// Plan is a prepared LocalVerify update: one distance-labelled UIM per
// new-path node, emitted ingress-to-egress.
type Plan struct {
	Flow    packet.FlowID
	Version uint32
	NewPath []topo.NodeID
	Targets []topo.NodeID
	Msgs    []packet.Message
}

// PreparePlan computes the instruction wave for one flow update. Every
// new-path node gets an instruction (the scheme verifies hop-by-hop, so
// even nodes whose port is unchanged re-commit under the new version):
// distance L-1-i, the downstream egress port, and the upstream child
// port the confirmation is relayed to.
func PreparePlan(t *topo.Topology, flow packet.FlowID, newPath []topo.NodeID,
	version, sizeK uint32) (*Plan, error) {

	if err := t.ValidatePath(newPath); err != nil {
		return nil, fmt.Errorf("localverify: new path: %w", err)
	}
	L := len(newPath)
	p := &Plan{Flow: flow, Version: version, NewPath: newPath}
	for i, n := range newPath {
		m := &packet.UIM{
			Flow: flow, Version: version,
			NewDistance: uint16(L - 1 - i),
			EgressPort:  packet.NoPort,
			ChildPort:   packet.NoPort,
			FlowSizeK:   sizeK,
			UpdateType:  packet.UpdateSingle,
		}
		if i+1 < L {
			m.EgressPort = uint16(t.PortTo(n, newPath[i+1]))
		}
		if i > 0 {
			m.ChildPort = uint16(t.PortTo(n, newPath[i-1]))
		}
		if i == 0 {
			m.Role |= packet.RoleIngress
		}
		if i == L-1 {
			m.Role |= packet.RoleEgress
		}
		p.Targets = append(p.Targets, n)
		p.Msgs = append(p.Msgs, m)
	}
	return p, nil
}

// PrepareCached memoizes PreparePlan through p under an 'l'-prefixed
// key; a nil planner computes directly.
func PrepareCached(p controlplane.Planner, t *topo.Topology, flow packet.FlowID, newPath []topo.NodeID,
	version, sizeK uint32) (*Plan, error) {

	if p == nil {
		return PreparePlan(t, flow, newPath, version, sizeK)
	}
	var scratch [128]byte
	k := controlplane.NewKeyBuf(scratch[:])
	k.U8('l')
	k.U32(uint32(flow))
	k.U32(version)
	k.U32(sizeK)
	k.Path(newPath)
	v, ok, err := p.Cached(t, k.Bytes())
	if !ok {
		v, err = p.Memo(t, k.Bytes(), func() (any, error) {
			return PreparePlan(t, flow, newPath, version, sizeK)
		})
	}
	plan, _ := v.(*Plan)
	return plan, err
}

// flowLVState is the per-flow, per-switch protocol state. It lives in
// FlowState.Proto and survives fail-stop crashes alongside the committed
// rules it describes.
type flowLVState struct {
	instr   *packet.UIM
	applied bool
}

func lvState(st *dataplane.FlowState) *flowLVState {
	ls, ok := st.Proto.(*flowLVState)
	if !ok {
		ls = &flowLVState{}
		st.Proto = ls
	}
	return ls
}

// Handler is the LocalVerify data-plane handler.
type Handler struct {
	// Congestion enables the per-link capacity check before a move
	// (waiters are woken FIFO when capacity frees up).
	Congestion bool
}

var _ dataplane.Handler = (*Handler)(nil)

// HandleUIM stores the instruction; the egress anchors the update by
// applying immediately, everyone else waits for the downstream
// confirmation.
func (h *Handler) HandleUIM(sw *dataplane.Switch, m *packet.UIM) {
	st := sw.State(m.Flow)
	ls := lvState(st)
	if ls.instr != nil && m.Version <= ls.instr.Version {
		// Duplicate (controller resend during recovery): an applied node
		// re-confirms upstream so a lost confirmation is repaired.
		if m.Version == ls.instr.Version && ls.applied {
			h.confirmUpstream(sw, ls.instr)
		}
		sw.Tracer().Verdict(int32(sw.ID), trace.CodeDuplicate,
			uint32(m.Flow), m.Version, 0, 0)
		return
	}
	// m is pool-owned and recycled when dispatch returns; the flow's
	// state keeps a private copy.
	cp := *m
	ls.instr = &cp
	ls.applied = false
	if m.Version > st.IndicatedVersion {
		st.IndicatedVersion = m.Version
	}
	if cp.Role.Has(packet.RoleEgress) {
		h.apply(sw, &cp)
	}
	sw.WakeUIMWaiters(m.Flow)
}

// HandleUNM locally verifies the downstream confirmation: it must carry
// the instructed version and a distance exactly one below the node's own
// label (a hop-count witness that the downstream next hop really runs
// the new configuration).
func (h *Handler) HandleUNM(sw *dataplane.Switch, m *packet.UNM, inPort topo.PortID) {
	st := sw.State(m.Flow)
	ls := lvState(st)
	if ls.instr == nil || ls.instr.Version < m.Vn {
		// Instruction not here yet: wait (resubmission).
		sw.Tracer().Verdict(int32(sw.ID), trace.CodeWaitUIM,
			uint32(m.Flow), m.Vn, 0, 0)
		sw.ParkOnUIM(m, inPort)
		return
	}
	instr := ls.instr
	if m.Vn < instr.Version {
		sw.Tracer().Verdict(int32(sw.ID), trace.CodeRejectOutdated,
			uint32(m.Flow), m.Vn, instr.Version, 0)
		sw.Alarm(m.Flow, m.Vn, packet.ReasonOutdated)
		return
	}
	if m.Dn+1 != instr.NewDistance {
		// The confirmation did not come from our downstream successor on
		// the new path — applying could form a loop. Reject locally.
		sw.Tracer().Verdict(int32(sw.ID), trace.CodeRejectDistance,
			uint32(m.Flow), m.Vn, uint32(m.Dn), uint32(instr.NewDistance))
		sw.Alarm(m.Flow, m.Vn, packet.ReasonDistance)
		return
	}
	if ls.applied {
		// Duplicate confirmation: re-relay upstream (at-least-once
		// delivery keeps the wave alive across losses).
		sw.Tracer().Verdict(int32(sw.ID), trace.CodeDuplicate,
			uint32(m.Flow), m.Vn, 0, 0)
		h.confirmUpstream(sw, instr)
		return
	}
	h.apply(sw, instr)
}

// Resubmit resumes a parked message: a confirmation that waited for its
// instruction is verified again, an instruction that waited for capacity
// re-runs apply.
func (h *Handler) Resubmit(sw *dataplane.Switch, m packet.Message, inPort topo.PortID) {
	switch m := m.(type) {
	case *packet.UNM:
		h.HandleUNM(sw, m, inPort)
	case *packet.UIM:
		h.apply(sw, m)
	}
}

// apply stages the instructed rule (capacity-gated under Congestion).
func (h *Handler) apply(sw *dataplane.Switch, instr *packet.UIM) {
	st := sw.State(instr.Flow)
	newPort := dataplane.PortFromWire(instr.EgressPort)
	if h.Congestion && newPort != dataplane.PortLocal &&
		!(st.HasRule && st.EgressPort == newPort && st.FlowSizeK >= instr.FlowSizeK) {
		if sw.RemainingK(newPort) < uint64(instr.FlowSizeK) {
			sw.Tracer().Verdict(int32(sw.ID), trace.CodeCapacityBlock,
				uint32(instr.Flow), instr.Version, uint32(int32(newPort)), uint32(instr.FlowSizeK))
			sw.ParkOnCapacity(newPort, instr, topo.InvalidPort)
			return
		}
		sw.StageReservation(instr.Flow, newPort, instr.FlowSizeK, instr.Version)
	}
	sw.Tracer().Verdict(int32(sw.ID), trace.CodeApplyLV,
		uint32(instr.Flow), instr.Version, uint32(int32(newPort)), 0)
	portChanged := !st.HasRule || st.EgressPort != newPort
	c := sw.StageCommit()
	*c = dataplane.StagedCommit{Flow: instr.Flow, UIM: *instr, State: st}
	sw.Apply(portChanged, c)
}

// CommitStaged commits the instructed rule and confirms upstream; the
// flow ingress also acknowledges.
func (h *Handler) CommitStaged(sw *dataplane.Switch, c *dataplane.StagedCommit) {
	if !sw.CommitRule(c.Flow, &c.UIM, c.State.NewVersion, c.State.NewDistance, 0) {
		return
	}
	lvState(c.State).applied = true
	h.confirmUpstream(sw, &c.UIM)
	if c.UIM.Role.Has(packet.RoleIngress) {
		sw.SendUFM(packet.UFM{
			Flow: c.Flow, Version: c.UIM.Version, Status: packet.StatusUpdated,
		})
	}
}

// confirmUpstream relays the verified confirmation toward the ingress.
func (h *Handler) confirmUpstream(sw *dataplane.Switch, instr *packet.UIM) {
	if instr.ChildPort == packet.NoPort {
		return
	}
	unm := sw.Pool().GetUNM()
	unm.Flow = instr.Flow
	unm.UpdateType = packet.UpdateSingle
	unm.Vn = instr.Version
	unm.Dn = instr.NewDistance
	sw.SendUNM(topo.PortID(int32(instr.ChildPort)), unm)
	sw.Pool().PutUNM(unm)
}

// Controller drives LocalVerify updates over the shared tracker: one
// instruction wave per update, completion measured identically to every
// other system (apply observer + probe traversal).
type Controller struct {
	Ctl *controlplane.Controller
	// Plans, when set, memoizes instruction waves across trials that
	// share a frozen topology.
	Plans controlplane.Planner
}

// NewController wires a LocalVerify control plane over the shared
// tracker.
func NewController(ctl *controlplane.Controller) *Controller {
	return &Controller{Ctl: ctl}
}

// TriggerUpdate prepares and pushes an update of f to newPath. The
// returned status carries a Resend hook, so the controller-side probe
// watchdog can restart a wave stalled by loss or crashes.
func (c *Controller) TriggerUpdate(f packet.FlowID, newPath []topo.NodeID) (*controlplane.UpdateStatus, error) {
	rec, ok := c.Ctl.Flow(f)
	if !ok {
		return nil, fmt.Errorf("localverify: unknown flow %d", f)
	}
	version := rec.Version + 1
	oldPath := rec.Path
	plan, err := PrepareCached(c.Plans, c.Ctl.Topo, f, newPath, version, rec.SizeK)
	if err != nil {
		return nil, err
	}
	u := c.Ctl.PushMessagesInto(nil, f, version, oldPath, newPath, nil, plan.Targets, plan.Msgs, rec)
	u.Resend = func() {
		for i := range plan.Msgs {
			c.Ctl.Net.SendToSwitch(plan.Targets[i], plan.Msgs[i], 0)
		}
	}
	return u, nil
}
