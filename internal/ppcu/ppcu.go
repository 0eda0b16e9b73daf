// Package ppcu implements per-packet consistent updates with per-flow
// version stamping (in the style of Reitblatt et al.'s two-phase
// consistent updates and the PPCU line of work, arXiv 1609.00126): the
// controller first installs the new-version rules on every interior
// new-path node — old packets keep matching the previous configuration
// through the data plane's version-tag fallback — and only after every
// interior install is acknowledged does it flip the ingress, whose
// version stamp atomically moves all new packets onto the new
// configuration. Per-packet consistency holds by construction; the cost
// is a controller round-trip between the two phases and double rule
// occupancy until cleanup.
package ppcu

import (
	"fmt"

	"p4update/internal/controlplane"
	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

// Handler is the PPCU data-plane agent: a plain two-phase switch that
// applies whatever rule the controller sends and acknowledges it. The
// consistency logic lives in the version-tag fallback of the shared
// data plane (Switch.TwoPhase) plus the coordinator's phase barrier.
type Handler struct {
	// Congestion enables the per-link capacity check before a move.
	Congestion bool
}

var _ dataplane.Handler = (*Handler)(nil)

// HandleUIM applies the instruction after the install delay and ACKs.
// Duplicate same-version instructions re-acknowledge, so the phase
// barrier survives lost acks.
func (h *Handler) HandleUIM(sw *dataplane.Switch, m *packet.UIM) {
	st := sw.State(m.Flow)
	if m.Version > st.IndicatedVersion {
		st.IndicatedVersion = m.Version
	}
	if st.HasRule && m.Version <= st.NewVersion {
		if m.Version == st.NewVersion {
			sw.SendUFM(packet.UFM{
				Flow: m.Flow, Version: m.Version, Status: packet.StatusUpdated,
			})
		}
		sw.Tracer().Verdict(int32(sw.ID), trace.CodeDuplicate,
			uint32(m.Flow), m.Version, 0, 0)
		return
	}
	h.apply(sw, m)
}

// apply stages the instructed rule (capacity-gated under Congestion).
func (h *Handler) apply(sw *dataplane.Switch, m *packet.UIM) {
	st := sw.State(m.Flow)
	if st.HasRule && m.Version <= st.NewVersion {
		return // raced a newer commit while parked on capacity
	}
	newPort := dataplane.PortFromWire(m.EgressPort)
	if h.Congestion && newPort != dataplane.PortLocal &&
		!(st.HasRule && st.EgressPort == newPort && st.FlowSizeK >= m.FlowSizeK) {
		if sw.RemainingK(newPort) < uint64(m.FlowSizeK) {
			sw.Tracer().Verdict(int32(sw.ID), trace.CodeCapacityBlock,
				uint32(m.Flow), m.Version, uint32(int32(newPort)), uint32(m.FlowSizeK))
			sw.ParkOnCapacity(newPort, m, topo.InvalidPort)
			return
		}
		sw.StageReservation(m.Flow, newPort, m.FlowSizeK, m.Version)
	}
	sw.Tracer().Verdict(int32(sw.ID), trace.CodeApplyPPCU,
		uint32(m.Flow), m.Version, uint32(int32(newPort)), 0)
	portChanged := !st.HasRule || st.EgressPort != newPort
	c := sw.StageCommit()
	*c = dataplane.StagedCommit{Flow: m.Flow, UIM: *m, State: st}
	sw.Apply(portChanged, c)
}

// CommitStaged commits the instructed rule and acknowledges it.
func (h *Handler) CommitStaged(sw *dataplane.Switch, c *dataplane.StagedCommit) {
	if sw.CommitRule(c.Flow, &c.UIM, c.State.NewVersion, c.State.NewDistance, 0) {
		sw.SendUFM(packet.UFM{
			Flow: c.Flow, Version: c.UIM.Version, Status: packet.StatusUpdated,
		})
	}
}

// Resubmit re-runs apply on an instruction parked on capacity.
func (h *Handler) Resubmit(sw *dataplane.Switch, m packet.Message, inPort topo.PortID) {
	h.apply(sw, m.(*packet.UIM))
}

// HandleUNM is unused by PPCU.
func (h *Handler) HandleUNM(sw *dataplane.Switch, m *packet.UNM, inPort topo.PortID) {}

// Coordinator drives two-phase PPCU updates over the shared tracker.
type Coordinator struct {
	Ctl *controlplane.Controller
	// Flips counts completed phase-1 → phase-2 transitions
	// (diagnostics, reported via the wiring metrics hook).
	Flips uint64

	runs map[runKey]*run
}

type runKey struct {
	flow    packet.FlowID
	version uint32
}

// run is one in-flight two-phase update.
type run struct {
	u *controlplane.UpdateStatus
	// pending is the outstanding phase-1 ack set.
	pending map[topo.NodeID]bool
	// targets/msgs are the phase-1 instructions (interior nodes).
	targets []topo.NodeID
	msgs    []packet.Message
	// ingress/ingressUIM is the phase-2 flip instruction.
	ingress    topo.NodeID
	ingressUIM *packet.UIM
	flipped    bool
}

// NewCoordinator wires a PPCU control plane over the shared tracker.
func NewCoordinator(ctl *controlplane.Controller) *Coordinator {
	c := &Coordinator{Ctl: ctl, runs: make(map[runKey]*run)}
	prevUFM := ctl.OnUFM
	ctl.OnUFM = func(u packet.UFM) {
		if prevUFM != nil {
			prevUFM(u)
		}
		c.onUFM(u)
	}
	prevDone := ctl.OnComplete
	ctl.OnComplete = func(u *controlplane.UpdateStatus) {
		if prevDone != nil {
			prevDone(u)
		}
		delete(c.runs, runKey{u.Flow, u.Version})
	}
	return c
}

// TriggerUpdate starts a two-phase update of f to newPath: phase 1
// installs the new rules on every changed interior node, phase 2 flips
// the ingress once all of phase 1 is acknowledged.
func (c *Coordinator) TriggerUpdate(f packet.FlowID, newPath []topo.NodeID) (*controlplane.UpdateStatus, error) {
	rec, ok := c.Ctl.Flow(f)
	if !ok {
		return nil, fmt.Errorf("ppcu: unknown flow %d", f)
	}
	if err := c.Ctl.Topo.ValidatePath(newPath); err != nil {
		return nil, fmt.Errorf("ppcu: new path: %w", err)
	}
	version := rec.Version + 1
	oldPath := rec.Path
	t := c.Ctl.Topo
	L := len(newPath)

	mk := func(i int) *packet.UIM {
		n := newPath[i]
		m := &packet.UIM{
			Flow: f, Version: version,
			NewDistance: uint16(L - 1 - i),
			EgressPort:  packet.NoPort,
			ChildPort:   packet.NoPort,
			FlowSizeK:   rec.SizeK,
			UpdateType:  packet.UpdateSingle,
		}
		if i+1 < L {
			m.EgressPort = uint16(t.PortTo(n, newPath[i+1]))
		}
		if i == 0 {
			m.Role |= packet.RoleIngress
		}
		if i == L-1 {
			m.Role |= packet.RoleEgress
		}
		return m
	}

	r := &run{ingress: newPath[0], ingressUIM: mk(0), pending: make(map[topo.NodeID]bool)}
	// Phase 1: every non-ingress node whose rule changes (or that has no
	// rule yet). Unchanged interiors keep forwarding correctly for both
	// versions, so they need no install.
	pendingNodes := []topo.NodeID{newPath[0]} // the flip completes the update
	for i := 1; i < L; i++ {
		// A node is changed when its old next hop differs from the new
		// one; terminal delivery (egress) counts as next hop "self".
		n := newPath[i]
		oldHop, onOld := nextOf(oldPath, n)
		newHop, _ := nextOf(newPath, n)
		if onOld && oldHop == newHop {
			continue
		}
		r.pending[n] = true
		pendingNodes = append(pendingNodes, n)
		r.targets = append(r.targets, n)
		r.msgs = append(r.msgs, mk(i))
	}

	u := c.Ctl.TrackOnly(f, version, oldPath, newPath, pendingNodes, rec)
	r.u = u
	u.Resend = func() { c.resend(r) }
	c.runs[runKey{f, version}] = r
	if len(r.targets) == 0 {
		c.flip(r)
		return u, nil
	}
	for i, m := range r.msgs {
		c.Ctl.Net.SendToSwitch(r.targets[i], m, 0)
	}
	return u, nil
}

// nextOf returns n's successor on path (the node itself at the
// terminal), and whether n is on path at all.
func nextOf(path []topo.NodeID, n topo.NodeID) (topo.NodeID, bool) {
	for i, p := range path {
		if p == n {
			if i+1 < len(path) {
				return path[i+1], true
			}
			return n, true
		}
	}
	return 0, false
}

// flip launches phase 2: the ingress commit stamps all new packets with
// the new version, atomically moving the flow onto the new rules.
func (c *Coordinator) flip(r *run) {
	r.flipped = true
	c.Flips++
	c.Ctl.Net.SendToSwitch(r.ingress, r.ingressUIM, 0)
}

// resend is the recovery hook: before the flip it re-sends the
// outstanding phase-1 instructions (applied nodes re-ack), after it the
// flip instruction itself.
func (c *Coordinator) resend(r *run) {
	if !r.flipped {
		for i, m := range r.msgs {
			if r.pending[r.targets[i]] {
				c.Ctl.Net.SendToSwitch(r.targets[i], m, 0)
			}
		}
		return
	}
	c.Ctl.Net.SendToSwitch(r.ingress, r.ingressUIM, 0)
}

// onUFM advances the phase barrier on per-node acknowledgements.
func (c *Coordinator) onUFM(m packet.UFM) {
	if m.Status != packet.StatusUpdated {
		return
	}
	r, ok := c.runs[runKey{m.Flow, m.Version}]
	if !ok {
		return
	}
	node := topo.NodeID(m.Node)
	if !r.pending[node] {
		return
	}
	delete(r.pending, node)
	if len(r.pending) == 0 && !r.flipped {
		c.flip(r)
	}
}
