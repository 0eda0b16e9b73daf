// Package ezsegway implements the ez-Segway baseline (Nguyen et al.,
// SOSR'17) as adapted for the paper's evaluation (§9.1): the control plane
// partitions a flow update into in_loop / not_in_loop segments and
// computes the congestion dependency graph centrally; the data plane
// propagates notification messages upstream through each segment, with
// in_loop segments waiting for their downstream dependency. There is no
// local verification and no version fast-forward: the controller defers a
// new update of a flow until the previous one completed.
package ezsegway

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

// Plan is a prepared ez-Segway update.
type Plan struct {
	// Changed lists the nodes whose forwarding rule changes (the
	// completion set).
	Changed []topo.NodeID
	// Targets/Msgs are the per-switch instructions.
	Targets []topo.NodeID
	Msgs    []packet.Message
}

// Send transmits the plan's instructions at launch. ez-Segway models no
// loss recovery, so nothing re-sends them.
func (p *Plan) Send(c *controlplane.Controller, _ *controlplane.UpdateStatus) {
	for i, m := range p.Msgs {
		c.Net.SendToSwitch(p.Targets[i], m, 0)
	}
}

// PreparePlan computes the ez-Segway instruction set for one flow update.
// Only switches participating in a changed segment receive instructions:
// rule-changers get their new port, segment egress-gateways get the
// initiation role (immediate for not_in_loop, after-own-apply for
// in_loop).
func PreparePlan(t *topo.Topology, flow packet.FlowID, oldPath, newPath []topo.NodeID,
	version uint32, sizeK uint32, priority uint8) (*Plan, error) {
	return PreparePlanDep(t, flow, oldPath, newPath, version, sizeK, priority, 0)
}

// PreparePlanDep is PreparePlan with an explicit static inter-flow
// dependency: every instruction carries the flow whose move must precede
// this one (0 = none).
func PreparePlanDep(t *topo.Topology, flow packet.FlowID, oldPath, newPath []topo.NodeID,
	version uint32, sizeK uint32, priority uint8, depFlow packet.FlowID) (*Plan, error) {

	if err := t.ValidatePath(newPath); err != nil {
		return nil, fmt.Errorf("ezsegway: new path: %w", err)
	}
	seg, err := controlplane.SegmentPaths(oldPath, newPath)
	if err != nil {
		return nil, fmt.Errorf("ezsegway: %w", err)
	}
	// changes reports whether new-path node i gets a new rule: it has a
	// next hop on the new path, and none or another one on the old.
	changes := func(i int) bool {
		if i+1 >= len(newPath) {
			return false
		}
		on, onOld := nextHop(oldPath, newPath[i])
		return !onOld || on != newPath[i+1]
	}

	p := &Plan{}
	// At most one instruction per new-path node; the capacity keeps the
	// pointers get hands out valid until the sort below.
	instr := make([]instruction, 0, len(newPath))
	get := func(i int) *packet.EZI {
		n := newPath[i]
		for j := range instr {
			if instr[j].node == n {
				return &instr[j].m
			}
		}
		m := packet.EZI{
			Flow: flow, Version: version, FlowSizeK: sizeK,
			EgressPort: packet.NoPort, ChildPort: packet.NoPort,
			Priority: priority, DepFlow: depFlow,
		}
		if i+1 < len(newPath) {
			m.EgressPort = uint16(t.PortTo(n, newPath[i+1]))
		}
		if i > 0 {
			m.ChildPort = uint16(t.PortTo(n, newPath[i-1]))
		}
		if i == 0 {
			m.Flags |= packet.EZIngress
		}
		if i == len(newPath)-1 {
			m.Flags |= packet.EZEgress
		}
		instr = append(instr, instruction{node: n, m: m})
		return &instr[len(instr)-1].m
	}

	last := 0
	for _, s := range seg.Segments {
		// The segments tile the new path: this one spans new-path
		// indexes first..last, last being its egress gateway.
		first := last
		last += len(s.Nodes) - 1
		// A segment needs work when any of its rule-setting nodes
		// (everything but the segment egress gateway) changes.
		needed := false
		for i := first; i < last; i++ {
			if changes(i) {
				needed = true
				break
			}
		}
		if !needed {
			continue
		}
		for i := first; i < last; i++ {
			in := get(i)
			if i > first {
				in.Flags |= packet.EZRelay // segment interior
			}
			if changes(i) {
				if p.Changed == nil {
					p.Changed = make([]topo.NodeID, 0, len(newPath))
				}
				p.Changed = append(p.Changed, newPath[i])
			}
		}
		eg := get(last)
		switch {
		case s.Forward || !changes(last):
			// not_in_loop segments start immediately; a gateway whose
			// own rule never changes has no downstream dependency.
			eg.Flags |= packet.EZInitNow
		default:
			eg.Flags |= packet.EZInitAfterApply
		}
	}
	// Emit instructions in node-ID order: same-instant message ties
	// break by send order, so the order is part of the plan.
	if len(instr) == 0 {
		return p, nil
	}
	slices.SortFunc(instr, func(a, b instruction) int { return cmp.Compare(a.node, b.node) })
	p.Targets = make([]topo.NodeID, len(instr))
	p.Msgs = make([]packet.Message, len(instr))
	for j := range instr {
		p.Targets[j] = instr[j].node
		p.Msgs[j] = &instr[j].m
	}
	return p, nil
}

// instruction is one switch's ez-Segway instruction while a plan is
// prepared.
type instruction struct {
	node topo.NodeID
	m    packet.EZI
}

// nextHop returns n's successor on path, from n's last position with
// one, and whether there is one.
func nextHop(path []topo.NodeID, n topo.NodeID) (topo.NodeID, bool) {
	for i := len(path) - 2; i >= 0; i-- {
		if path[i] == n {
			return path[i+1], true
		}
	}
	return 0, false
}

// flowEZState is the per-flow, per-switch baseline state.
type flowEZState struct {
	instr   *packet.EZI
	applied bool
	started bool // upstream segment initiated
	// depWaived releases a static-dependency wait after the fallback
	// timeout (the CP-computed graph can contain cycles).
	depWaived bool
}

func ezState(st *dataplane.FlowState) *flowEZState {
	es, ok := st.Proto.(*flowEZState)
	if !ok {
		es = &flowEZState{}
		st.Proto = es
	}
	return es
}

// Handler is the ez-Segway data-plane handler.
type Handler struct {
	// Congestion enables the per-link capacity check before a move
	// (waiters are woken FIFO; ez-Segway's scheduling order comes from
	// the CP-computed priorities, not from dynamic data-plane state).
	Congestion bool

	// waiveFn is waive, bound on the first dependency wait.
	waiveFn func(any)
}

// depWaiver is one armed dependency waiver: the notification it
// retries, and the switch and flow state it retries at.
type depWaiver struct {
	sw  *dataplane.Switch
	es  *flowEZState
	ezn packet.EZN
}

var _ dataplane.Handler = (*Handler)(nil)
var _ dataplane.MessageHandler = (*Handler)(nil)

// HandleUIM is unused by ez-Segway (instructions arrive as EZI).
func (h *Handler) HandleUIM(sw *dataplane.Switch, m *packet.UIM) {}

// HandleUNM is unused by ez-Segway.
func (h *Handler) HandleUNM(sw *dataplane.Switch, m *packet.UNM, inPort topo.PortID) {}

// Resubmit re-runs handleEZN on a notification parked on its instruction
// or on capacity.
func (h *Handler) Resubmit(sw *dataplane.Switch, m packet.Message, inPort topo.PortID) {
	h.handleEZN(sw, m.(*packet.EZN))
}

// HandleMessage dispatches the baseline message types.
func (h *Handler) HandleMessage(sw *dataplane.Switch, m packet.Message, inPort topo.PortID) {
	switch m := m.(type) {
	case *packet.EZI:
		h.handleEZI(sw, m)
	case *packet.EZN:
		h.handleEZN(sw, m)
	}
}

func (h *Handler) handleEZI(sw *dataplane.Switch, m *packet.EZI) {
	st := sw.State(m.Flow)
	es := ezState(st)
	if es.instr != nil && m.Version <= es.instr.Version {
		return
	}
	es.instr = m
	es.applied = false
	es.started = false
	if m.Version > st.IndicatedVersion {
		st.IndicatedVersion = m.Version
	}
	switch {
	case m.Flags.Has(packet.EZEgress):
		// The egress has nothing to move; mark applied and initiate.
		es.applied = true
		h.initiate(sw, m, es)
	case m.Flags.Has(packet.EZInitNow):
		h.initiate(sw, m, es)
	}
	sw.WakeUIMWaiters(m.Flow)
}

// initiate starts the upstream segment by notifying the child.
func (h *Handler) initiate(sw *dataplane.Switch, m *packet.EZI, es *flowEZState) {
	if es.started || m.ChildPort == packet.NoPort {
		es.started = true
		return
	}
	es.started = true
	ezn := sw.Pool().GetEZN()
	ezn.Flow, ezn.Version = m.Flow, m.Version
	sw.Network().SendPort(sw.ID, topo.PortID(int32(m.ChildPort)), ezn)
	sw.Pool().PutEZN(ezn)
}

// handleEZN stages the instruction's rule once the segment's
// notification for it arrives. m is recycled when the call returns:
// parks copy it, and the dependency waiver keeps its own copy.
func (h *Handler) handleEZN(sw *dataplane.Switch, m *packet.EZN) {
	st := sw.State(m.Flow)
	es := ezState(st)
	if es.instr == nil || es.instr.Version < m.Version {
		// Instruction not here yet: wait (resubmission).
		sw.Tracer().Verdict(int32(sw.ID), trace.CodeWaitUIM,
			uint32(m.Flow), m.Version, 0, 0)
		sw.ParkOnUIM(m, topo.InvalidPort)
		return
	}
	if es.instr.Version > m.Version || es.applied {
		sw.Tracer().Verdict(int32(sw.ID), trace.CodeDuplicate,
			uint32(m.Flow), m.Version, 0, 0)
		return // stale or duplicate notification
	}
	instr := es.instr
	newPort := dataplane.PortFromWire(instr.EgressPort)
	if h.Congestion && newPort != dataplane.PortLocal &&
		!(st.HasRule && st.EgressPort == newPort && st.FlowSizeK >= instr.FlowSizeK) {
		// Static CP-computed dependency: wait until the depended flow has
		// vacated the contested link, even if capacity already suffices —
		// ez-Segway's scheduler follows the precomputed order, it cannot
		// observe live capacity the way P4Update's dynamic scheduler does.
		if dep := instr.DepFlow; dep != 0 && !es.depWaived {
			if dst, ok := sw.PeekState(dep); ok && dst.HasRule && dst.EgressPort == newPort {
				sw.Tracer().Verdict(int32(sw.ID), trace.CodeWaitDependency,
					uint32(m.Flow), m.Version, uint32(dep), uint32(int32(newPort)))
				sw.ParkOnCapacity(newPort, m, topo.InvalidPort)
				// Fallback: the static graph can contain cycles; waive
				// the dependency after a timeout and retry on capacity
				// alone.
				if h.waiveFn == nil {
					h.waiveFn = h.waive
				}
				sw.Network().Eng.ScheduleArg(500*time.Millisecond, h.waiveFn, &depWaiver{sw: sw, es: es, ezn: *m})
				return
			}
		}
		if sw.RemainingK(newPort) < uint64(instr.FlowSizeK) {
			sw.Tracer().Verdict(int32(sw.ID), trace.CodeCapacityBlock,
				uint32(m.Flow), m.Version, uint32(int32(newPort)), uint32(instr.FlowSizeK))
			sw.ParkOnCapacity(newPort, m, topo.InvalidPort)
			return
		}
		sw.StageReservation(m.Flow, newPort, instr.FlowSizeK, instr.Version)
	}
	sw.Tracer().Verdict(int32(sw.ID), trace.CodeApplyEZ,
		uint32(m.Flow), m.Version, uint32(int32(newPort)), 0)
	portChanged := !st.HasRule || st.EgressPort != newPort
	c := sw.StageCommit()
	*c = dataplane.StagedCommit{Flow: m.Flow, State: st, Proto: instr}
	sw.Apply(portChanged, c)
}

// waive retries a notification on capacity alone once its dependency
// wait timed out, unless the rule applied meanwhile.
func (h *Handler) waive(x any) {
	w := x.(*depWaiver)
	if !w.es.applied {
		w.es.depWaived = true
		h.handleEZN(w.sw, &w.ezn)
	}
}

// CommitStaged commits the rule of the instruction staged by handleEZN,
// then relays, reports or initiates as the instruction's role asks.
func (h *Handler) CommitStaged(sw *dataplane.Switch, c *dataplane.StagedCommit) {
	st, instr := c.State, c.Proto.(*packet.EZI)
	newPort := dataplane.PortFromWire(instr.EgressPort)
	ok := sw.CommitState(c.Flow, dataplane.Commit{
		Port:    newPort,
		Version: instr.Version,
		// ez-Segway carries no distance labels; keep the old ones.
		Distance:    st.NewDistance,
		OldVersion:  st.NewVersion,
		OldDistance: st.OldDistance,
		SizeK:       instr.FlowSizeK,
		Type:        packet.UpdateSingle,
	})
	if !ok {
		return
	}
	es := ezState(st)
	es.applied = true
	// Segment-interior nodes relay the notification upstream.
	if instr.Flags.Has(packet.EZRelay) && instr.ChildPort != packet.NoPort {
		ezn := sw.Pool().GetEZN()
		ezn.Flow, ezn.Version = c.Flow, instr.Version
		sw.Network().SendPort(sw.ID, topo.PortID(int32(instr.ChildPort)), ezn)
		sw.Pool().PutEZN(ezn)
	}
	if instr.Flags.Has(packet.EZIngress) {
		// Flow ingress: report completion of the final segment.
		sw.SendUFM(packet.UFM{
			Flow: c.Flow, Version: instr.Version, Status: packet.StatusUpdated,
		})
	}
	// A gateway that just applied may now initiate its in_loop
	// upstream segment (the downstream dependency resolved).
	if instr.Flags.Has(packet.EZInitAfterApply) {
		es.started = false
		h.initiate(sw, instr, es)
	}
}

// Controller drives ez-Segway updates: it wraps the shared tracking
// controller and serializes updates per flow (no fast-forward — a new
// configuration waits for the ongoing update to complete, §4.2).
type Controller struct {
	Ctl *controlplane.Controller
	// Congestion enables the centralized dependency-graph computation;
	// its result is shipped with the instructions as static priorities
	// and dependency edges.
	Congestion bool

	queued map[packet.FlowID][]queuedUpdate
	active map[packet.FlowID]*controlplane.UpdateStatus
	// activeUpdates mirrors the in-flight moves for dependency-graph
	// recomputation.
	activeUpdates map[packet.FlowID]FlowUpdate
	// Plans, when set, memoizes plan and dependency-graph preparation
	// across trials that share a frozen topology (internal/plancache via
	// the unified controlplane.Planner seam). Cached plans are shared and
	// immutable; the handlers copy EZI/EZN state before mutating, so
	// sharing is safe.
	Plans controlplane.Planner
	// completeFn is onComplete, bound once: every launch hands it to the
	// controller as the update's Done hook.
	completeFn func(*controlplane.UpdateStatus)
}

// PrepareCached memoizes PreparePlanDep through p under an 'e'-prefixed
// key; a nil planner computes directly.
func PrepareCached(p controlplane.Planner, t *topo.Topology, flow packet.FlowID, oldPath, newPath []topo.NodeID,
	version, sizeK uint32, prio uint8, dep packet.FlowID) (*Plan, error) {

	if p == nil {
		return PreparePlanDep(t, flow, oldPath, newPath, version, sizeK, prio, dep)
	}
	var scratch [128]byte
	k := controlplane.NewKeyBuf(scratch[:])
	k.U8('e')
	k.U32(uint32(flow))
	k.U32(version)
	k.U32(sizeK)
	k.U8(prio)
	k.U32(uint32(dep))
	k.Path(oldPath)
	k.Path(newPath)
	v, ok, err := p.Cached(t, k.Bytes())
	if !ok {
		v, err = p.Memo(t, k.Bytes(), func() (any, error) {
			return PreparePlanDep(t, flow, oldPath, newPath, version, sizeK, prio, dep)
		})
	}
	plan, _ := v.(*Plan)
	return plan, err
}

// depGraph pairs the congestion dependency maps so they fit through the
// planner's single memoized value.
type depGraph struct {
	classes map[packet.FlowID]uint8
	edges   map[packet.FlowID]packet.FlowID
}

// DependenciesCached memoizes ComputeCongestionDependencies through p
// under a 'd'-prefixed key; a nil planner computes directly. The
// returned maps are shared across trials: read-only. Callers pass the
// update set in a deterministic (flow-sorted) order, so identical
// in-flight sets key identically.
func DependenciesCached(p controlplane.Planner, t *topo.Topology, updates []FlowUpdate) (map[packet.FlowID]uint8, map[packet.FlowID]packet.FlowID) {
	if p == nil {
		return ComputeCongestionDependencies(t, updates)
	}
	var scratch [256]byte
	k := controlplane.NewKeyBuf(scratch[:])
	k.U8('d')
	k.U32(uint32(len(updates)))
	for _, u := range updates {
		k.U32(uint32(u.Flow))
		k.U32(u.SizeK)
		k.Path(u.Old)
		k.Path(u.New)
	}
	v, ok, _ := p.Cached(t, k.Bytes())
	if !ok {
		v, _ = p.Memo(t, k.Bytes(), func() (any, error) {
			classes, edges := ComputeCongestionDependencies(t, updates)
			return depGraph{classes, edges}, nil
		})
	}
	g, _ := v.(depGraph)
	return g.classes, g.edges
}

type queuedUpdate struct {
	newPath []topo.NodeID
	// status is the Queued-state record handed to the caller at trigger
	// time; launch fills it in.
	status *controlplane.UpdateStatus
}

// NewController wires an ez-Segway control plane over the shared tracker.
func NewController(ctl *controlplane.Controller) *Controller {
	c := &Controller{
		Ctl:           ctl,
		queued:        make(map[packet.FlowID][]queuedUpdate),
		active:        make(map[packet.FlowID]*controlplane.UpdateStatus),
		activeUpdates: make(map[packet.FlowID]FlowUpdate),
	}
	c.completeFn = c.onComplete
	return c
}

// TriggerUpdate schedules an update of f to newPath and always returns a
// non-nil status on success. If an update of f is in flight, the new one
// is deferred until completion and the returned status is in the Queued
// state (Version and Sent zero); the same record is filled in when the
// deferred update launches, so callers can hold it across Run.
func (c *Controller) TriggerUpdate(f packet.FlowID, newPath []topo.NodeID) (*controlplane.UpdateStatus, error) {
	if _, busy := c.active[f]; busy {
		if _, known := c.Ctl.Flow(f); !known {
			return nil, fmt.Errorf("ezsegway: unknown flow %d", f)
		}
		u := &controlplane.UpdateStatus{Flow: f, Queued: true}
		c.queued[f] = append(c.queued[f], queuedUpdate{newPath: newPath, status: u})
		return u, nil
	}
	return c.launch(f, newPath, nil)
}

// launch prepares and pushes the update, filling pre (a Queued-state
// record) when the update was deferred; pre may be nil.
func (c *Controller) launch(f packet.FlowID, newPath []topo.NodeID, pre *controlplane.UpdateStatus) (*controlplane.UpdateStatus, error) {
	rec, ok := c.Ctl.Flow(f)
	if !ok {
		return nil, fmt.Errorf("ezsegway: unknown flow %d", f)
	}
	version := rec.Version + 1
	oldPath := rec.Path
	var prio uint8
	var dep packet.FlowID
	if c.Congestion {
		// Recompute the global dependency graph over the in-flight moves
		// (the centralized preparation P4Update eliminates, Fig. 8b).
		c.activeUpdates[f] = FlowUpdate{Flow: f, Old: oldPath, New: newPath, SizeK: rec.SizeK}
		set := make([]FlowUpdate, 0, len(c.activeUpdates))
		for _, fu := range c.activeUpdates {
			set = append(set, fu)
		}
		// The dependency edges pick the first qualifying flow in set
		// order; sort so the choice is stable across runs.
		sort.Slice(set, func(i, j int) bool { return set[i].Flow < set[j].Flow })
		classes, edges := DependenciesCached(c.Plans, c.Ctl.Topo, set)
		prio = classes[f]
		dep = edges[f]
	}
	plan, err := PrepareCached(c.Plans, c.Ctl.Topo, f, oldPath, newPath, version, rec.SizeK, prio, dep)
	if err != nil {
		return nil, err
	}
	u := pre
	if u == nil {
		u = &controlplane.UpdateStatus{}
	}
	u.Flow, u.Version, u.OldPath, u.NewPath = f, version, oldPath, newPath
	c.Ctl.Launch(u, controlplane.Dispatch{Pending: plan.Changed, Send: plan, Done: c.completeFn})
	if len(plan.Changed) == 0 {
		// Nothing to move: the update is trivially complete.
		u.Completed = c.Ctl.Eng.Now()
		return u, nil
	}
	c.active[f] = u
	return u, nil
}

func (c *Controller) onComplete(u *controlplane.UpdateStatus) {
	if cur, ok := c.active[u.Flow]; !ok || cur != u {
		return
	}
	delete(c.active, u.Flow)
	delete(c.activeUpdates, u.Flow)
	if q := c.queued[u.Flow]; len(q) > 0 {
		next := q[0]
		c.queued[u.Flow] = q[1:]
		// An unlaunchable deferred update is dropped: the handed-out
		// status stays Queued and never completes.
		c.launch(u.Flow, next.newPath, next.status)
	}
}
