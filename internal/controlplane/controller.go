package controlplane

import (
	"fmt"
	"slices"
	"time"

	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/sim"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

// FlowRecord is one Flow-DB entry. It carries its flow's ID, so the
// entry of a recycled data-plane slot never answers for the slot's
// previous tenant.
type FlowRecord struct {
	Flow     packet.FlowID
	Src, Dst topo.NodeID
	Path     []topo.NodeID
	Version  uint32
	SizeK    uint32
	// live is set from RegisterFlowID to UnregisterFlow.
	live bool
}

// UpdateStatus tracks one triggered update for the evaluation.
type UpdateStatus struct {
	Flow    packet.FlowID
	Version uint32
	// Plan is the P4Update preparation result (nil for baselines).
	Plan *Plan
	// NewPath is the path whose establishment completes the update.
	NewPath []topo.NodeID
	// OldPath is the controller's view of the pre-update path; nodes on
	// it that left the path are cleaned up after completion (§11).
	OldPath []topo.NodeID
	// Sent is the virtual time the UIMs left the controller.
	Sent time.Duration
	// AllApplied is the virtual time the last new-path node committed
	// (zero until then).
	AllApplied time.Duration
	// Completed is the virtual time the controller received the probe
	// confirmation that the whole new path is established (zero until
	// then); the paper measures update time as Completed - Sent.
	Completed time.Duration
	// Alarms collects verification alarms raised for this version.
	Alarms []packet.UFM
	// Retriggers counts §11 failure-recovery re-transmissions.
	Retriggers int
	// ProbeRetries counts confirmation probes re-injected after every
	// node committed. Re-probing a fully applied update is one
	// data-plane frame and cannot wedge the protocol, so it is not
	// charged against MaxRetriggers — the budget bounds the expensive
	// full-plan resends only. Without the split, an update that
	// commits cleanly but keeps losing its probe through a long fault
	// window exhausts the budget and never confirms, leaking its flow.
	ProbeRetries int
	// Queued marks an update accepted but deferred behind an ongoing
	// update of the same flow (ez-Segway serializes per flow, §4.2).
	// Version and Sent stay zero until the update launches; the same
	// record is then filled in and tracked to completion.
	Queued bool

	// resend and done are the launching system's hooks (Dispatch).
	resend Sender
	done   func(*UpdateStatus)
	// lastRetrigger is when the controller last consumed retrigger
	// budget for this update. Recovery fires at most once per
	// ProbeTimeout: without the spacing, one watchdog round of
	// StatusStalled reports from every switch on the path drains the
	// whole budget (each resend also resets the switches' stall-report
	// budgets, feeding the burst), leaving nothing for the probe
	// re-injections that finish a long recovery.
	lastRetrigger time.Duration
	// watching is set while a completion watchdog is armed for u.
	watching bool
	// pending holds the nodes whose version-tagged commit is still
	// outstanding, in no particular order: a path's worth of nodes, so
	// a linear scan beats a map. It lives in pendingInline unless the
	// completion set is longer (a destination tree's), so a path
	// update's record is its only allocation.
	pending       []topo.NodeID
	pendingInline [pendingInlineNodes]topo.NodeID
}

// pendingInlineNodes is how many pending nodes an update record holds
// inline: the longest paths the workloads update, B4 under the squall
// storm, reach 10 nodes.
const pendingInlineNodes = 12

// Done reports whether the probe confirmed the update.
func (u *UpdateStatus) Done() bool { return u.Completed > 0 }

// Pending reports whether node n's version-tagged commit is still
// outstanding for this update.
func (u *UpdateStatus) Pending(n topo.NodeID) bool { return slices.Contains(u.pending, n) }

// Controller is the logically centralized control plane.
type Controller struct {
	Eng  *sim.Engine
	Net  *dataplane.Network
	Topo *topo.Topology

	// flows is the Flow DB, indexed by the data-plane slot each flow is
	// interned in (dataplane.Network.FlowSlot): storage is recycled with
	// the slot, so it is sized by live flows, and a lookup by FlowID is
	// the fabric's one interning lookup.
	flows   []FlowRecord
	trees   map[packet.FlowID]*TreeRecord
	updates map[updateKey]*UpdateStatus

	// OnNewFlow, when set, is invoked for Flow Report Messages of
	// unknown flows.
	OnNewFlow func(f packet.FlowID)
	// OnAlarm, when set, observes verification alarms.
	OnAlarm func(u packet.UFM)
	// OnComplete, when set, observes probe-confirmed update completions.
	OnComplete func(u *UpdateStatus)
	// InjectProbeHook, when set, is consulted before the controller
	// injects a §9.1 confirmation probe at the ingress switch. Return
	// true to take over the injection — deployment mode routes the
	// probe request over the wire to the ingress switch's process
	// instead of touching its local (remote-owned) switch replica.
	InjectProbeHook func(u *UpdateStatus) bool
	// MaxRetriggers bounds §11 failure recovery: how many times a stalled
	// update's indications are re-sent (0 disables recovery).
	MaxRetriggers int
	// ProbeTimeout, when nonzero, arms a controller-side watchdog on
	// every launched update: if the update has not completed when the
	// timer fires, the controller re-injects the confirmation probe
	// (once every node applied — a lost probe otherwise stalls
	// completion forever) or re-sends the update (while nodes are still
	// missing — covering the case where every switch-side stall report
	// was itself lost). Each re-send counts against MaxRetriggers, and
	// the watchdog stops once it has nothing left to do, so recovery
	// stays bounded and the engine quiesces.
	ProbeTimeout time.Duration
	// Plans, when set, memoizes plan preparation across trials that
	// share a frozen topology (see internal/plancache and the Planner
	// seam in planner.go). Plans returned from it are shared and must be
	// treated as immutable — which they are: the controller only
	// serializes UIMs, never mutates them.
	Plans Planner

	// UIM batching (BeginUIMBatch/FlushUIMBatch): while batching is on,
	// UIMs sent at Launch are coalesced per target
	// switch and shipped as one UIMBatch frame per switch at flush. The
	// batch scratch and the frame are reused across waves, so a
	// steady-state reroute wave allocates nothing.
	batching   bool
	batchOrder []topo.NodeID
	batchIdx   map[topo.NodeID]int
	batchItems [][]packet.UIM
	batchFrame packet.UIMBatch
	// cln is the cleanup message cleanupStaleRules sends from; like every
	// frame it is serialized before SendToSwitch returns.
	cln packet.CLN
	// planKey is TriggerUpdate's reusable plan-cache key.
	planKey KeyBuf
	// rounds is the registered round executor (NewRoundExecutor); it
	// hears every feedback message.
	rounds *RoundExecutor
	// BatchFrames / BatchedUIMs count flushed frames and the UIMs they
	// carried (experiment reporting).
	BatchFrames uint64
	BatchedUIMs uint64
	// watchdogFn is fireUpdateWatchdog, bound on the first arming: the
	// completion watchdog is scheduled with the *UpdateStatus it checks,
	// so arming it costs no closure.
	watchdogFn func(any)
}

type updateKey struct {
	flow    packet.FlowID
	version uint32
}

// NewController attaches a controller to the network and registers the
// controller-bound receive path and the apply observer.
func NewController(net *dataplane.Network) *Controller {
	c := &Controller{
		Eng:     net.Eng,
		Net:     net,
		Topo:    net.Topo,
		updates: make(map[updateKey]*UpdateStatus),
	}
	net.ControllerRx = c.receive
	net.OnApply = c.onApply
	return c
}

// Flow returns the Flow-DB record for f. The record sits in a table
// indexed by f's data-plane slot: the pointer stays valid until f is
// unregistered or the next RegisterFlow(ID) grows the table, so callers
// re-read it after registering flows.
func (c *Controller) Flow(f packet.FlowID) (*FlowRecord, bool) {
	i, ok := c.Net.FlowSlot(f)
	if !ok {
		return nil, false
	}
	return c.FlowAt(i, f)
}

// FlowAt returns the Flow-DB record in data-plane slot i if it is f's,
// for callers that already walk the slot space (the invariant auditor).
func (c *Controller) FlowAt(i int32, f packet.FlowID) (*FlowRecord, bool) {
	if int(i) >= len(c.flows) {
		return nil, false
	}
	r := &c.flows[i]
	if !r.live || r.Flow != f {
		return nil, false
	}
	return r, true
}

// RegisterFlow records a flow in the Flow DB and seeds its rules in the
// data plane (version 1 initial deployment).
func (c *Controller) RegisterFlow(src, dst topo.NodeID, path []topo.NodeID, sizeK uint32) (packet.FlowID, error) {
	f := packet.HashFlow(uint16(src), uint16(dst))
	if err := c.RegisterFlowID(f, src, dst, path, sizeK); err != nil {
		return 0, err
	}
	return f, nil
}

// RegisterFlowID is RegisterFlow with a caller-chosen flow identifier:
// salted workloads carry several flows per (src, dst) pair, each with
// its own wire ID (traffic.FlowSpec.ID).
func (c *Controller) RegisterFlowID(f packet.FlowID, src, dst topo.NodeID, path []topo.NodeID, sizeK uint32) error {
	if len(path) > 0 && (path[0] != src || path[len(path)-1] != dst) {
		return fmt.Errorf("controlplane: path endpoints do not match flow")
	}
	// InstallPath validates the path against the topology.
	slot, err := c.Net.InstallPath(f, path, 1, sizeK)
	if err != nil {
		return fmt.Errorf("controlplane: RegisterFlow: %w", err)
	}
	i := int(slot)
	if i >= len(c.flows) {
		c.flows = append(c.flows, make([]FlowRecord, i+1-len(c.flows))...)
	}
	c.flows[i] = FlowRecord{Flow: f, Src: src, Dst: dst, Path: path, Version: 1, SizeK: sizeK, live: true}
	return nil
}

// Status returns the tracking record of (flow, version).
func (c *Controller) Status(f packet.FlowID, version uint32) (*UpdateStatus, bool) {
	u, ok := c.updates[updateKey{f, version}]
	return u, ok
}

// TriggerUpdate prepares and pushes a route update of flow f to newPath.
// It returns the tracked status. force pins the update type (nil = §7.5
// auto selection).
func (c *Controller) TriggerUpdate(f packet.FlowID, newPath []topo.NodeID, force *packet.UpdateType) (*UpdateStatus, error) {
	rec, ok := c.Flow(f)
	if !ok {
		return nil, fmt.Errorf("controlplane: unknown flow %d", f)
	}
	version := rec.Version + 1
	plan, err := preparePlanCached(c.Plans, &c.planKey, c.Topo, f, rec.Path, newPath, version, rec.SizeK, force)
	if err != nil {
		return nil, err
	}
	u := &UpdateStatus{Flow: plan.Flow, Version: plan.Version, OldPath: plan.OldPath, NewPath: plan.NewPath, Plan: plan}
	c.Launch(u, Dispatch{Send: plan, Resend: plan})
	return u, nil
}

// Sender transmits an update's instructions through the controller.
type Sender interface {
	Send(c *Controller, u *UpdateStatus)
}

// Dispatch is what an update system hands Controller.Launch besides the
// update's record.
type Dispatch struct {
	// Pending is the completion set: the nodes whose version-tagged
	// commits finish the update (nil = every NewPath node).
	Pending []topo.NodeID
	// Send transmits the update's instructions at launch; nil sends
	// nothing (the system sends on its own schedule).
	Send Sender
	// Resend re-transmits the instructions still outstanding on every
	// §11 retrigger; nil launches the update without loss recovery.
	Resend Sender
	// Done, when set, hears the update's probe confirmation, before
	// OnComplete does.
	Done func(*UpdateStatus)
}

// Launch is the one way an update system starts an update. The caller
// fills u's Flow, Version, OldPath and NewPath (and Plan, for a P4Update
// path plan); u may be a record handed out in the Queued state, so
// callers holding it observe the launch. Launch registers u under
// (Flow, Version), sends d.Send's instructions, moves the flow's Flow-DB
// record to the new configuration (the controller's view of the intended
// state) and arms the completion watchdog. Completion is measured by the
// apply observer plus the probe traversal (§9.1 semantics), identical
// for every evaluated system.
func (c *Controller) Launch(u *UpdateStatus, d Dispatch) {
	pending := d.Pending
	if pending == nil {
		pending = u.NewPath
	}
	u.Sent = c.Eng.Now()
	u.Queued = false
	u.resend, u.done = d.Resend, d.Done
	u.pending = u.pendingInline[:0]
	if len(pending) > cap(u.pending) {
		u.pending = make([]topo.NodeID, 0, len(pending))
	}
	for _, n := range pending {
		if !slices.Contains(u.pending, n) {
			u.pending = append(u.pending, n)
		}
	}
	c.updates[updateKey{u.Flow, u.Version}] = u
	if d.Send != nil {
		d.Send.Send(c, u)
	}
	if rec, ok := c.Flow(u.Flow); ok {
		rec.Path = u.NewPath
		rec.Version = u.Version
	}
	c.armUpdateWatchdog(u)
}

// Send transmits the plan's indications, at launch and on a retrigger.
func (p *Plan) Send(c *Controller, _ *UpdateStatus) {
	for i := range p.UIMs {
		c.send(p.Targets[i], &p.UIMs[i])
	}
}

// send transmits one indication, or adds it to the target's batch while
// batching is on.
func (c *Controller) send(target topo.NodeID, m *packet.UIM) {
	if c.batching {
		c.batchAdd(target, m)
		return
	}
	c.Net.SendToSwitch(target, m, 0)
}

// BeginUIMBatch switches the controller into UIM-batching mode: every
// UIM pushed until FlushUIMBatch is coalesced per destination switch
// instead of transmitted immediately. Non-UIM messages pass through
// unbatched. Used by reroute waves (a wave triggers hundreds of updates
// in the same virtual instant) to amortize marshal and scheduling cost;
// single-update paths never batch, so their timing is untouched.
func (c *Controller) BeginUIMBatch() {
	c.batching = true
	if c.batchIdx == nil {
		c.batchIdx = make(map[topo.NodeID]int)
	}
}

// batchAdd appends one UIM to its target's pending batch, keeping
// first-touch target order so flush transmission order is
// deterministic.
func (c *Controller) batchAdd(target topo.NodeID, m *packet.UIM) {
	bi, ok := c.batchIdx[target]
	if !ok {
		bi = len(c.batchOrder)
		c.batchIdx[target] = bi
		c.batchOrder = append(c.batchOrder, target)
		if bi == len(c.batchItems) {
			c.batchItems = append(c.batchItems, nil)
		}
	}
	c.batchItems[bi] = append(c.batchItems[bi], *m)
}

// FlushUIMBatch transmits every pending batch — one UIMBatch frame per
// target switch, a bare UIM when a target accumulated only one — and
// leaves batching mode. Delivery timing is identical to unbatched
// sends (same instant, same control latency); only the per-message
// marshal/schedule overhead is amortized.
func (c *Controller) FlushUIMBatch() {
	if !c.batching {
		return
	}
	c.batching = false
	for bi, node := range c.batchOrder {
		items := c.batchItems[bi]
		if len(items) == 1 {
			c.Net.SendToSwitch(node, &items[0], 0)
		} else {
			c.batchFrame.Items = items
			c.Net.SendToSwitch(node, &c.batchFrame, 0)
			c.batchFrame.Items = nil
			c.BatchFrames++
			c.BatchedUIMs += uint64(len(items))
		}
		delete(c.batchIdx, node)
		c.batchItems[bi] = items[:0]
	}
	c.batchOrder = c.batchOrder[:0]
}

// UnregisterFlow removes a departed flow from the Flow DB and drops its
// tracked update records, bounding controller memory by live — not
// historical — flows. Data-plane teardown is separate and comes after
// it (dataplane.Network.RetireFlow, which frees the slot the record is
// found by); callers retire only quiescent flows.
func (c *Controller) UnregisterFlow(f packet.FlowID) {
	rec, ok := c.Flow(f)
	if !ok {
		return
	}
	delete(c.trees, f)
	for v := uint32(2); v <= rec.Version+1; v++ {
		delete(c.updates, updateKey{f, v})
	}
	*rec = FlowRecord{}
}

// ForgetUpdate drops the tracking record of one completed (flow,
// version) update. Long-lived flows rerouted many times call this from
// OnComplete so the updates map holds only in-flight work.
func (c *Controller) ForgetUpdate(f packet.FlowID, version uint32) {
	delete(c.updates, updateKey{f, version})
}

// armUpdateWatchdog schedules one end-to-end completion check for u
// (see ProbeTimeout).
func (c *Controller) armUpdateWatchdog(u *UpdateStatus) {
	if c.ProbeTimeout <= 0 {
		return
	}
	if c.watchdogFn == nil {
		c.watchdogFn = c.fireUpdateWatchdog
	}
	u.watching = true
	c.Eng.ScheduleArg(c.ProbeTimeout, c.watchdogFn, u)
}

// fireUpdateWatchdog runs one completion check armed by
// armUpdateWatchdog and re-arms only while it has an action left:
// re-probing a fully applied update (free of budget, see ProbeRetries)
// or re-sending a recoverable one. Otherwise it stops; a straggler
// commit that later empties the pending set re-arms it (onApply).
func (c *Controller) fireUpdateWatchdog(x any) {
	u := x.(*UpdateStatus)
	u.watching = false
	if _, tracked := c.updates[updateKey{u.Flow, u.Version}]; u.Done() || !tracked {
		return // confirmed, or flow retired or update forgotten
	}
	switch {
	case u.AllApplied > 0:
		// Every node committed but the probe confirmation never came
		// back: the probe (a data-plane frame) was lost.
		u.ProbeRetries++
		c.Eng.Trace.Watchdog(trace.NodeController,
			uint32(u.Flow), u.Version, uint32(u.ProbeRetries))
		c.injectProbe(u)
	case c.recoverable(u):
		// Nodes are still missing and no stall report reached us.
		c.Retrigger(u)
	default:
		return
	}
	c.armUpdateWatchdog(u)
}

// recoverable reports whether u has §11 budget left and a resend.
func (c *Controller) recoverable(u *UpdateStatus) bool {
	return u.Retriggers < c.MaxRetriggers && u.resend != nil
}

// Retrigger is the one §11 recovery gate: when u is recoverable and
// outside the ProbeTimeout spacing of its last retrigger, it spends one
// unit of budget on the resend its system launched it with and traces a
// controller Watchdog event. Otherwise it does nothing and charges
// nothing. The completion watchdog and stall reports go through it, and
// so does any other resend of an update's instructions.
func (c *Controller) Retrigger(u *UpdateStatus) {
	if !c.recoverable(u) ||
		(c.ProbeTimeout > 0 && u.Retriggers > 0 && c.Eng.Now()-u.lastRetrigger < c.ProbeTimeout) {
		return
	}
	u.Retriggers++
	u.lastRetrigger = c.Eng.Now()
	c.Eng.Trace.Watchdog(trace.NodeController,
		uint32(u.Flow), u.Version, uint32(u.Retriggers))
	u.resend.Send(c, u)
}

// injectProbe launches the §9.1 confirmation traversal from the
// update's ingress.
func (c *Controller) injectProbe(u *UpdateStatus) {
	ingress := u.NewPath[0]
	if c.InjectProbeHook != nil && c.InjectProbeHook(u) {
		return
	}
	d := c.Net.Pool().GetData()
	*d = packet.Data{Flow: u.Flow, TTL: 64, Probe: true, ProbeVersion: u.Version}
	c.Net.Switch(ingress).InjectData(d)
	c.Net.Pool().PutData(d)
}

// onApply observes rule commits; when the whole new path runs the target
// version, it launches the verification probe from the ingress (§9.1:
// "which we record with a packet traversal").
func (c *Controller) onApply(node topo.NodeID, f packet.FlowID, version uint32) {
	u, ok := c.updates[updateKey{f, version}]
	if !ok {
		return
	}
	i := slices.Index(u.pending, node)
	if i < 0 {
		return
	}
	u.pending[i] = u.pending[len(u.pending)-1]
	u.pending = u.pending[:len(u.pending)-1]
	if len(u.pending) > 0 || u.AllApplied > 0 {
		return
	}
	u.AllApplied = c.Eng.Now()
	c.injectProbe(u)
	if !u.watching {
		// The watchdog stopped with nothing to re-send; it re-probes
		// should this probe be lost.
		c.armUpdateWatchdog(u)
	}
}

// receive is the controller's message sink. Feedback, the bulk of what
// it hears, decodes into a local value; anything else (a flow report, or
// a frame corrupted into another type) takes the general decoder.
func (c *Controller) receive(from topo.NodeID, raw []byte) {
	if len(raw) > 0 && packet.MsgType(raw[0]) == packet.TypeUFM {
		var m packet.UFM
		if m.DecodeFromBytes(raw) != nil {
			return
		}
		c.Eng.Trace.Recv(trace.NodeController, uint8(packet.TypeUFM), int32(from), uint32(m.Flow), m.Version)
		c.handleUFM(&m)
		return
	}
	m, err := packet.Decode(raw)
	if err != nil {
		return
	}
	if tr := c.Eng.Trace; tr != nil {
		flow, ver := dataplane.MsgMeta(m)
		tr.Recv(trace.NodeController, uint8(m.Type()), int32(from), flow, ver)
	}
	if m, ok := m.(*packet.FRM); ok {
		if _, known := c.Flow(m.Flow); !known && c.OnNewFlow != nil {
			c.OnNewFlow(m.Flow)
		}
	}
}

func (c *Controller) handleUFM(m *packet.UFM) {
	if c.rounds != nil {
		c.rounds.ack(m)
	}
	u, ok := c.updates[updateKey{m.Flow, m.Version}]
	switch m.Status {
	case packet.StatusProbeOK:
		if ok && u.Completed == 0 {
			u.Completed = c.Eng.Now()
			c.cleanupStaleRules(u)
			if u.done != nil {
				u.done(u)
			}
			if c.OnComplete != nil {
				c.OnComplete(u)
			}
		}
	case packet.StatusAlarm:
		if ok {
			u.Alarms = append(u.Alarms, *m)
		}
		if c.OnAlarm != nil {
			c.OnAlarm(*m)
		}
	case packet.StatusStalled:
		// §11 failure recovery: a switch holds the indication but the
		// notification chain never arrived — re-send the update so the
		// coordination restarts from the egress.
		if ok && !u.Done() {
			c.Retrigger(u)
		}
	}
}

// cleanupStaleRules implements the §11 rule cleanup: once an update is
// confirmed, the controller removes the flow's rules (and thereby their
// capacity reservations) from old-path nodes that left the path.
func (c *Controller) cleanupStaleRules(u *UpdateStatus) {
	for _, n := range u.OldPath {
		if !slices.Contains(u.NewPath, n) {
			c.cln = packet.CLN{Flow: u.Flow, Version: u.Version}
			c.Net.SendToSwitch(n, &c.cln, 0)
		}
	}
}

// UseCentroidControl places the controller at the topology centroid and
// derives per-switch control latencies from shortest-path propagation
// (§9.1, WAN topologies).
func UseCentroidControl(net *dataplane.Network) {
	lat := net.Topo.ControlLatencies(net.Topo.Centroid())
	net.ControlLatency = func(n topo.NodeID) time.Duration { return lat[n] }
}

// UseSampledControl assigns each switch a control latency drawn once from
// sample (the fat-tree model of §9.1, normal-distribution latencies per
// Huang et al.).
func UseSampledControl(net *dataplane.Network, sample func() time.Duration) {
	lat := make([]time.Duration, net.Topo.NumNodes())
	for i := range lat {
		lat[i] = sample()
	}
	net.ControlLatency = func(n topo.NodeID) time.Duration { return lat[n] }
}
