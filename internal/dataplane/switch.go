package dataplane

import (
	"time"

	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

// Handler implements an update protocol on top of the switch substrate.
// P4Update (internal/core) and the evaluation baselines plug in here.
// A protocol waits only by parking a message (ParkOnUIM, ParkOnCapacity)
// and changes a rule only by staging a commit (Apply); both come back
// through this interface. The message or record a handler is given is
// pool-owned and recycled when the call returns: anything kept past it
// is copied by value.
type Handler interface {
	// HandleUIM processes a controller indication (or baseline
	// instruction encoded as a UIM).
	HandleUIM(sw *Switch, m *packet.UIM)
	// HandleUNM processes a data-plane notification arriving on inPort.
	HandleUNM(sw *Switch, m *packet.UNM, inPort topo.PortID)
	// Resubmit resumes a message parked with ParkOnUIM or ParkOnCapacity
	// once its wait ends: m is the parked copy, inPort the port it was
	// parked with.
	Resubmit(sw *Switch, m packet.Message, inPort topo.PortID)
	// CommitStaged runs when a commit staged with Apply has waited out
	// its install delay on a switch that has not crashed since.
	CommitStaged(sw *Switch, c *StagedCommit)
}

// MessageHandler is an optional Handler extension for protocols with
// additional message types (the evaluation baselines).
type MessageHandler interface {
	HandleMessage(sw *Switch, m packet.Message, inPort topo.PortID)
}

// resubmitLatency models one pass through the BMv2 resubmission path.
const resubmitLatency = 100 * time.Microsecond

// Switch is one P4 forwarding device. Its per-flow and per-port state
// lives in the fabric's register slab and in dense slices instead of
// maps: a flow's state block is found through the holder set of its
// fabric-wide interned slot (Network.flowSlot), a scan of the few
// switches the flow traverses, and ports index by their slot (real
// ports map to themselves, PortLocal to one extra trailing slot).
type Switch struct {
	ID  topo.NodeID
	net *Network
	// degree is the node's port count; port slots are 0..degree-1 for
	// real ports plus slot degree for PortLocal.
	degree int

	reserved []uint64 // kbps reserved per real egress port
	handler  Handler

	// InstallDelay samples the time a forwarding-rule change takes to
	// commit (the per-node update slowness of §9.1). Nil means instant.
	InstallDelay func() time.Duration

	// FRMEnabled makes the switch clone unknown-flow data packets to the
	// controller as Flow Report Messages.
	FRMEnabled bool

	// TwoPhase enables §11 two-phase-commit forwarding: the ingress
	// stamps packets with its committed version; switches forward
	// lower-tagged packets over their retained previous rule, yielding
	// per-packet consistency.
	TwoPhase bool

	// DataTap, when set, observes every data packet entering the switch
	// (used by the Fig-2 per-packet traces).
	DataTap func(sw *Switch, d *packet.Data, inPort topo.PortID)

	// capWaiters queues work parked on insufficient capacity or on the
	// priority gate, indexed by the slot of the egress port it waits for.
	// Work parked until an indication arrives (Alg. 1 line 10 / Alg. 2
	// line 5) queues on its flow's FlowState instead.
	capWaiters []parkQueue
	// highWaiting tracks, per egress-port slot, the HIGH priority flows
	// currently waiting to move onto that port (§7.4 gate). The sets are
	// tiny, so membership is a linear scan. highWaitingN counts their
	// entries, so retiring a flow skips the scan on a switch where no
	// flow waits.
	highWaiting  [][]packet.FlowID
	highWaitingN int

	// down marks the switch crashed (fail-stop): it neither sends nor
	// receives, and its soft state is gone. epoch counts crashes so that
	// commits staged before a crash (already in the event queue)
	// recognize they belong to a dead incarnation.
	down  bool
	epoch uint32

	Stats Stats
}

// newSwitches builds net's switch set, indexed by NodeID, in one go:
// the switches share one array, and their per-port slices are carved
// (with capped capacity) out of one backing array each.
func newSwitches(net *Network) []*Switch {
	nodes := net.Topo.Nodes()
	ports := 0
	for _, id := range nodes {
		ports += net.Topo.Degree(id)
	}
	all := make([]Switch, len(nodes))
	out := make([]*Switch, net.Topo.NumNodes())
	reserved := make([]uint64, ports)
	capWaiters := make([]parkQueue, ports+len(nodes))
	highWaiting := make([][]packet.FlowID, ports+len(nodes))
	for i, id := range nodes {
		deg := net.Topo.Degree(id)
		sw := &all[i]
		sw.ID, sw.net, sw.degree = id, net, deg
		sw.reserved, reserved = reserved[:deg:deg], reserved[deg:]
		sw.capWaiters, capWaiters = capWaiters[:deg+1:deg+1], capWaiters[deg+1:]
		sw.highWaiting, highWaiting = highWaiting[:deg+1:deg+1], highWaiting[deg+1:]
		out[id] = sw
	}
	return out
}

// reset returns the switch to its freshly built state (see
// Network.Reset): every field but its identity and port layout is
// zeroed.
func (sw *Switch) reset() {
	clear(sw.reserved)
	sw.handler = nil
	sw.InstallDelay = nil
	sw.FRMEnabled = false
	sw.TwoPhase = false
	sw.DataTap = nil
	clear(sw.capWaiters)
	for s := range sw.highWaiting {
		sw.highWaiting[s] = sw.highWaiting[s][:0]
	}
	sw.highWaitingN = 0
	sw.down = false
	sw.epoch = 0
	sw.Stats = Stats{}
}

// portSlot maps an egress port to its dense slot: real ports map to
// themselves, PortLocal to the extra trailing slot, and any other
// sentinel (topo.InvalidPort) to -1, meaning no slot — no capacity, no
// waiters.
func (sw *Switch) portSlot(port topo.PortID) int {
	if port >= 0 && int(port) < sw.degree {
		return int(port)
	}
	if port == PortLocal {
		return sw.degree
	}
	return -1
}

// SetHandler installs the update-protocol handler.
func (sw *Switch) SetHandler(h Handler) { sw.handler = h }

// Network returns the fabric the switch is attached to.
func (sw *Switch) Network() *Network { return sw.net }

// Tracer returns the trial's flight recorder (nil = tracing off); the
// protocol handlers record their verdicts through it.
func (sw *Switch) Tracer() *trace.Recorder { return sw.net.Eng.Trace }

// recordRecv logs a decoded inbound protocol frame, resolving the
// arrival port to the peer node (controller frames arrive portless).
func (sw *Switch) recordRecv(tr *trace.Recorder, m packet.Message, inPort topo.PortID) {
	peer := int32(NodeController)
	if inPort >= 0 {
		if nb, ok := sw.net.Topo.NeighborAt(sw.ID, inPort); ok {
			peer = int32(nb)
		}
	}
	if b, ok := m.(*packet.UIMBatch); ok {
		for i := range b.Items {
			tr.Recv(int32(sw.ID), uint8(packet.TypeUIM), peer, uint32(b.Items[i].Flow), b.Items[i].Version)
		}
		return
	}
	f, v := MsgMeta(m)
	tr.Recv(int32(sw.ID), uint8(m.Type()), peer, f, v)
}

// State returns the flow's register slice for a protocol handler,
// allocating fresh-node state on first touch, with its update context
// attached. The returned pointer stays stable until the flow retires;
// a handler keeps it no longer than the call (a staged commit names
// the flow and looks its registers up again).
func (sw *Switch) State(f packet.FlowID) *FlowState {
	st, _ := sw.stateSlot(f)
	return st
}

// stateSlot is State for the writers of forwarding registers: it also
// returns the flow's dense slot, whose revision they bump, so a commit
// pays for one interner lookup, not two.
func (sw *Switch) stateSlot(f packet.FlowID) (*FlowState, int32) {
	i := sw.net.flowSlot(f)
	st := sw.stateIn(i)
	if st.UpdateContext == nil {
		st.UpdateContext = sw.net.contexts.get()
	}
	return st, i
}

// stateIn is the register block of a flow already interned in dense
// slot i, allocated on first touch without an update context.
func (sw *Switch) stateIn(i int32) *FlowState {
	hs := &sw.net.flows.holders[i]
	r, k := hs.find(sw.ID)
	if r == 0 {
		r = sw.net.states.get()
		hs.insert(k, sw.ID, r)
	}
	return sw.net.states.at(r)
}

// PeekState returns the flow's register slice without allocating; its
// UpdateContext may be nil.
func (sw *Switch) PeekState(f packet.FlowID) (*FlowState, bool) {
	if i, ok := sw.net.FlowSlot(f); ok {
		if r := sw.net.flows.holders[i].ref(sw.ID); r != 0 {
			return sw.net.states.at(r), true
		}
	}
	return nil, false
}

// Flows returns the IDs of all flows with state on this switch, in
// deterministic fabric-interning order.
func (sw *Switch) Flows() []packet.FlowID {
	var out []packet.FlowID
	for i := range sw.net.flows.holders {
		if sw.net.flows.holders[i].ref(sw.ID) != 0 {
			out = append(out, sw.net.flows.id(int32(i)))
		}
	}
	return out
}

// Pool returns the per-network message/buffer pool, so protocol
// handlers can draw short-lived messages from it instead of allocating.
func (sw *Switch) Pool() *packet.Pool { return &sw.net.pool }

// FlowStateAt returns the switch's state block for the fabric-wide flow
// index i (the slot Network.FlowAt names), or nil if the flow never
// touched this switch. It exists so the invariant auditor can scan
// per-flow state without a map lookup per (node, flow) pair; callers must
// treat the result as read-only (a write to a forwarding register would
// also have to bump the slot's revision, see FlowState).
func (sw *Switch) FlowStateAt(i int) *FlowState {
	if hs := sw.net.flows.holders; i >= 0 && i < len(hs) {
		if r := hs[i].ref(sw.ID); r != 0 {
			return sw.net.states.at(r)
		}
	}
	return nil
}

// retireFlow tears down the flow occupying dense slot i on this switch,
// whose state block is r: it returns any staged capacity reservations
// and then the committed rule's, clears waiter-table membership, and
// recycles the update context, if any, and the state block. Called by
// Network.RetireFlow, for quiescent flows and only on switches in the
// slot's holder set; RetireFlow empties the set afterwards.
func (sw *Switch) retireFlow(i int32, f packet.FlowID, r stateRef) {
	st := sw.net.states.at(r)
	if ctx := st.UpdateContext; ctx != nil {
		for _, pr := range ctx.PendingRes {
			sw.Release(pr.Port, pr.SizeK)
		}
		sw.net.dropParked(&ctx.uimWait)
		sw.net.contexts.put(ctx)
	}
	if st.HasRule {
		sw.Release(st.EgressPort, st.FlowSizeK)
	}
	for s := 0; sw.highWaitingN > 0 && s < len(sw.highWaiting); s++ {
		set := sw.highWaiting[s]
		for j, g := range set {
			if g == f {
				sw.highWaiting[s] = append(set[:j], set[j+1:]...)
				sw.highWaitingN--
				break
			}
		}
	}
	sw.net.flows.bump(i)
	sw.net.states.put(r)
}

// Receive is the switch's pipeline entry point: it parses the frame and
// dispatches on message type. inPort is the arrival port, or
// topo.InvalidPort for frames from the controller or host side.
//
// Every decoded message is pool-owned and recycled once dispatch
// returns: a handler that keeps anything beyond the call (an indication,
// a parked message, a staged commit) copies it by value.
func (sw *Switch) Receive(raw []byte, inPort topo.PortID) {
	m, err := sw.net.pool.Decode(raw)
	if err != nil {
		sw.Stats.DecodeErrors++
		return
	}
	if tr := sw.net.Eng.Trace; tr != nil && m.Type() != packet.TypeData {
		sw.recordRecv(tr, m, inPort)
	}
	switch m := m.(type) {
	case *packet.Data:
		sw.handleData(m, inPort)
		sw.net.pool.PutData(m)
	case *packet.UIM:
		sw.Stats.UIMReceived++
		if sw.handler != nil {
			sw.handler.HandleUIM(sw, m)
		}
		sw.net.pool.Recycle(m)
	case *packet.UNM:
		sw.Stats.UNMReceived++
		if sw.handler != nil {
			sw.handler.HandleUNM(sw, m, inPort)
		}
		sw.net.pool.PutUNM(m)
	case *packet.CLN:
		sw.handleCleanup(m)
		sw.net.pool.Recycle(m)
	case *packet.UIMBatch:
		// Unpack and dispatch each indication as if it arrived alone.
		for i := range m.Items {
			sw.Stats.UIMReceived++
			if sw.handler != nil {
				sw.handler.HandleUIM(sw, &m.Items[i])
			}
		}
		sw.net.pool.Recycle(m)
	default:
		// Baseline protocols define extra message types; hand them to the
		// handler when it supports them, else drop.
		if mh, ok := sw.handler.(MessageHandler); ok {
			mh.HandleMessage(sw, m, inPort)
			sw.net.pool.Recycle(m)
			return
		}
		sw.Stats.DecodeErrors++
	}
}

// handleData runs the forwarding pipeline for a data packet. Probe
// packets forward exactly like data; the egress reports their arrival to
// the controller (the measurement traversal of §9.1 — it is injected only
// once every tracked switch has applied, so no per-hop version check is
// needed and the same mechanism measures every evaluated system).
func (sw *Switch) handleData(d *packet.Data, inPort topo.PortID) {
	if sw.DataTap != nil {
		sw.DataTap(sw, d, inPort)
	}
	st, ok := sw.PeekState(d.Flow)
	if !ok || !st.HasRule {
		if sw.FRMEnabled {
			sw.net.SendToController(sw.ID, &packet.FRM{Flow: d.Flow})
		}
		sw.Stats.BlackholeDrops++
		return
	}
	out := st.EgressPort
	if sw.TwoPhase {
		if inPort == topo.InvalidPort && d.Tag == 0 {
			// Host-side arrival at the ingress: stamp the committed
			// version (the "tag flip" happens implicitly because the
			// ingress is updated last in a single-layer update).
			d.Tag = st.NewVersion
		}
		if d.Tag != 0 && d.Tag < st.NewVersion && st.PrevValid {
			out = st.PrevEgressPort // previous configuration's rule
		}
	}
	if out == PortLocal {
		sw.Stats.DataDelivered++
		if d.Probe {
			sw.SendUFM(packet.UFM{
				Flow: d.Flow, Version: d.ProbeVersion, Status: packet.StatusProbeOK,
			})
		}
		if sw.net.OnDeliver != nil {
			sw.net.OnDeliver(sw.ID, d)
		}
		return
	}
	if d.TTL <= 1 {
		sw.Stats.TTLDrops++
		return
	}
	// Forward a pooled copy: SendPort serializes synchronously, so the
	// struct can be recycled as soon as it returns, and the caller's d
	// (possibly host-owned via InjectData) is never mutated.
	fwd := sw.net.pool.GetData()
	*fwd = *d
	fwd.TTL = d.TTL - 1
	sw.Stats.DataForwarded++
	sw.net.SendPort(sw.ID, out, fwd)
	sw.net.pool.PutData(fwd)
}

// handleCleanup removes the flow's stale rule (§11 "Rule Cleanup"): only
// rules strictly older than the cleanup version, not locally delivering,
// and not covered by a pending indication are removed; their capacity is
// released.
func (sw *Switch) handleCleanup(m *packet.CLN) {
	i, ok := sw.net.FlowSlot(m.Flow)
	if !ok {
		return
	}
	st := sw.FlowStateAt(int(i))
	if st == nil || !st.HasRule {
		return
	}
	if st.EgressPort == PortLocal {
		return // never remove the egress delivery rule
	}
	if st.NewVersion >= m.Version || st.IndicatedVersion >= m.Version {
		return // rule belongs to this or a newer configuration
	}
	sw.Release(st.EgressPort, st.FlowSizeK)
	st.HasRule = false
	st.EgressPort = topo.InvalidPort
	st.EgressPortUpdated = topo.InvalidPort
	st.NewDistance = FreshDistance
	st.PrevValid = false
	sw.net.flows.bump(i)
	sw.Stats.RulesCleaned++
}

// InjectData delivers a host-originated data packet into the pipeline.
// A crashed switch drops host traffic at the port.
func (sw *Switch) InjectData(d *packet.Data) {
	if sw.down {
		return
	}
	sw.handleData(d, topo.InvalidPort)
}

// SendUNM clones a notification out the given port (the clone-session
// primitive of §8). Sending to an invalid port is a silent no-op so
// handlers can pass a UIM's ChildPort through unconditionally.
func (sw *Switch) SendUNM(port topo.PortID, m *packet.UNM) {
	if port < 0 {
		return
	}
	sw.net.SendPort(sw.ID, port, m)
}

// SendUFM clones a feedback message to the controller, stamped with the
// switch's ID. The message is passed by value and sent from a pooled
// struct, so reporting allocates nothing.
func (sw *Switch) SendUFM(m packet.UFM) {
	u := sw.net.pool.GetUFM()
	*u = m
	u.Node = uint16(sw.ID)
	sw.net.SendToController(sw.ID, u)
	sw.net.pool.PutUFM(u)
}

// Alarm reports an inconsistent update to the controller (the "drop UNM,
// inform controller" arms of Alg. 1/Alg. 2).
func (sw *Switch) Alarm(f packet.FlowID, version uint32, reason packet.AlarmReason) {
	sw.Stats.AlarmsSent++
	sw.net.Eng.Trace.Alarm(int32(sw.ID), uint8(reason), uint32(f), version)
	sw.SendUFM(packet.UFM{
		Flow: f, Version: version, Status: packet.StatusAlarm, Reason: reason,
	})
}

// ParkOnUIM holds a copy of m (a UNM, UIM or EZN) until a (newer)
// indication for its flow arrives, then hands it to the handler's
// Resubmit with inPort; the P4 prototype realizes this wait by packet
// resubmission.
func (sw *Switch) ParkOnUIM(m packet.Message, inPort topo.PortID) {
	f, _ := MsgMeta(m)
	sw.net.park(&sw.State(packet.FlowID(f)).uimWait, sw, m, inPort)
}

// WakeUIMWaiters re-injects work parked on the flow's indication.
func (sw *Switch) WakeUIMWaiters(f packet.FlowID) {
	if st, ok := sw.PeekState(f); ok && st.UpdateContext != nil {
		sw.wake(&st.uimWait)
	}
}

// ParkOnCapacity holds a copy of m until capacity conditions on port
// change (release or waiter-set shrink), then resubmits it like
// ParkOnUIM.
func (sw *Switch) ParkOnCapacity(port topo.PortID, m packet.Message, inPort topo.PortID) {
	if s := sw.portSlot(port); s >= 0 {
		sw.net.park(&sw.capWaiters[s], sw, m, inPort)
	}
}

// wakeCapacityWaiters re-injects work parked on port.
func (sw *Switch) wakeCapacityWaiters(port topo.PortID) {
	if s := sw.portSlot(port); s >= 0 {
		sw.wake(&sw.capWaiters[s])
	}
}

// wake empties q and schedules each parked piece of work one
// resubmission pass later, in parking order. The queue is reset before
// scheduling; the work runs later, off the engine, never reentrantly here.
func (sw *Switch) wake(q *parkQueue) {
	for w := takeParked(q); w != nil; {
		next := w.next
		w.next = nil
		sw.Stats.Resubmissions++
		sw.net.Eng.ScheduleArg(resubmitLatency, sw.net.resubmitFn, w)
		w = next
	}
}

// CapacityK returns the capacity of the link at port in kbps
// (0 for PortLocal, which is uncapacitated).
func (sw *Switch) CapacityK(port topo.PortID) uint64 {
	if port < 0 {
		return 0
	}
	l, ok := sw.net.Topo.LinkAt(sw.ID, port)
	if !ok {
		return 0
	}
	return uint64(l.Capacity * 1000)
}

// ReservedK returns the kbps currently reserved on port.
func (sw *Switch) ReservedK(port topo.PortID) uint64 {
	if port < 0 || int(port) >= len(sw.reserved) {
		return 0
	}
	return sw.reserved[port]
}

// RemainingK returns the unreserved kbps on port.
func (sw *Switch) RemainingK(port topo.PortID) uint64 {
	c := sw.CapacityK(port)
	r := sw.ReservedK(port)
	if r >= c {
		return 0
	}
	return c - r
}

// Reserve books sizeK on port (no-op for local delivery).
func (sw *Switch) Reserve(port topo.PortID, sizeK uint32) {
	if port < 0 || int(port) >= len(sw.reserved) {
		return
	}
	sw.reserved[port] += uint64(sizeK)
}

// Release frees sizeK on port and wakes capacity waiters.
func (sw *Switch) Release(port topo.PortID, sizeK uint32) {
	if port < 0 || int(port) >= len(sw.reserved) {
		return
	}
	if sw.reserved[port] <= uint64(sizeK) {
		sw.reserved[port] = 0
	} else {
		sw.reserved[port] -= uint64(sizeK)
	}
	sw.wakeCapacityWaiters(port)
}

// HasCapacityWaiters reports whether any message is parked waiting for
// capacity on port (input to the dynamic priority rule of §7.4).
func (sw *Switch) HasCapacityWaiters(port topo.PortID) bool {
	s := sw.portSlot(port)
	return s >= 0 && sw.capWaiters[s].newest != nil
}

// StageReservation books capacity for an in-flight rule install of flow f
// so later gate decisions see it; CommitRule consumes it.
func (sw *Switch) StageReservation(f packet.FlowID, port topo.PortID, sizeK uint32, version uint32) {
	sw.Reserve(port, sizeK)
	st := sw.State(f)
	st.PendingRes = append(st.PendingRes, PendingReservation{Port: port, SizeK: sizeK, Version: version})
}

// MarkHighWaiting records that flow f (high priority) waits to move onto
// port; the §7.4 gate blocks low-priority flows while the set is nonempty.
func (sw *Switch) MarkHighWaiting(port topo.PortID, f packet.FlowID) {
	s := sw.portSlot(port)
	if s < 0 {
		return
	}
	for _, g := range sw.highWaiting[s] {
		if g == f {
			return
		}
	}
	sw.highWaiting[s] = append(sw.highWaiting[s], f)
	sw.highWaitingN++
}

// ClearHighWaiting removes f from port's high-priority waiter set and
// wakes parked flows.
func (sw *Switch) ClearHighWaiting(port topo.PortID, f packet.FlowID) {
	s := sw.portSlot(port)
	if s < 0 {
		return
	}
	set := sw.highWaiting[s]
	for i, g := range set {
		if g == f {
			sw.highWaiting[s] = append(set[:i], set[i+1:]...)
			sw.highWaitingN--
			sw.wakeCapacityWaiters(port)
			return
		}
	}
}

// HighWaitingOn reports whether any high-priority flow other than f waits
// to move onto port.
func (sw *Switch) HighWaitingOn(port topo.PortID, f packet.FlowID) bool {
	s := sw.portSlot(port)
	if s < 0 {
		return false
	}
	for _, g := range sw.highWaiting[s] {
		if g != f {
			return true
		}
	}
	return false
}

// RaisePriorityOfMoversFrom marks every flow that currently occupies port
// and has a pending move away from it as high priority (§7.4: "all flows
// that desire to move away from e obtain high priority"). Iteration is in
// fabric-interning order, so the marking order is deterministic. A flow
// without an update context has no indication and so no pending move.
func (sw *Switch) RaisePriorityOfMoversFrom(port topo.PortID) {
	for i := range sw.net.flows.holders {
		st := sw.FlowStateAt(i)
		if st == nil || st.UpdateContext == nil || !st.HasRule || st.EgressPort != port {
			continue
		}
		if st.UIM != nil && st.UIM.Version > st.NewVersion {
			st.Priority = PriorityHigh
			dest := PortFromWire(st.UIM.EgressPort)
			if tr := sw.net.Eng.Trace; tr != nil {
				tr.Verdict(int32(sw.ID), trace.CodePriorityPromote,
					uint32(sw.net.flows.id(int32(i))), st.UIM.Version, uint32(int32(dest)), uint32(int32(port)))
			}
			sw.MarkHighWaiting(dest, sw.net.flows.id(int32(i)))
		}
	}
}

// registerWriteDelay models a pure register update (no table change).
const registerWriteDelay = 50 * time.Microsecond

// installDelay samples how long a staged change takes to commit.
func (sw *Switch) installDelay(portChanged bool) time.Duration {
	if portChanged && sw.InstallDelay != nil {
		return sw.InstallDelay()
	}
	return registerWriteDelay
}

// StagedCommit is a rule install waiting out the switch's install delay,
// a pooled record: the indication it installs, held by value so an
// indication arriving meanwhile cannot change it, and the Table-1 labels
// verification chose for it. It names its flow, not the flow's register
// block: a handler resolves the registers when the commit runs
// (Switch.State), since the flow may have retired meanwhile and its
// block gone to another flow.
type StagedCommit struct {
	Flow       packet.FlowID
	UIM        packet.UIM
	OldVersion uint32
	Inherited  uint16
	Counter    uint16
	// Proto is protocol-specific install data beyond the indication
	// (ez-Segway's instruction, which is not a UIM).
	Proto any

	sw    *Switch
	epoch uint32
}

// StageCommit returns a zeroed record for Apply.
func (sw *Switch) StageCommit() *StagedCommit { return sw.net.commits.get() }

// Apply stages the forwarding-state change c (a record from StageCommit)
// and, after the install delay, hands it to the handler's CommitStaged —
// unless the switch crashed in between: the install belonged to the dead
// incarnation and must not touch the ASIC. portChanged selects the cost
// model: a forwarding-table rewrite pays the (possibly sampled) install
// delay, while a register-only relabel is a fast data-plane write.
// CommitStaged must re-validate against the registers, because a higher
// version may have won the race meanwhile.
func (sw *Switch) Apply(portChanged bool, c *StagedCommit) {
	c.sw, c.epoch = sw, sw.epoch
	sw.net.Eng.ScheduleArg(sw.installDelay(portChanged), sw.net.commitFn, c)
}

// Crash takes the switch offline in the fail-stop model §11 assumes:
// committed forwarding rules and capacity reservations persist (they
// live in the ASIC), but every piece of in-flight soft state is lost —
// parked work, staged indications, pending install reservations, and
// scheduled commits (invalidated via the epoch counter). While down the
// switch neither transmits nor receives.
func (sw *Switch) Crash() {
	if sw.down {
		return
	}
	sw.down = true
	sw.epoch++
	sw.net.outageRev++
	sw.net.Eng.Trace.Crash(int32(sw.ID), sw.epoch)
	// Clear waiter lists before releasing staged reservations so the
	// releases' wakeCapacityWaiters find nothing to reschedule.
	for i := range sw.capWaiters {
		sw.net.dropParked(&sw.capWaiters[i])
		sw.highWaiting[i] = sw.highWaiting[i][:0]
	}
	sw.highWaitingN = 0
	for i := range sw.net.flows.holders {
		st := sw.FlowStateAt(i)
		if st == nil {
			continue
		}
		if ctx := st.UpdateContext; ctx != nil {
			sw.net.dropParked(&ctx.uimWait)
			for _, pr := range ctx.PendingRes {
				sw.Release(pr.Port, pr.SizeK)
			}
			ctx.PendingRes = ctx.PendingRes[:0]
			ctx.ChildPorts.Reset()
			ctx.Applying = false
			ctx.ApplyingVersion = 0
			ctx.StallReports = 0
		}
		st.UIM = nil
		st.Priority = PriorityLow
		// Indication registers are soft state too: fall back to the
		// committed version so a retransmitted indication is accepted
		// afresh after restart.
		st.IndicatedVersion = st.NewVersion
	}
}

// Restore brings a crashed switch back online: committed rules intact,
// soft state empty. The controller's stall/retrigger machinery is what
// re-drives any update the crash interrupted.
func (sw *Switch) Restore() {
	if !sw.down {
		return
	}
	sw.down = false
	sw.net.outageRev++
	sw.net.Eng.Trace.Restore(int32(sw.ID), sw.epoch)
}

// Down reports whether the switch is currently crashed.
func (sw *Switch) Down() bool { return sw.down }

// CommitRule flips the flow's forwarding to the staged configuration from
// uim: it moves the capacity reservation, updates the Table-1 registers
// (old_version/old_distance receive the caller-supplied values — the
// previous configuration for single-layer, the inherited labels for
// dual-layer) and bumps Stats. Callers are responsible for verification;
// CommitRule only refuses to move backwards in version.
func (sw *Switch) CommitRule(f packet.FlowID, uim *packet.UIM, oldVersion uint32, inherited uint16, counter uint16) bool {
	return sw.CommitState(f, Commit{
		Port:        PortFromWire(uim.EgressPort),
		Version:     uim.Version,
		Distance:    uim.NewDistance,
		OldVersion:  oldVersion,
		OldDistance: inherited,
		SizeK:       uim.FlowSizeK,
		Type:        uim.UpdateType,
		Counter:     counter,
	})
}

// Commit describes a forwarding-state transition for CommitState.
type Commit struct {
	Port        topo.PortID
	Version     uint32
	Distance    uint16
	OldVersion  uint32
	OldDistance uint16
	SizeK       uint32
	Type        packet.UpdateType
	Counter     uint16
}

// CommitState is the protocol-agnostic commit primitive behind CommitRule.
func (sw *Switch) CommitState(f packet.FlowID, c Commit) bool {
	st, slot := sw.stateSlot(f)
	if st.HasRule && c.Version <= st.NewVersion {
		// A newer (or same) version already committed: return any
		// reservation staged for this superseded install.
		keep := st.PendingRes[:0]
		for _, pr := range st.PendingRes {
			if pr.Version <= st.NewVersion {
				sw.Release(pr.Port, pr.SizeK)
			} else {
				keep = append(keep, pr)
			}
		}
		st.PendingRes = keep
		return false
	}
	oldPort := st.EgressPort
	oldSize := st.FlowSizeK
	if st.HasRule {
		sw.Release(oldPort, oldSize)
	}
	// Consume the reservation staged for this install (if any); stale
	// staged reservations of superseded versions are returned.
	reservedAlready := false
	keep := st.PendingRes[:0]
	for _, pr := range st.PendingRes {
		switch {
		case !reservedAlready && pr.Version == c.Version && pr.Port == c.Port && pr.SizeK == c.SizeK:
			reservedAlready = true
		case pr.Version <= c.Version:
			sw.Release(pr.Port, pr.SizeK)
		default:
			keep = append(keep, pr)
		}
	}
	st.PendingRes = keep
	if !reservedAlready {
		sw.Reserve(c.Port, c.SizeK)
	}

	if st.HasRule {
		st.PrevEgressPort = oldPort
		st.PrevValid = true
	}
	st.OldVersion = c.OldVersion
	st.OldDistance = c.OldDistance
	st.NewVersion = c.Version
	st.NewDistance = c.Distance
	st.EgressPort = c.Port
	st.EgressPortUpdated = c.Port
	st.FlowSizeK = c.SizeK
	st.LastType = c.Type
	st.Counter = c.Counter
	st.HasRule = true
	sw.net.flows.bump(slot)
	st.Applying = false
	st.Priority = PriorityLow
	sw.ClearHighWaiting(c.Port, f)
	sw.Stats.RulesApplied++
	if tr := sw.net.Eng.Trace; tr != nil {
		tr.Commit(int32(sw.ID), uint32(f), c.Version, int32(c.Port), uint32(c.Distance))
	}
	if sw.net.OnApply != nil {
		sw.net.OnApply(sw.ID, f, c.Version)
	}
	return true
}

// InstallInitialRule seeds a flow rule outside the update protocol (used
// to set up experiment start states). It reserves capacity and marks the
// rule as version/distance labelled.
func (sw *Switch) InstallInitialRule(f packet.FlowID, port topo.PortID, version uint32, distance uint16, sizeK uint32) {
	sw.installInitialRule(sw.net.flowSlot(f), port, version, distance, sizeK)
}

// installInitialRule is InstallInitialRule for a flow already interned
// in dense slot slot.
func (sw *Switch) installInitialRule(slot int32, port topo.PortID, version uint32, distance uint16, sizeK uint32) {
	st := sw.stateIn(slot)
	if st.HasRule {
		sw.Release(st.EgressPort, st.FlowSizeK)
	}
	sw.net.flows.bump(slot)
	st.EgressPort = port
	st.EgressPortUpdated = port
	st.NewVersion = version
	st.NewDistance = distance
	st.OldVersion = version
	st.OldDistance = distance
	st.FlowSizeK = sizeK
	st.LastType = packet.UpdateSingle
	st.HasRule = true
	sw.Reserve(port, sizeK)
}
