package dataplane

import (
	"fmt"
	"time"

	"p4update/internal/packet"
	"p4update/internal/sim"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

// FaultClass classifies a frame for emit and the fault injector: the
// three transmission paths of the fabric are faultable independently.
type FaultClass uint8

// Fault classes.
const (
	// FaultData is a switch-to-switch frame (SendPort).
	FaultData FaultClass = iota
	// FaultControlUp is a switch-to-controller frame (SendToController).
	FaultControlUp
	// FaultControlDown is a controller-to-switch frame (SendToSwitch).
	FaultControlDown
)

// FaultAction is the injector's verdict on one frame about to be
// transmitted.
type FaultAction struct {
	// Drop discards the frame.
	Drop bool
	// Duplicate delivers a second copy one millisecond after the first
	// (at-least-once delivery).
	Duplicate bool
	// Delay adds latency to the frame: small values model jitter, values
	// above the link latency reorder the frame behind later traffic.
	Delay time.Duration
}

// FaultInjector decides the fate of every frame delivered inside this
// process. It is the fabric's one fault seam: internal/faults is the
// implementation every harness attaches, and a test that needs a
// frame's content (a sniffer, a hand-picked byte flip) implements it
// directly. The controller end of a control-channel frame is
// NodeController.
type FaultInjector interface {
	// Inspect may corrupt the frame by rewriting raw in place. The
	// returned slice must alias raw's allocation (in-place edits or
	// truncation only): the buffer is pooled and recycled after its last
	// delivery.
	Inspect(class FaultClass, from, to topo.NodeID, raw []byte) ([]byte, FaultAction)
}

// Network is the fabric connecting the switches of one topology and
// their controller. Every frame — switch to switch, switch to
// controller, controller to switch — goes through one transmission path
// (emit) with two seams on it: Proc routes frames that leave the process,
// Faults loses, delays, duplicates or corrupts the ones that stay. The
// OnApply/OnDeliver observers are measurement only.
type Network struct {
	Eng  *sim.Engine
	Topo *topo.Topology

	switches []*Switch

	// ControlLatency returns the control-channel latency between the
	// controller and the given switch (one direction).
	ControlLatency func(node topo.NodeID) time.Duration

	// ControllerRx receives controller-bound messages (FRM/UFM).
	ControllerRx func(from topo.NodeID, raw []byte)

	// Faults, when set, is consulted for every frame of all three
	// classes that is delivered inside this process. Nil is a lossless,
	// in-order fabric.
	Faults FaultInjector

	// Proc, when set, splits the fabric across OS processes (deployment
	// mode): a frame addressed to a party this process does not own
	// leaves through the transport instead of the in-memory delivery
	// queue.
	Proc Transport

	// OnApply observes committed rule changes (measurement only).
	OnApply func(node topo.NodeID, f packet.FlowID, version uint32)
	// OnDeliver observes local data-packet delivery at an egress.
	OnDeliver func(node topo.NodeID, d *packet.Data)

	// pool recycles message structs and marshal buffers; frames drawn
	// from it live only until Receive/ControllerRx return.
	pool packet.Pool
	// deliveries, parks and commits hold the records of the update path's
	// in-flight work: frames on the wire, work parked for resubmission and
	// rule installs waiting out their delay. Each is scheduled through
	// ScheduleArg with a method value bound once (deliverFn, resubmitFn,
	// commitFn), so none of them costs a closure.
	deliveries slab[delivery]
	parks      slab[parked]
	commits    slab[StagedCommit]
	deliverFn  func(any)
	resubmitFn func(any)
	commitFn   func(any)

	// flows interns flow IDs into dense indexes shared by every switch of
	// the fabric and records which switches hold state for each (see
	// flowTable).
	flows *flowTable
	// contexts holds the update contexts of every switch's flows (see
	// FlowState).
	contexts contextPool
	// outageRev counts switch Crash and Restore transitions: whatever was
	// derived from which switches are up is stale once it moves.
	outageRev uint32
}

// flowTable interns flow IDs into dense indexes in first-touch order,
// with a free list so retired flows' slots are recycled: under
// streaming churn the table is sized by *live* flows, not by every flow
// that ever existed. Each slot's holder set (holders, parallel to
// slots) names the switches holding a state block for its flow, so
// per-switch state is sized by the flows that traverse the switch.
// Like the engine it serves, the table is single-threaded and lock-free.
type flowTable struct {
	idx     map[packet.FlowID]int32
	slots   []slotEntry
	holders []holderSet
	free    []int32 // recycled slots, LIFO
}

// slotEntry is one entry of the dense slot space.
type slotEntry struct {
	id   packet.FlowID // dead slots hold their last ID
	live bool
	// rev is the slot's forwarding revision (see FlowState): it moves
	// whenever any switch writes one of the slot's forwarding registers,
	// and when the slot changes tenant.
	rev uint32
}

func (t *flowTable) slot(f packet.FlowID) int32 {
	if i, ok := t.idx[f]; ok {
		return i
	}
	var i int32
	if k := len(t.free); k > 0 {
		i = t.free[k-1]
		t.free = t.free[:k-1]
		t.slots[i].id = f
		t.slots[i].live = true
		t.bump(i)
	} else {
		i = int32(len(t.slots))
		t.slots = append(t.slots, slotEntry{id: f, live: true})
		t.holders = append(t.holders, holderSet{})
	}
	t.idx[f] = i
	return i
}

// bump advances slot i's forwarding revision; every writer of a
// forwarding register (see FlowState) calls it.
func (t *flowTable) bump(i int32) { t.slots[i].rev++ }

// release frees f's slot for reuse. The (f, i) pair is re-checked so a
// stale release can never free a reassigned slot.
func (t *flowTable) release(f packet.FlowID, i int32) {
	if j, ok := t.idx[f]; !ok || j != i {
		return
	}
	delete(t.idx, f)
	t.slots[i].live = false
	t.free = append(t.free, i)
}

// reset empties the table, keeping its capacity.
func (t *flowTable) reset() {
	clear(t.idx)
	t.slots = t.slots[:0]
	t.holders = t.holders[:0]
	t.free = t.free[:0]
}

func (t *flowTable) peek(f packet.FlowID) (int32, bool) {
	i, ok := t.idx[f]
	return i, ok
}

func (t *flowTable) id(i int32) packet.FlowID {
	return t.slots[i].id
}

// slab hands out records from blocks it allocates itself and recycles
// them through a free list, so a trial pays one allocation per block of
// concurrently live records rather than one per record. Blocks grow from
// 8 to maxSlabBlock records and are never regrown, so a record's address
// is stable while it is out. Like the engine it serves, it is
// single-threaded.
type slab[T any] struct {
	free []*T
	next int // size of the next block
}

const maxSlabBlock = 256

func (s *slab[T]) get() *T {
	if k := len(s.free); k > 0 {
		r := s.free[k-1]
		s.free = s.free[:k-1]
		return r
	}
	s.next = min(max(2*s.next, 8), maxSlabBlock)
	blk := make([]T, s.next)
	for i := len(blk) - 1; i > 0; i-- {
		s.free = append(s.free, &blk[i])
	}
	return &blk[0]
}

// put zeroes r and returns it to the free list.
func (s *slab[T]) put(r *T) {
	var zero T
	*r = zero
	s.free = append(s.free, r)
}

// inlineFrame is the longest frame a delivery record carries inline:
// every fixed-layout message fits (the largest, UIM and EZI, take 23
// bytes); only UIM batches and transport envelopes need a buffer.
const inlineFrame = 24

// delivery is a pooled in-flight frame, controller-bound when to is
// NodeController. A frame of at most inlineFrame bytes travels in the
// record itself (inline[:n]); a longer one in big, a pooled buffer that
// returns to the pool with the record.
type delivery struct {
	from, to topo.NodeID
	inPort   topo.PortID
	n        int32
	inline   [inlineFrame]byte
	big      []byte
}

// hold takes ownership of the serialized frame buf, a buffer drawn from
// p: a short frame is copied inline and buf goes straight back to the
// pool. It returns the frame as the record now stores it.
func (dv *delivery) hold(buf []byte, p *packet.Pool) []byte {
	if len(buf) > inlineFrame {
		dv.big = buf
		return buf
	}
	dv.n = int32(copy(dv.inline[:], buf))
	p.PutBuf(buf)
	return dv.inline[:dv.n]
}

// frame returns the record's frame.
func (dv *delivery) frame() []byte {
	if dv.big != nil {
		return dv.big
	}
	return dv.inline[:dv.n]
}

// truncate records that the frame now ends at n bytes (a fault injector
// may shorten it in place).
func (dv *delivery) truncate(n int) {
	if dv.big != nil {
		dv.big = dv.big[:n]
	} else {
		dv.n = int32(n)
	}
}

// parked is one message waiting for an indication or for capacity, the
// resubmitted packet of the P4 prototype: a copy of the message, held in
// the field of its type, that msg points at, and the port it is handed
// back to the switch's handler on. Records come from the network's slab
// and chain into their wait queue through next.
type parked struct {
	next   *parked
	sw     *Switch
	msg    packet.Message
	inPort topo.PortID
	unm    packet.UNM
	uim    packet.UIM
	ezn    packet.EZN
}

// parkQueue is a queue of parked work held as one pointer (it sits in
// every UpdateContext): a list linked newest first, which wake reverses
// into parking order.
type parkQueue struct{ newest *parked }

// park adds a copy of m to q.
func (n *Network) park(q *parkQueue, sw *Switch, m packet.Message, inPort topo.PortID) {
	w := n.parks.get()
	w.sw, w.inPort = sw, inPort
	switch m := m.(type) {
	case *packet.UNM:
		w.unm = *m
		w.msg = &w.unm
	case *packet.UIM:
		w.uim = *m
		w.msg = &w.uim
	case *packet.EZN:
		w.ezn = *m
		w.msg = &w.ezn
	default:
		panic(fmt.Sprintf("dataplane: cannot park a %v", m.Type()))
	}
	w.next, q.newest = q.newest, w
}

// takeParked empties q and returns its work in parking order, linked
// through next.
func takeParked(q *parkQueue) *parked {
	var first *parked
	for w := q.newest; w != nil; {
		next := w.next
		w.next, first = first, w
		w = next
	}
	q.newest = nil
	return first
}

// dropParked discards the work queued on q.
func (n *Network) dropParked(q *parkQueue) {
	for w := q.newest; w != nil; {
		next := w.next
		n.parks.put(w)
		w = next
	}
	q.newest = nil
}

// resubmit hands one woken parked message to its switch's handler and
// recycles its record.
func (n *Network) resubmit(x any) {
	w := x.(*parked)
	w.sw.handler.Resubmit(w.sw, w.msg, w.inPort)
	n.parks.put(w)
}

// commitStaged runs one staged commit whose install delay has elapsed and
// recycles its record.
func (n *Network) commitStaged(x any) {
	c := x.(*StagedCommit)
	if sw := c.sw; sw.epoch == c.epoch && !sw.down {
		sw.handler.CommitStaged(sw, c)
	}
	n.commits.put(c)
}

// NewNetwork builds a switch per topology node. Control latency defaults
// to zero until configured.
func NewNetwork(eng *sim.Engine, t *topo.Topology) *Network {
	n := &Network{Topo: t}
	n.flows = &flowTable{idx: make(map[packet.FlowID]int32)}
	n.deliverFn = n.deliver
	n.resubmitFn = n.resubmit
	n.commitFn = n.commitStaged
	n.switches = newSwitches(n)
	n.Reset(eng)
	return n
}

// Reset returns the network to the state NewNetwork(eng, n.Topo) builds
// while keeping its storage, so consecutive trials on one topology
// reuse one fabric. Kept: the switches with their FlowState slab blocks
// and the update-context pool's blocks (both reused in block order, so
// block sizes and state references come out as in a fresh build), the
// flow table's capacity, the delivery, park and commit slabs and the
// message pool. Everything else is zeroed: the hooks, seams and
// observers, the flow table, the outage revision, the contexts, and on
// every switch its recycled state blocks, reservations, handler,
// configuration, waiters, crash state and Stats. Work the fabric had in
// flight lived in the old run's event queue and is abandoned with it,
// so eng must be new or Reset too.
func (n *Network) Reset(eng *sim.Engine) {
	n.Eng = eng
	n.ControlLatency, n.ControllerRx = nil, nil
	n.Faults, n.Proc = nil, nil
	n.OnApply, n.OnDeliver = nil, nil
	n.flows.reset()
	n.contexts.reset()
	n.outageRev = 0
	for _, sw := range n.switches {
		sw.reset()
	}
}

// flowSlot interns f, returning its dense fabric-wide index.
func (n *Network) flowSlot(f packet.FlowID) int32 { return n.flows.slot(f) }

// FlowSlot returns the dense slot f is interned in, without interning
// it, or false if the fabric holds no slot for f. A slot stays f's until
// RetireFlow(f); FlowAt names its tenant.
func (n *Network) FlowSlot(f packet.FlowID) (int32, bool) { return n.flows.peek(f) }

// Pool returns the network's message/buffer pool.
func (n *Network) Pool() *packet.Pool { return &n.pool }

// MsgMeta extracts the (flow, version) pair a protocol message carries,
// for the flight recorder. Messages without a version report zero.
func MsgMeta(m packet.Message) (flow uint32, ver uint32) {
	switch m := m.(type) {
	case *packet.UIM:
		return uint32(m.Flow), m.Version
	case *packet.UNM:
		return uint32(m.Flow), m.Vn
	case *packet.UFM:
		return uint32(m.Flow), m.Version
	case *packet.FRM:
		return uint32(m.Flow), 0
	case *packet.CLN:
		return uint32(m.Flow), m.Version
	case *packet.EZI:
		return uint32(m.Flow), m.Version
	case *packet.EZN:
		return uint32(m.Flow), m.Version
	}
	return 0, 0
}

// recordSend logs an outbound protocol frame. Data packets are the
// per-packet forwarding hot path and are deliberately not traced (probe
// outcomes surface as StatusProbeOK UFMs).
func (n *Network) recordSend(tr *trace.Recorder, from, to topo.NodeID, m packet.Message) {
	if b, ok := m.(*packet.UIMBatch); ok {
		// A batch frame traces as its contained UIMs, so batched and
		// unbatched runs produce comparable message summaries.
		for i := range b.Items {
			tr.Send(int32(from), uint8(packet.TypeUIM), int32(to), uint32(b.Items[i].Flow), b.Items[i].Version)
		}
		return
	}
	if t := m.Type(); t != packet.TypeData {
		f, v := MsgMeta(m)
		tr.Send(int32(from), uint8(t), int32(to), f, v)
	}
}

// NumFlowSlots returns the size of the dense flow-slot space (live
// peak, not historical count). Slot indexes returned by the interner
// are always < NumFlowSlots at the time of interning.
func (n *Network) NumFlowSlots() int {
	t := n.flows
	return len(t.slots)
}

// FlowAt returns the live flow occupying dense slot i, or false for a
// dead (recycled, currently vacant) slot.
func (n *Network) FlowAt(i int32) (packet.FlowID, bool) {
	t := n.flows
	if i < 0 || int(i) >= len(t.slots) || !t.slots[i].live {
		return 0, false
	}
	return t.slots[i].id, true
}

// FlowRev returns the forwarding revision of dense slot i: a counter that
// moves whenever a forwarding register of the slot's flow is written on
// any switch (the contract is on FlowState) or the slot changes tenant.
// An observer that remembers it can skip a flow nothing has happened to.
func (n *Network) FlowRev(i int32) uint32 { return n.flows.slots[i].rev }

// NumFlowHolders returns how many switches hold a state block for the
// flow in dense slot i.
func (n *Network) NumFlowHolders(i int32) int { return int(n.flows.holders[i].n) }

// FlowHolder returns the k-th switch (k < NumFlowHolders(i), ascending
// node order) holding a state block for the flow in dense slot i, and
// that block. It lets the invariant auditor visit a flow's holders
// without asking every switch; like FlowStateAt, the block is
// read-only to callers, and its UpdateContext may be nil.
func (n *Network) FlowHolder(i int32, k int) (topo.NodeID, *FlowState) {
	h := n.flows.holders[i].at(k)
	return h.node, n.switches[h.node].stateAt(h.ref)
}

// OutageRev returns the fabric's outage revision: it moves on every
// switch Crash and Restore.
func (n *Network) OutageRev() uint32 { return n.outageRev }

// FlowChanged advances f's forwarding revision. Code that writes a
// forwarding register through a State/PeekState pointer instead of the
// switch's writers (tests forging a state no writer can produce) must
// call it afterwards, or revision-keyed observers keep their old view
// of the flow. A flow the fabric never interned is ignored.
func (n *Network) FlowChanged(f packet.FlowID) {
	if i, ok := n.FlowSlot(f); ok {
		n.flows.bump(i)
	}
}

// RetireFlow removes every trace of a departed flow from the fabric —
// per-switch state blocks (recycled into each switch's free list) and
// update contexts (into the context pool), capacity reservations,
// waiter-table slots — and releases its dense slot for reuse. It
// visits only the switches that hold state for the
// flow (the slot's holder set: old-path and new-path switches alike),
// in ascending node order: releasing a reservation can wake capacity
// waiters, and wake order is event order. Callers must only retire
// quiescent flows (no update in flight): late frames for a retired flow
// are dropped harmlessly by the PeekState guards, but a commit staged
// *before* retirement would re-intern the ID into a fresh slot. Returns
// false if f was never interned (or already retired).
func (n *Network) RetireFlow(f packet.FlowID) bool {
	i, ok := n.flows.peek(f)
	if !ok {
		return false
	}
	// The set is sorted by node; retiring a block wakes waiters only
	// through the engine, so nothing joins the set during the walk.
	hs := &n.flows.holders[i]
	for k := range int(hs.n) {
		h := hs.at(k)
		n.switches[h.node].retireFlow(i, f, h.ref)
	}
	hs.reset()
	n.flows.release(f, i)
	return true
}

// deliver consumes a scheduled delivery record: it hands the frame to
// the destination (switch pipeline or controller), then recycles the
// record and any frame buffer it held. It is scheduled through
// ScheduleArg with the bound deliverFn so the send path allocates
// nothing.
func (n *Network) deliver(x any) {
	dv := x.(*delivery)
	if dv.to == NodeController {
		n.ControllerRx(dv.from, dv.frame())
	} else if sw := n.switches[dv.to]; !sw.down { // a crashed switch's frames vanish at its port
		sw.Receive(dv.frame(), dv.inPort)
	}
	n.release(dv)
}

// release recycles a delivery record and its frame buffer, if any.
func (n *Network) release(dv *delivery) {
	if dv.big != nil {
		n.pool.PutBuf(dv.big)
	}
	n.deliveries.put(dv)
}

// Switch returns the switch at the given node.
func (n *Network) Switch(id topo.NodeID) *Switch { return n.switches[id] }

// Switches returns all switches indexed by NodeID.
func (n *Network) Switches() []*Switch { return n.switches }

// SetHandler installs h on every switch.
func (n *Network) SetHandler(h Handler) {
	for _, sw := range n.switches {
		sw.SetHandler(h)
	}
}

// SetInstallDelay installs the rule-install delay sampler on every switch.
func (n *Network) SetInstallDelay(f func() time.Duration) {
	for _, sw := range n.switches {
		sw.InstallDelay = f
	}
}

// Transport routes frames that leave this OS process in deployment
// mode (cmd/controllerd, cmd/switchd). emit consults it for every
// frame: one between two locally-owned parties stays on the in-memory
// queue, everything else crosses the wire.
type Transport interface {
	// Local reports whether this process owns party: a switch, or the
	// controller as NodeController.
	Local(party topo.NodeID) bool
	// Forward carries raw from from to to, where it arrives on inPort
	// (topo.InvalidPort for a control-channel frame in either
	// direction). raw is freshly allocated, never pooled: a reliable
	// transport retains it for retransmission.
	Forward(from, to topo.NodeID, inPort topo.PortID, raw []byte)
}

// NodeController is the sentinel NodeID of the controller end of a
// control-channel frame: in emit, the fault injector, the transport and
// the flight recorder.
const NodeController topo.NodeID = -1

// SendPort serializes m and transmits it out the given port of from,
// delivering it to the neighbor after the link latency.
func (n *Network) SendPort(from topo.NodeID, port topo.PortID, m packet.Message) {
	if port == PortLocal || port == topo.InvalidPort {
		return
	}
	link, ok := n.Topo.LinkAt(from, port)
	if !ok {
		panic(fmt.Sprintf("dataplane: node %d has no port %d", from, port))
	}
	to := link.Other(from)
	n.emit(FaultData, from, to, link.PortAt(to), link.Latency, m)
}

// SendToController serializes m and delivers it to the controller after
// the node's control-channel latency. With the controller in this
// process and no ControllerRx attached there is nobody to send to:
// nothing is transmitted and nothing traced.
func (n *Network) SendToController(from topo.NodeID, m packet.Message) {
	if n.ControllerRx == nil && n.local(NodeController) {
		return
	}
	n.emit(FaultControlUp, from, NodeController, topo.InvalidPort, n.controlDelay(from), m)
}

// SendToSwitch serializes m at the controller and delivers it to node
// after the control-channel latency. The extraDelay parameter lets
// callers model per-message controller-side queuing.
func (n *Network) SendToSwitch(node topo.NodeID, m packet.Message, extraDelay time.Duration) {
	n.emit(FaultControlDown, NodeController, node, topo.InvalidPort, extraDelay+n.controlDelay(node), m)
}

// local reports whether party lives in this process.
func (n *Network) local(party topo.NodeID) bool { return n.Proc == nil || n.Proc.Local(party) }

// controlDelay is the one-way control-channel latency of node.
func (n *Network) controlDelay(node topo.NodeID) time.Duration {
	if n.ControlLatency == nil {
		return 0
	}
	return n.ControlLatency(node)
}

// emit is the one way onto the wire: every frame of every class passes
// the same stages in the same order (DESIGN.md "One transmission path").
// from or to is NodeController on the control channel, inPort the port
// the frame arrives on at to, delay the path's latency before faults.
func (n *Network) emit(class FaultClass, from, to topo.NodeID, inPort topo.PortID, delay time.Duration, m packet.Message) {
	if from != NodeController && n.switches[from].down {
		return // 1. a crashed switch transmits nothing
	}
	// 2. Record, before routing: each process's flight recorder holds its
	// half of the conversation exactly as the simulator would.
	if tr := n.Eng.Trace; tr != nil {
		n.recordSend(tr, from, to, m)
	}
	// 3. Route: a frame for a party another process owns leaves through
	// the transport, which brings its own loss — no injection.
	if !n.local(to) {
		n.Proc.Forward(from, to, inPort, packet.Marshal(m))
		return
	}
	// 4. Serialize into a delivery record and inject faults on the frame
	// it holds.
	dv := n.deliveries.get()
	dv.from, dv.to, dv.inPort = from, to, inPort
	raw := dv.hold(m.SerializeTo(n.pool.GetBuf()), &n.pool)
	var dup bool
	if n.Faults != nil {
		var act FaultAction
		raw, act = n.Faults.Inspect(class, from, to, raw)
		if act.Drop {
			n.release(dv)
			return
		}
		dv.truncate(len(raw))
		dup = act.Duplicate
		delay += act.Delay
	}
	// 5. Schedule delivery. The frame is valid only until the receiver
	// returns (it decodes, copying every field); a duplicated frame is a
	// second record holding its own copy of the same bytes.
	n.Eng.ScheduleArg(delay, n.deliverFn, dv)
	if dup {
		dv2 := n.deliveries.get()
		dv2.from, dv2.to, dv2.inPort = from, to, inPort
		dv2.hold(append(n.pool.GetBuf(), raw...), &n.pool)
		n.Eng.ScheduleArg(delay+time.Millisecond, n.deliverFn, dv2)
	}
}

// InstallPath seeds forwarding rules for flow f along path with the given
// version and size, labeling distances by hop count to the egress, and
// returns the dense slot f is interned in. It is the experiment-setup
// counterpart of an initial SL deployment: the hops hold registers only,
// no update context. A path the topology does not have is an error, and
// nothing is installed.
func (n *Network) InstallPath(f packet.FlowID, path []topo.NodeID, version uint32, sizeK uint32) (int32, error) {
	if err := n.Topo.ValidatePath(path); err != nil {
		return 0, fmt.Errorf("dataplane: InstallPath: %w", err)
	}
	slot := n.flowSlot(f)
	k := len(path) - 1
	for i, node := range path {
		port := PortLocal
		if i < k {
			port = n.Topo.PortTo(node, path[i+1])
		}
		n.switches[node].installInitialRule(slot, port, version, uint16(k-i), sizeK)
	}
	return slot, nil
}

// TracePath follows the current forwarding state of flow f from node
// start, returning the nodes visited (including start) until local
// delivery, a missing rule, or maxHops steps (loop guard).
func (n *Network) TracePath(f packet.FlowID, start topo.NodeID, maxHops int) (visited []topo.NodeID, delivered bool) {
	cur := start
	for hop := 0; hop <= maxHops; hop++ {
		visited = append(visited, cur)
		st, ok := n.switches[cur].PeekState(f)
		if !ok || !st.HasRule {
			return visited, false
		}
		if st.EgressPort == PortLocal {
			return visited, true
		}
		next, ok := n.Topo.NeighborAt(cur, st.EgressPort)
		if !ok {
			return visited, false
		}
		cur = next
	}
	return visited, false
}
