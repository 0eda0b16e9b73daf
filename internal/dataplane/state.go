// Package dataplane models a P4 software switch at the granularity the
// P4Update paper depends on: per-flow register arrays (the Update
// Information Base of Table 1), a match-action forwarding stage, packet
// clone sessions toward neighbors and the controller, resubmission for
// data-plane waiting, and per-link capacity accounting.
//
// The update protocol itself (verification and coordination) is pluggable
// through the Handler interface so that P4Update and the evaluation
// baselines share the same switch substrate.
package dataplane

import (
	"p4update/internal/packet"
	"p4update/internal/topo"
)

// PortLocal is the sentinel forwarding port meaning "deliver locally":
// the switch is the flow's egress and hands the packet to the host side.
const PortLocal topo.PortID = -2

// PortFromWire converts a wire port to a forwarding port: packet.NoPort
// means local delivery.
func PortFromWire(p uint16) topo.PortID {
	if p == packet.NoPort {
		return PortLocal
	}
	return topo.PortID(int32(p))
}

// FreshDistance is the effective distance label of a node that has no
// forwarding rule for a flow yet. Treating it as +inf makes the dual-layer
// gateway check Dn(v) > Do(UNM) pass for fresh nodes.
const FreshDistance uint16 = 0xffff

// FlowPriority is the dynamic inter-flow scheduling priority of §7.4.
type FlowPriority uint8

// Flow priorities.
const (
	PriorityLow  FlowPriority = 0
	PriorityHigh FlowPriority = 1
)

// FlowState is the per-flow slice of the Update Information Base: the
// registers every switch on a flow's path holds. Fields map 1:1 onto the
// registers of the paper's Table 1:
//
//	new_distance        -> NewDistance (distance label of the applied config)
//	new_version         -> NewVersion  (version of the applied config)
//	egress_port_updated -> EgressPortUpdated (staged next port, from UIM)
//	old_distance        -> OldDistance (previous/inherited distance = segment ID)
//	old_version         -> OldVersion  (previous config version)
//	egress_port         -> EgressPort  (active forwarding port)
//	flow_size           -> FlowSizeK   (flow size bound, kbps)
//	flow_priority       -> Priority    (dynamic inter-flow priority)
//	t                   -> LastType    (last update type: SL or DL)
//	counter             -> Counter     (dual-layer hop counter)
//
// Beside them sit the indication registers (IndicatedVersion, UIM), the
// retained two-phase-commit rule (PrevEgressPort, PrevValid) and one
// pointer to the flow's UpdateContext: the block fits one 64-byte cache
// line. Everything an update needs only while it is in flight lives in
// the context, which a switch gets on its first protocol touch of the
// flow (State) and gives back when the flow retires. A flow installed
// outside the protocol (InstallPath) and retired without an update never
// has one, so the readers that may meet such a state — PeekState,
// FlowStateAt, FlowHolder — check UpdateContext for nil before touching
// a context field. In the P4 prototype the indication labels live in
// registers written on UIM arrival; the context keeps a copy of the
// freshest UIM (Indicate) with the same effect.
//
// Forwarding registers and the revision contract: HasRule, EgressPort,
// NewVersion, PrevValid, PrevEgressPort and FlowSizeK decide where a
// packet of the flow goes and what it weighs, and are what the invariant
// auditor reads. Every write to one of them advances the flow slot's
// revision (Network.FlowRev). All writers live in this package —
// CommitState, InstallInitialRule, the cleanup handler and retirement —
// and bump it themselves; protocol handlers and baselines change
// forwarding only through them. Anything that assigns these six fields
// through the pointer must call Network.FlowChanged afterwards.
type FlowState struct {
	NewDistance       uint16
	NewVersion        uint32
	EgressPortUpdated topo.PortID
	OldDistance       uint16
	OldVersion        uint32
	EgressPort        topo.PortID
	FlowSizeK         uint32
	Priority          FlowPriority
	LastType          packet.UpdateType
	Counter           uint16

	// HasRule reports whether EgressPort holds a valid forwarding rule.
	HasRule bool
	// IndicatedVersion is the highest configuration version the control
	// plane has indicated to this node for the flow (protects in-use
	// rules from cleanup).
	IndicatedVersion uint32
	// PrevEgressPort retains the previous configuration's forwarding
	// port for two-phase-commit forwarding (§11); PrevValid reports
	// whether it holds a rule. Note the paper's §10 caveat applies: the
	// retained rule doubles the per-flow rule space.
	PrevEgressPort topo.PortID
	PrevValid      bool
	// UIM is the freshest (highest-version) indication received, nil if
	// none. Indicate points it at the context's own copy, since the
	// received message is pool-owned; contexts never move, so neither
	// does the copy.
	UIM *packet.UIM
	// UpdateContext is the flow's in-flight update state on this switch,
	// nil until the switch's first protocol touch of the flow.
	*UpdateContext
}

// UpdateContext is the part of a flow's per-switch state that only an
// updating hop needs. Contexts come from the network's context pool and
// go back to it when the flow retires.
type UpdateContext struct {
	// PendingRes tracks capacity staged for in-flight rule installs so
	// concurrent gate decisions cannot oversubscribe a link.
	PendingRes []PendingReservation
	// ChildPorts is the clone group for the UIM's version: the ports
	// toward every child that must be notified after this node applies.
	// Path flows have one child; destination trees (§11) have one per
	// tree child. Populated from the indications' ChildPort fields.
	ChildPorts CloneGroup
	// Proto holds protocol-private per-flow state (the baselines use it
	// for their instruction records).
	Proto any
	// Applying is set while a staged rule waits out the install delay,
	// and holds the version being installed.
	Applying        bool
	ApplyingVersion uint32
	// StallReports counts §11 watchdog firings for the currently awaited
	// version, bounding how often the node re-reports a stalled update.
	// It is reset whenever the awaited indication (re-)arrives.
	StallReports uint8

	// uim holds the indication FlowState.UIM points at (see Indicate).
	uim packet.UIM
	// uimWait queues the work parked until an indication for the flow
	// arrives (ParkOnUIM).
	uimWait parkQueue
}

// CurrentDistance returns the node's effective distance under its applied
// configuration: NewDistance once a rule exists, FreshDistance otherwise.
func (st *FlowState) CurrentDistance() uint16 {
	if !st.HasRule {
		return FreshDistance
	}
	return st.NewDistance
}

// Indicate records m as the flow's freshest indication: the context
// keeps a copy, so m may be recycled once the handler returns. st must
// come from Switch.State, which attaches the context.
func (st *FlowState) Indicate(m *packet.UIM) {
	st.uim = *m
	st.UIM = &st.uim
}

// CloneGroup is a small ordered set of clone-session ports. The first
// len(inline) ports live in the struct itself, so a path flow's group
// (one child) costs no allocation; a destination-tree node with more
// children spills the whole group into a slice it then keeps. The spill
// is held through a pointer so the group is no larger than a slice.
type CloneGroup struct {
	inline [2]topo.PortID
	n      int32
	spill  *[]topo.PortID
}

// Ports returns the group in insertion order. The slice aliases the
// group and is valid until the next Add or Reset.
func (g *CloneGroup) Ports() []topo.PortID {
	if g.spill != nil {
		return *g.spill
	}
	return g.inline[:g.n]
}

// Add appends port unless the group already holds it.
func (g *CloneGroup) Add(port topo.PortID) {
	for _, c := range g.Ports() {
		if c == port {
			return
		}
	}
	switch {
	case g.spill != nil:
		*g.spill = append(*g.spill, port)
	case int(g.n) < len(g.inline):
		g.inline[g.n] = port
		g.n++
	default:
		spill := append(append(make([]topo.PortID, 0, 2*len(g.inline)), g.inline[:]...), port)
		g.spill = &spill
	}
}

// Reset empties the group, keeping any spill capacity.
func (g *CloneGroup) Reset() {
	g.n = 0
	if g.spill != nil {
		*g.spill = (*g.spill)[:0]
	}
}

// PendingReservation is capacity booked at verification time for a rule
// install that has not committed yet.
type PendingReservation struct {
	Port    topo.PortID
	SizeK   uint32
	Version uint32
}

// freshFlowState is the fresh-node state (no rule, version 0).
func freshFlowState() FlowState {
	return FlowState{
		EgressPort:        topo.InvalidPort,
		EgressPortUpdated: topo.InvalidPort,
		NewDistance:       FreshDistance,
		OldDistance:       FreshDistance,
	}
}

// renew resets c for its next flow, keeping the capacity of its
// reservation slice. It assigns the zero context and the slice
// separately: one literal carrying c.PendingRes would be built on the
// stack and copied in, not written in place.
func (c *UpdateContext) renew() {
	pend := c.PendingRes[:0]
	*c = UpdateContext{}
	c.PendingRes = pend
}

// blockStore hands out entries of T from blocks it allocates itself and
// never regrows, so an entry's address is stable while it is out. Blocks
// double from 8 to maxSlabBlock entries, as the network's slabs do, so
// a single-flow trial pays one small block. Like the engine it serves,
// it is single-threaded.
type blockStore[T any] struct {
	// blocks[:open] have handed out entries, the last of them possibly
	// not all; blocks[open:] are kept empty by rewind for reuse in order.
	blocks [][]T
	open   int
}

// next hands out the next unused entry, as its block and offset.
func (s *blockStore[T]) next() (int, int) {
	if s.open == 0 || len(s.blocks[s.open-1]) == cap(s.blocks[s.open-1]) {
		if s.open == len(s.blocks) {
			// The shift is clamped first: 8<<open overflows once a store
			// has opened enough capped blocks.
			s.blocks = append(s.blocks, make([]T, 0, min(8<<min(s.open, 5), maxSlabBlock)))
		}
		s.open++
	}
	b := &s.blocks[s.open-1]
	*b = (*b)[:len(*b)+1]
	return s.open - 1, len(*b) - 1
}

// rewind takes every entry back, passing each handed-out one to renew,
// so the store hands its blocks out again in block order, as a fresh
// store would.
func (s *blockStore[T]) rewind(renew func(*T)) {
	for k, b := range s.blocks[:s.open] {
		for i := range b {
			renew(&b[i])
		}
		s.blocks[k] = b[:0]
	}
	s.open = 0
}

// contextPool hands out update contexts from a block store, so a
// context's address is stable while a flow holds it. A retired flow's
// context goes back renewed, with its reservation slice's capacity
// kept.
type contextPool struct {
	blockStore[UpdateContext]
	free []*UpdateContext
}

func (p *contextPool) get() *UpdateContext {
	if k := len(p.free); k > 0 {
		c := p.free[k-1]
		p.free = p.free[:k-1]
		return c
	}
	k, i := p.next()
	return &p.blocks[k][i]
}

// put renews c and returns it to the pool.
func (p *contextPool) put(c *UpdateContext) {
	c.renew()
	p.free = append(p.free, c)
}

// reset takes every context back, renewed, and rewinds the pool.
func (p *contextPool) reset() {
	p.rewind((*UpdateContext).renew)
	p.free = p.free[:0]
}

// stateSlab holds the register blocks (FlowState) of every switch of the
// fabric, the model of the per-switch register arrays a P4 target
// indexes by flow. A block stays put while its flow lives, so handlers
// may keep a *FlowState for the length of one call; a retired flow's
// blocks go on one fabric-wide free list, renewed. Nothing walks the
// slab, so which block a flow gets cannot show in any result.
type stateSlab struct {
	blockStore[FlowState]
	free []stateRef
}

// stateRef names one block of the state slab: block number plus one and
// offset within the block, packed as (block+1)<<slabOffsetBits | offset,
// so the zero value means "no state".
type stateRef int32

// get hands out a renewed block: a retired one when one is free, else
// the next unused one.
func (s *stateSlab) get() stateRef {
	if k := len(s.free); k > 0 {
		r := s.free[k-1]
		s.free = s.free[:k-1]
		return r
	}
	k, i := s.next()
	s.blocks[k][i] = freshFlowState()
	return stateRef((k+1)<<slabOffsetBits | i)
}

// at resolves a non-zero reference.
func (s *stateSlab) at(r stateRef) *FlowState {
	return &s.blocks[r>>slabOffsetBits-1][r&(maxSlabBlock-1)]
}

// put renews r's block and returns it to the free list.
func (s *stateSlab) put(r stateRef) {
	*s.at(r) = freshFlowState()
	s.free = append(s.free, r)
}

// reset takes every block back, zeroed (get renews a block as it hands
// it out), and rewinds the slab.
func (s *stateSlab) reset() {
	s.rewind(func(st *FlowState) { *st = FlowState{} })
	s.free = s.free[:0]
}

// Stats counts observable switch events; the experiment harnesses and the
// failure-injection tests read them.
type Stats struct {
	DataForwarded  uint64 // data packets sent out a port
	DataDelivered  uint64 // data packets delivered locally at the egress
	BlackholeDrops uint64 // data packets dropped for lack of a rule
	TTLDrops       uint64 // data packets dropped on TTL expiry
	DecodeErrors   uint64 // undecodable frames
	UNMReceived    uint64
	UIMReceived    uint64
	AlarmsSent     uint64 // StatusAlarm UFMs emitted
	Resubmissions  uint64 // parked messages woken and handed to the handler's Resubmit
	RulesApplied   uint64 // committed forwarding-rule changes
	RulesCleaned   uint64 // stale rules removed by cleanup messages
}
