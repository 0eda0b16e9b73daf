// Package optoracle implements an offline Černý-style optimal update
// scheduler (arXiv 1607.05159): given the old and new path of a flow it
// computes, ahead of time, the minimal sequence of maximal update
// rounds such that after every round the flow's forwarding state is
// loop- and blackhole-free for the controller's confirmed view — the
// same safety model the Central baseline evaluates online. The schedule
// length is a lower bound on the rounds any confirmed-view-consistent
// executor needs for that path pair, so every trial can be scored with
// an optimality gap (measured rounds / oracle rounds).
//
// The oracle also runs as an executable system: an idealized round
// executor with zero controller processing and queuing delay that ships
// each precomputed batch, waits for its acknowledgements, and sends the
// next — useful to sanity-check the bound against a live execution.
//
// Greedy maximal batching is optimal within this model in the practical
// sense proven here: the deepest not-yet-updated changed node on the
// new path is always safe (its new-rule suffix walk runs through
// already-updated or unchanged nodes straight to the egress), so every
// round makes progress and the schedule terminates in at most
// len(changed) rounds; and no schedule can beat it on the instances the
// evaluation generates, which the tests enforce per trial by asserting
// oracle rounds ≤ every system's measured rounds.
package optoracle

import (
	"fmt"

	"p4update/internal/controlplane"
	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

// Schedule computes the minimal-round batch schedule moving oldPath to
// newPath under the confirmed-view safety model: a node may update in a
// round when walking its new next hop through the end-of-round view
// reaches the egress without a loop or a rule-less node. Returned
// batches list nodes deepest-first (downstream to upstream).
func Schedule(oldPath, newPath []topo.NodeID) [][]topo.NodeID {
	if len(newPath) == 0 {
		return nil
	}
	egress := newPath[len(newPath)-1]
	newNext := make(map[topo.NodeID]topo.NodeID, len(newPath))
	for i := 0; i+1 < len(newPath); i++ {
		newNext[newPath[i]] = newPath[i+1]
	}
	// view is the confirmed next hop per node (terminal modeled as the
	// node mapping to itself); nodes absent from view have no rule.
	view := make(map[topo.NodeID]topo.NodeID, len(oldPath)+len(newPath))
	for i := 0; i+1 < len(oldPath); i++ {
		view[oldPath[i]] = oldPath[i+1]
	}
	if len(oldPath) > 0 {
		last := oldPath[len(oldPath)-1]
		view[last] = last
	}
	view[egress] = egress

	done := make(map[topo.NodeID]bool, len(newPath))
	changed := 0
	for i := len(newPath) - 2; i >= 0; i-- {
		n := newPath[i]
		if v, ok := view[n]; ok && v == newPath[i+1] {
			done[n] = true
		} else {
			changed++
		}
	}
	done[egress] = true

	safe := func(n topo.NodeID, target topo.NodeID) bool {
		seen := map[topo.NodeID]bool{n: true}
		cur := target
		for {
			if cur == n || seen[cur] {
				return false // loop
			}
			seen[cur] = true
			nxt, ok := view[cur]
			if !ok {
				return false // blackhole
			}
			if nxt == cur {
				return true // terminal
			}
			cur = nxt
		}
	}

	var batches [][]topo.NodeID
	for changed > 0 {
		var batch []topo.NodeID
		for i := len(newPath) - 2; i >= 0; i-- {
			n := newPath[i]
			if done[n] {
				continue
			}
			target := newPath[i+1]
			if _, hasRule := view[n]; !hasRule || safe(n, target) {
				batch = append(batch, n)
			}
		}
		if len(batch) == 0 {
			// Unreachable under the progress argument above; bail rather
			// than loop forever if the model is ever extended.
			break
		}
		for _, n := range batch {
			i := indexOf(newPath, n)
			view[n] = newPath[i+1]
			done[n] = true
			changed--
		}
		batches = append(batches, batch)
	}
	return batches
}

func indexOf(path []topo.NodeID, n topo.NodeID) int {
	for i, p := range path {
		if p == n {
			return i
		}
	}
	return -1
}

// Rounds returns the oracle's lower bound on update rounds for the path
// pair (0 when nothing changes).
func Rounds(oldPath, newPath []topo.NodeID) int {
	return len(Schedule(oldPath, newPath))
}

// RoundsCached memoizes Rounds through p under an 'o'-prefixed key (the
// schedule is flow-independent); a nil planner computes directly.
func RoundsCached(p controlplane.Planner, t *topo.Topology, oldPath, newPath []topo.NodeID) int {
	return len(ScheduleCached(p, t, oldPath, newPath))
}

// ScheduleCached returns the memoized schedule (shared, immutable); a
// nil planner computes directly.
func ScheduleCached(p controlplane.Planner, t *topo.Topology, oldPath, newPath []topo.NodeID) [][]topo.NodeID {
	if p == nil {
		return Schedule(oldPath, newPath)
	}
	var scratch [128]byte
	k := controlplane.NewKeyBuf(scratch[:])
	k.U8('o')
	k.Path(oldPath)
	k.Path(newPath)
	v, ok, _ := p.Cached(t, k.Bytes())
	if !ok {
		v, _ = p.Memo(t, k.Bytes(), func() (any, error) {
			return Schedule(oldPath, newPath), nil
		})
	}
	batches, _ := v.([][]topo.NodeID)
	return batches
}

// Handler is the oracle's data-plane agent: a plain SDN switch that
// applies and acknowledges round instructions. Duplicate same-version
// instructions re-acknowledge so lost acks cannot stall a round.
type Handler struct{}

var _ dataplane.Handler = (*Handler)(nil)

// HandleUIM applies the instruction after the install delay and ACKs.
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
	newPort := dataplane.PortFromWire(m.EgressPort)
	sw.Tracer().Verdict(int32(sw.ID), trace.CodeApplyOracle,
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

// HandleUNM is unused by the oracle.
func (h *Handler) HandleUNM(sw *dataplane.Switch, m *packet.UNM, inPort topo.PortID) {}

// Resubmit is unused: the oracle never parks.
func (h *Handler) Resubmit(sw *dataplane.Switch, m packet.Message, inPort topo.PortID) {}

// Coordinator executes precomputed schedules round by round with zero
// controller overhead (the idealized executor the bound is defined
// against).
type Coordinator struct {
	Ctl *controlplane.Controller
	// Plans, when set, memoizes schedules across trials that share a
	// frozen topology.
	Plans controlplane.Planner
	// TotalRounds accumulates scheduled rounds across every triggered
	// update (reported via the wiring metrics hook).
	TotalRounds uint64

	runs map[runKey]*run
}

type runKey struct {
	flow    packet.FlowID
	version uint32
}

type run struct {
	batches [][]topo.NodeID
	idx     int
	pending map[topo.NodeID]bool
	uims    map[topo.NodeID]*packet.UIM
}

// NewCoordinator wires the oracle executor over the shared tracker.
func NewCoordinator(ctl *controlplane.Controller) *Coordinator {
	c := &Coordinator{Ctl: ctl, runs: make(map[runKey]*run)}
	prev := ctl.OnUFM
	ctl.OnUFM = func(u packet.UFM) {
		if prev != nil {
			prev(u)
		}
		c.onUFM(u)
	}
	return c
}

// TriggerUpdate executes the precomputed optimal schedule for f.
func (c *Coordinator) TriggerUpdate(f packet.FlowID, newPath []topo.NodeID) (*controlplane.UpdateStatus, error) {
	rec, ok := c.Ctl.Flow(f)
	if !ok {
		return nil, fmt.Errorf("optoracle: unknown flow %d", f)
	}
	if err := c.Ctl.Topo.ValidatePath(newPath); err != nil {
		return nil, fmt.Errorf("optoracle: new path: %w", err)
	}
	version := rec.Version + 1
	oldPath := rec.Path
	t := c.Ctl.Topo
	batches := ScheduleCached(c.Plans, t, oldPath, newPath)

	var pendingNodes []topo.NodeID
	for _, b := range batches {
		pendingNodes = append(pendingNodes, b...)
	}
	u := c.Ctl.TrackOnly(f, version, oldPath, newPath, pendingNodes, rec)
	if len(pendingNodes) == 0 {
		// Nothing to move: the update is trivially complete.
		u.Completed = c.Ctl.Eng.Now()
		return u, nil
	}
	c.TotalRounds += uint64(len(batches))

	L := len(newPath)
	idx := make(map[topo.NodeID]int, L)
	for i, n := range newPath {
		idx[n] = i
	}
	r := &run{batches: batches, pending: make(map[topo.NodeID]bool),
		uims: make(map[topo.NodeID]*packet.UIM, len(pendingNodes))}
	for _, n := range pendingNodes {
		i := idx[n]
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
		r.uims[n] = m
	}
	c.runs[runKey{f, version}] = r
	u.Resend = func() { c.resendRound(f, version, r) }
	c.sendRound(f, version, r)
	return u, nil
}

// sendRound ships the current batch.
func (c *Coordinator) sendRound(f packet.FlowID, version uint32, r *run) {
	batch := r.batches[r.idx]
	c.Ctl.Eng.Trace.Round(uint32(f), version, uint32(len(batch)))
	for _, n := range batch {
		r.pending[n] = true
		c.Ctl.Net.SendToSwitch(n, r.uims[n], 0)
	}
}

// resendRound re-sends the current batch's outstanding instructions
// (recovery; applied nodes re-ack).
func (c *Coordinator) resendRound(f packet.FlowID, version uint32, r *run) {
	if r.idx >= len(r.batches) {
		return
	}
	for _, n := range r.batches[r.idx] {
		if r.pending[n] {
			c.Ctl.Net.SendToSwitch(n, r.uims[n], 0)
		}
	}
}

// onUFM advances the schedule on per-node acknowledgements.
func (c *Coordinator) onUFM(m packet.UFM) {
	if m.Status != packet.StatusUpdated {
		return
	}
	key := runKey{m.Flow, m.Version}
	r, ok := c.runs[key]
	if !ok {
		return
	}
	node := topo.NodeID(m.Node)
	if !r.pending[node] {
		return
	}
	delete(r.pending, node)
	if len(r.pending) > 0 {
		return
	}
	r.idx++
	if r.idx < len(r.batches) {
		c.sendRound(m.Flow, m.Version, r)
		return
	}
	delete(c.runs, key)
}
