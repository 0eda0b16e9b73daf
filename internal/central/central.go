// Package central implements the centralized baseline of the paper's
// evaluation (§9.1): the controller computes a dependency graph and
// greedily updates, per round, every node that can safely change without
// creating a loop or blackhole (Mahajan & Wattenhofer / Dionysus style).
// After each round it waits for per-node acknowledgements — which incur
// control-channel latency plus controller queuing and processing delay
// (Jarschel et al.) — recomputes the dependency relation on the reported
// state, and pushes the next round.
package central

import (
	"fmt"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

// Handler is the data-plane agent of the centralized baseline: a plain
// SDN switch that applies whatever rule the controller sends and
// acknowledges it.
type Handler struct{}

var _ dataplane.Handler = (*Handler)(nil)

// HandleUIM applies the instruction after the install delay and ACKs.
func (h *Handler) HandleUIM(sw *dataplane.Switch, m *packet.UIM) {
	st := sw.State(m.Flow)
	if m.Version > st.IndicatedVersion {
		st.IndicatedVersion = m.Version
	}
	if st.HasRule && m.Version <= st.NewVersion {
		sw.Tracer().Verdict(int32(sw.ID), trace.CodeDuplicate,
			uint32(m.Flow), m.Version, 0, 0)
		return
	}
	newPort := dataplane.PortFromWire(m.EgressPort)
	sw.Tracer().Verdict(int32(sw.ID), trace.CodeApplyCentral,
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

// HandleUNM is unused by the centralized baseline.
func (h *Handler) HandleUNM(sw *dataplane.Switch, m *packet.UNM, inPort topo.PortID) {}

// Resubmit is unused: the centralized baseline never parks.
func (h *Handler) Resubmit(sw *dataplane.Switch, m packet.Message, inPort topo.PortID) {}

// Coordinator drives centralized round-based updates.
type Coordinator struct {
	Ctl *controlplane.Controller
	// ProcDelay is the controller's per-message processing time; queued
	// messages serialize behind each other (single-threaded controller,
	// §9.1).
	ProcDelay time.Duration
	// QueueDelay, when set, samples the extra controller queuing delay
	// each notification experiences behind the controller's other
	// control-plane work (path setup, monitoring — §9.1, Jarschel et
	// al.).
	QueueDelay func() time.Duration
	// Congestion additionally enforces link capacities in the round
	// computation.
	Congestion bool
	// TotalRounds accumulates dependency rounds across every update the
	// coordinator drove (reported via the wiring metrics hook).
	TotalRounds uint64

	// busyUntil models the controller's single-server processing queue.
	busyUntil time.Duration
	// retryArmed guards the starvation-retry timer; retryIdle counts
	// consecutive retries without acknowledged progress.
	retryArmed bool
	retryIdle  int

	runs map[runKey]*run
}

type runKey struct {
	flow    packet.FlowID
	version uint32
}

// run is one in-flight centralized update.
type run struct {
	flow    packet.FlowID
	version uint32
	sizeK   uint32
	newPath []topo.NodeID
	newNext map[topo.NodeID]topo.NodeID
	// view is the controller's view of the flow's current next hops
	// (PortLocal modeled as the node itself being terminal).
	view map[topo.NodeID]topo.NodeID // missing = no rule
	done map[topo.NodeID]bool        // nodes already on the new rule
	out  map[topo.NodeID]bool        // nodes updated in the current round
	// Rounds counts dependency rounds (diagnostics).
	Rounds int
}

// NewCoordinator wires the centralized baseline over the shared tracker.
func NewCoordinator(ctl *controlplane.Controller, procDelay time.Duration) *Coordinator {
	c := &Coordinator{
		Ctl:       ctl,
		ProcDelay: procDelay,
		runs:      make(map[runKey]*run),
	}
	prev := ctl.OnUFM
	ctl.OnUFM = func(u packet.UFM) {
		if prev != nil {
			prev(u)
		}
		c.onUFM(u)
	}
	return c
}

// TriggerUpdate starts a centralized update of flow f to newPath.
func (c *Coordinator) TriggerUpdate(f packet.FlowID, newPath []topo.NodeID) (*controlplane.UpdateStatus, error) {
	rec, ok := c.Ctl.Flow(f)
	if !ok {
		return nil, fmt.Errorf("central: unknown flow %d", f)
	}
	if err := c.Ctl.Topo.ValidatePath(newPath); err != nil {
		return nil, fmt.Errorf("central: %w", err)
	}
	version := rec.Version + 1
	r := &run{
		flow:    f,
		version: version,
		sizeK:   rec.SizeK,
		newPath: newPath,
		newNext: make(map[topo.NodeID]topo.NodeID),
		view:    make(map[topo.NodeID]topo.NodeID),
		done:    make(map[topo.NodeID]bool),
		out:     make(map[topo.NodeID]bool),
	}
	for i := 0; i+1 < len(newPath); i++ {
		r.newNext[newPath[i]] = newPath[i+1]
	}
	for i := 0; i+1 < len(rec.Path); i++ {
		r.view[rec.Path[i]] = rec.Path[i+1]
	}
	egress := newPath[len(newPath)-1]
	r.view[egress] = egress // terminal
	r.done[egress] = true   // the egress never changes for a same-dst flow

	// Completion set: nodes whose next hop changes (fresh nodes always
	// count — beware the map zero value aliasing node 0).
	var changed []topo.NodeID
	for i := 0; i+1 < len(newPath); i++ {
		n := newPath[i]
		if cur, hasRule := r.view[n]; hasRule && cur == r.newNext[n] {
			r.done[n] = true
		} else {
			changed = append(changed, n)
		}
	}
	u := c.Ctl.TrackOnly(f, version, rec.Path, newPath, changed, rec)
	if len(changed) == 0 {
		u.Completed = c.Ctl.Eng.Now()
		return u, nil
	}
	c.runs[runKey{f, version}] = r
	c.pushRound(r)
	c.scheduleRetry()
	return u, nil
}

// scheduleRetry arms a low-frequency retry loop: capacity can free
// without producing an acknowledgement (rule cleanup), so starved runs
// re-evaluate their rounds periodically. The loop gives up after a long
// streak without progress (gridlocked moves stay incomplete).
func (c *Coordinator) scheduleRetry() {
	if c.retryArmed {
		return
	}
	c.retryArmed = true
	c.Ctl.Eng.Schedule(50*time.Millisecond, func() {
		c.retryArmed = false
		if len(c.runs) == 0 || c.retryIdle > 200 {
			return
		}
		c.retryIdle++
		for _, r := range c.runs {
			if len(r.out) == 0 {
				c.pushRound(r)
			}
		}
		c.scheduleRetry()
	})
}

// safeNow reports whether updating node n to its new rule keeps the
// flow's forwarding loop- and blackhole-free against the controller's
// *confirmed* view: installing a rule at a fresh node is always safe (no
// traffic can reach it yet), while changing an existing rule requires the
// walk from n to reach the egress over confirmed rules only — batched
// peers do not count, because rounds deploy asynchronously.
func (r *run) safeNow(n topo.NodeID) bool {
	if _, hasRule := r.view[n]; !hasRule {
		return true // fresh install
	}
	seen := map[topo.NodeID]bool{n: true}
	cur := r.newNext[n]
	for {
		if seen[cur] {
			return false // loop
		}
		seen[cur] = true
		nxt, ok := r.view[cur]
		if !ok {
			return false // downstream rule not confirmed yet
		}
		if nxt == cur {
			return true // terminal (egress)
		}
		cur = nxt
	}
}

// pushRound computes the maximal greedily-safe node set and sends it.
func (c *Coordinator) pushRound(r *run) {
	r.Rounds++
	c.TotalRounds++
	var batch []topo.NodeID
	// Greedy from the egress end of the new path (downstream first
	// maximizes per-round progress, as in dependency-graph schedulers).
	for i := len(r.newPath) - 2; i >= 0; i-- {
		n := r.newPath[i]
		if r.done[n] || r.out[n] {
			continue
		}
		if !r.safeNow(n) {
			continue
		}
		batch = append(batch, n)
	}
	if c.Congestion {
		batch = c.capacityFilter(r, batch)
	}
	if len(batch) == 0 {
		return // wait for outstanding ACKs to unlock progress
	}
	c.Ctl.Eng.Trace.Round(uint32(r.flow), r.version, uint32(len(batch)))
	t := c.Ctl.Topo
	now := c.Ctl.Eng.Now()
	if c.busyUntil < now {
		c.busyUntil = now
	}
	for _, n := range batch {
		r.out[n] = true
		uim := &packet.UIM{
			Flow:       r.flow,
			Version:    r.version,
			EgressPort: packet.NoPort,
			ChildPort:  packet.NoPort,
			FlowSizeK:  r.sizeK,
		}
		if nxt := r.newNext[n]; nxt != n {
			uim.EgressPort = uint16(t.PortTo(n, nxt))
		}
		// Outbound messages serialize through the same single-threaded
		// controller as the acknowledgements (§9.1).
		c.busyUntil += c.ProcDelay
		if c.QueueDelay != nil {
			c.busyUntil += c.QueueDelay()
		}
		c.Ctl.Net.SendToSwitch(n, uim, c.busyUntil-now)
	}
}

// capacityFilter drops batch members whose move would exceed a link
// capacity in the controller's view of current placements.
func (c *Coordinator) capacityFilter(r *run, batch []topo.NodeID) []topo.NodeID {
	t := c.Ctl.Topo
	type npPort struct {
		n topo.NodeID
		p topo.PortID
	}
	planned := make(map[npPort]uint64)
	var out []topo.NodeID
	for _, n := range batch {
		nxt := r.newNext[n]
		if cur, ok := r.view[n]; ok && cur == nxt {
			out = append(out, n)
			continue
		}
		sw := c.Ctl.Net.Switch(n)
		port := t.PortTo(n, nxt)
		key := npPort{n, port}
		if sw.RemainingK(port) >= planned[key]+uint64(r.sizeK) {
			planned[key] += uint64(r.sizeK)
			out = append(out, n)
		}
	}
	return out
}

// onUFM feeds acknowledgements through the controller's processing queue
// and, once a round's stragglers are in, computes the next round.
func (c *Coordinator) onUFM(u packet.UFM) {
	if u.Status != packet.StatusUpdated {
		return
	}
	r, ok := c.runs[runKey{u.Flow, u.Version}]
	if !ok {
		return
	}
	// Single-server processing queue: each notification occupies the
	// controller for ProcDelay.
	now := c.Ctl.Eng.Now()
	if c.busyUntil < now {
		c.busyUntil = now
	}
	c.busyUntil += c.ProcDelay
	if c.QueueDelay != nil {
		c.busyUntil += c.QueueDelay()
	}
	readyAt := c.busyUntil
	node := topo.NodeID(u.Node)
	c.Ctl.Eng.ScheduleAt(readyAt, func() {
		if !r.out[node] {
			return
		}
		delete(r.out, node)
		r.done[node] = true
		r.view[node] = r.newNext[node]
		c.retryIdle = 0
		allDone := true
		for i := 0; i+1 < len(r.newPath); i++ {
			if !r.done[r.newPath[i]] {
				allDone = false
				break
			}
		}
		if allDone {
			delete(c.runs, runKey{r.flow, r.version})
		} else {
			c.pushRound(r)
		}
		// An acknowledged move may have freed capacity another run's
		// round was deferred on; retry idle runs.
		for _, other := range c.runs {
			if other != r && len(other.out) == 0 {
				c.pushRound(other)
			}
		}
	})
}
