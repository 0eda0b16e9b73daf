// Package optoracle implements an offline Černý-style optimal update
// scheduler (arXiv 1607.05159): given the old and new path of a flow it
// computes, ahead of time, the minimal sequence of maximal update
// rounds such that after every round the flow's forwarding state is
// loop- and blackhole-free for the controller's confirmed view — the
// same safety rule (controlplane.SafeBatch) the Central baseline
// evaluates online. The schedule length is a lower bound on the rounds
// any confirmed-view-consistent executor needs for that path pair, so
// every trial can be scored with an optimality gap (measured rounds /
// oracle rounds).
//
// The oracle also runs as an executable system: a controlplane
// RoundExecutor with zero controller processing and queuing delay that
// ships each precomputed batch, waits for its acknowledgements, and
// sends the next — useful to sanity-check the bound against a live
// execution. Its switches run controlplane.Agent.
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
	"p4update/internal/controlplane"
	"p4update/internal/topo"
)

// Schedule computes the minimal-round batch schedule moving oldPath to
// newPath under the confirmed-view safety model: each round is the
// SafeBatch of the view the rounds before it confirmed. Returned
// batches list nodes deepest-first (downstream to upstream).
func Schedule(oldPath, newPath []topo.NodeID) [][]topo.NodeID {
	var moved []topo.NodeID
	var batches [][]topo.NodeID
	for {
		// An empty batch with nodes left to move is unreachable under the
		// progress argument above; stopping rather than looping forever
		// keeps it so if the model is ever extended.
		batch := controlplane.SafeBatch(oldPath, newPath, moved, nil)
		if len(batch) == 0 {
			return batches
		}
		moved = append(moved, batch...)
		batches = append(batches, batch)
	}
}

// RoundsCached returns the oracle's lower bound on update rounds for the
// path pair (0 when nothing changes): the length of its Schedule,
// memoized through p under an 'o'-prefixed key (the schedule is
// flow-independent); a nil planner computes directly.
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

// Coordinator executes precomputed schedules round by round with zero
// controller overhead (the idealized executor the bound is defined
// against).
type Coordinator struct {
	*controlplane.RoundExecutor
	// Plans, when set, memoizes schedules across trials that share a
	// frozen topology.
	Plans controlplane.Planner
}

// NewCoordinator wires the oracle executor over the shared tracker.
func NewCoordinator(ctl *controlplane.Controller) *Coordinator {
	c := &Coordinator{}
	c.RoundExecutor = controlplane.NewRoundExecutor(ctl, c)
	return c
}

// Plan looks up the schedule; every scheduled node completes the update.
func (c *Coordinator) Plan(oldPath, newPath []topo.NodeID) ([]topo.NodeID, any) {
	batches := ScheduleCached(c.Plans, c.Ctl.Topo, oldPath, newPath)
	var complete []topo.NodeID
	for _, b := range batches {
		complete = append(complete, b...)
	}
	return complete, batches
}

// Next sends the schedule's next batch once the current one is
// acknowledged.
func (c *Coordinator) Next(r *controlplane.Run) []topo.NodeID {
	batches := r.State.([][]topo.NodeID)
	if len(r.Outstanding()) > 0 || r.Round() == len(batches) {
		return nil
	}
	return batches[r.Round()]
}
