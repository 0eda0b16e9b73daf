// Package central implements the centralized baseline of the paper's
// evaluation (§9.1): the controller computes a dependency graph and
// greedily updates, per round, every node that can safely change without
// creating a loop or blackhole (Mahajan & Wattenhofer / Dionysus style).
// After each round it waits for per-node acknowledgements — which incur
// control-channel latency plus controller queuing and processing delay
// (Jarschel et al.) — recomputes the dependency relation on the reported
// state, and pushes the next round. The switches run controlplane.Agent.
package central

import (
	"slices"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
)

// Coordinator is the Central round policy on its controlplane.RoundExecutor.
type Coordinator struct {
	*controlplane.RoundExecutor
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

	// retryArmed guards the starvation-retry timer; retryIdle counts
	// consecutive retries without an acknowledgement, seenAcks the
	// executor's count at the last retry. retryFn is retry, bound once.
	retryArmed bool
	retryIdle  int
	seenAcks   uint64
	retryFn    func()
}

// NewCoordinator wires the centralized baseline over the shared tracker.
func NewCoordinator(ctl *controlplane.Controller, procDelay time.Duration) *Coordinator {
	c := &Coordinator{ProcDelay: procDelay}
	c.RoundExecutor = controlplane.NewRoundExecutor(ctl, c)
	c.Service = c.service
	c.NoResend = true
	c.retryFn = c.retry
	return c
}

// service is one message's time on the controller.
func (c *Coordinator) service() time.Duration {
	if c.QueueDelay == nil {
		return c.ProcDelay
	}
	return c.ProcDelay + c.QueueDelay()
}

// TriggerUpdate starts a centralized update of flow f to newPath, and
// the starvation retry when a run started. Central has no loss recovery
// (NoResend).
func (c *Coordinator) TriggerUpdate(f packet.FlowID, newPath []topo.NodeID) (*controlplane.UpdateStatus, error) {
	active := c.Active()
	u, err := c.RoundExecutor.TriggerUpdate(f, newPath)
	if c.Active() > active {
		c.scheduleRetry()
	}
	return u, err
}

// Plan completes the update once every node whose next hop changes is
// acknowledged.
func (c *Coordinator) Plan(oldPath, newPath []topo.NodeID) ([]topo.NodeID, any) {
	return controlplane.ChangedNodes(oldPath, newPath), nil
}

// Next is the maximal greedily-safe node set, downstream first (which
// maximizes per-round progress, as in dependency-graph schedulers),
// that fits the links under Congestion. It is asked again after every
// acknowledgement, not only once a round's stragglers are in.
func (c *Coordinator) Next(r *controlplane.Run) []topo.NodeID {
	batch := controlplane.SafeBatch(r.OldPath, r.NewPath, r.Acked(), r.Outstanding())
	if c.Congestion {
		batch = c.capacityFilter(r, batch)
	}
	return batch
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
	c.Ctl.Eng.Schedule(50*time.Millisecond, c.retryFn)
}

// retry runs one starvation retry armed by scheduleRetry.
func (c *Coordinator) retry() {
	c.retryArmed = false
	if c.Acks != c.seenAcks {
		c.seenAcks = c.Acks
		c.retryIdle = 0
	}
	if c.Active() == 0 || c.retryIdle > 200 {
		return
	}
	c.retryIdle++
	c.Repoke()
	c.scheduleRetry()
}

// capacityFilter keeps the batch members whose move fits the
// remaining capacity of their new link, as the switches report it now.
func (c *Coordinator) capacityFilter(r *controlplane.Run, batch []topo.NodeID) []topo.NodeID {
	out := batch[:0]
	for _, n := range batch {
		port := c.Ctl.Topo.PortTo(n, r.NewPath[slices.Index(r.NewPath, n)+1])
		if c.Ctl.Net.Switch(n).RemainingK(port) >= uint64(r.SizeK) {
			out = append(out, n)
		}
	}
	return out
}
