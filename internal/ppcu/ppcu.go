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
// occupancy until cleanup. The switches run controlplane.Agent; the
// controller side is a controlplane.RoundExecutor whose two rounds are
// the two phases.
package ppcu

import (
	"p4update/internal/controlplane"
	"p4update/internal/topo"
)

// Coordinator is the PPCU round policy on its controlplane.RoundExecutor.
type Coordinator struct {
	*controlplane.RoundExecutor
	// Flips counts phase-1 → phase-2 transitions (diagnostics, reported
	// via the wiring metrics hook).
	Flips uint64
}

// NewCoordinator wires a PPCU control plane over the shared tracker.
func NewCoordinator(ctl *controlplane.Controller) *Coordinator {
	c := &Coordinator{}
	c.RoundExecutor = controlplane.NewRoundExecutor(ctl, c)
	return c
}

// Plan splits the update into its two phases: phase 1 installs the new
// rules on every non-ingress node whose rule changes (unchanged
// interiors forward correctly for both versions), phase 2 flips the
// ingress, whose commit completes the update.
func (c *Coordinator) Plan(oldPath, newPath []topo.NodeID) ([]topo.NodeID, any) {
	ingress := newPath[0]
	complete := []topo.NodeID{ingress}
	for _, n := range controlplane.ChangedNodes(oldPath, newPath) {
		if n != ingress {
			complete = append(complete, n)
		}
	}
	if len(complete) == 1 {
		return complete, [][]topo.NodeID{complete}
	}
	return complete, [][]topo.NodeID{complete[1:], complete[:1]}
}

// Next sends a phase once every instruction of the one before is
// acknowledged: the ingress commit stamps all new packets with the new
// version, atomically moving the flow onto the new rules.
func (c *Coordinator) Next(r *controlplane.Run) []topo.NodeID {
	phases := r.State.([][]topo.NodeID)
	if len(r.Outstanding()) > 0 || r.Round() == len(phases) {
		return nil
	}
	if r.Round() == len(phases)-1 {
		c.Flips++
	}
	return phases[r.Round()]
}
