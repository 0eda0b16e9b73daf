package experiments

import (
	"testing"

	"p4update/internal/topo"
	"p4update/internal/traffic"
)

// TestContentionLevel pins the claim EXPERIMENTS.md's multi-flow
// deviation rests on: feasibility-checked gravity workloads on B4 block
// no move, so the congestion scheduler never parks anything. A nonzero
// resubmission count means the workloads now exercise it and the
// explanation of the P4Update/ez-Segway draw needs revisiting.
func TestContentionLevel(t *testing.T) {
	for _, util := range []float64{0.85, 0.95} {
		g := topo.B4()
		cfg := DefaultBedConfig()
		cfg.Congestion = true
		b := NewBed(KindP4Update, g, 7, cfg)
		tc := traffic.DefaultConfig()
		tc.Utilization = util
		flows, err := traffic.MultiFlowWorkload(g, newWorkloadRand(7), tc)
		if err != nil {
			t.Fatal(err)
		}
		b.Register(flows)
		for _, f := range flows {
			b.Trigger(f.ID(), f.New)
		}
		b.Eng.Run()
		var resub uint64
		for _, sw := range b.Net.Switches() {
			resub += sw.Stats.Resubmissions
		}
		t.Logf("util=%.2f flows=%d resubmissions=%d", util, len(flows), resub)
		if resub != 0 {
			t.Errorf("util=%.2f: %d resubmissions, want 0 capacity-blocked moves", util, resub)
		}
	}
}
