package experiments

import (
	"fmt"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/plancache"
	"p4update/internal/runner"
	"p4update/internal/topo"
	"p4update/internal/traffic"
	"p4update/internal/wiring"
)

// Fig7ManyFlows runs the many-flow scale scenario: nFlows simultaneous
// flow updates (the paper's regime is 100–1000) on one shared frozen
// topology, measuring the completion time of the last flow. Unlike the
// Fig. 7 multi-flow scenario, capacity enforcement is off — at this
// scale the interesting cost is coordinating hundreds of concurrent
// consistent updates, not congestion resolution — and flows carry unit
// sizes. The same per-run workload (same seed) is presented to every
// system; trials execute on the default parallel pool.
func Fig7ManyFlows(mk func() *topo.Topology, label string, fatTree bool, nFlows, runs int, seed int64) (*Fig7Result, error) {
	return Fig7ManyFlowsOpts(mk, label, fatTree, nFlows, runs, seed, RunOptions{})
}

// Fig7ManyFlowsOpts is Fig7ManyFlows with explicit execution options.
func Fig7ManyFlowsOpts(mk func() *topo.Topology, label string, fatTree bool, nFlows, runs int, seed int64, opt RunOptions) (*Fig7Result, error) {
	if nFlows <= 0 {
		return nil, fmt.Errorf("manyflows: need a positive flow count, got %d", nFlows)
	}
	res := &Fig7Result{Label: fmt.Sprintf("%s – %d flows", label, nFlows)}
	g := mk()
	g.Freeze()
	var candidates []topo.NodeID
	if fatTree {
		candidates = topo.EdgeSwitches(g)
	}
	plans := plancache.New(g)
	workloads := newWorkloadCache()
	runFig7Grid(res, runs, opt, func(kind SystemKind, run int) runner.Trial {
		cfg := DefaultBedConfig()
		cfg.FatTreeControl = fatTree
		wcfg := cfg.WiringConfig(kind, seed+int64(run))
		wcfg.Plans = plans
		wcfg.Trace = opt.Trace
		return runner.BedTrial(
			fmt.Sprintf("%s/%s/run%02d", label, kind, run), kind.String(),
			g, wcfg,
			func(sys *wiring.System) (runner.Metrics, error) {
				b := &Bed{Kind: kind, System: sys}
				flows, err := workloads.get(int64(run), func() ([]traffic.FlowSpec, error) {
					return traffic.ManyFlowWorkload(g, newWorkloadRand(seed+int64(run)), nFlows, candidates)
				})
				if err != nil {
					return runner.Metrics{}, err
				}
				if err := b.Register(flows); err != nil {
					return runner.Metrics{}, err
				}
				updates := make([]*controlplane.UpdateStatus, 0, len(flows))
				for _, f := range flows {
					u, err := b.Trigger(f.ID(), f.New)
					if err != nil {
						return runner.Metrics{}, fmt.Errorf("%s: trigger: %w", kind, err)
					}
					if u != nil {
						updates = append(updates, u)
					}
				}
				b.Eng.Run()
				var last time.Duration
				for _, u := range updates {
					if !u.Done() {
						return runner.Metrics{}, nil // incomplete: failed run
					}
					if u.Completed > last {
						last = u.Completed
					}
				}
				if last == 0 {
					return runner.Metrics{}, nil
				}
				return runner.Metrics{Samples: []time.Duration{last}}, nil
			})
	})
	return res, nil
}
