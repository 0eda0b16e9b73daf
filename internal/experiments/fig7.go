package experiments

import (
	"fmt"
	"strings"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/metrics"
	"p4update/internal/plancache"
	"p4update/internal/runner"
	"p4update/internal/topo"
	"p4update/internal/traffic"
	"p4update/internal/wiring"
)

// Series is one system's empirical update-time distribution.
type Series struct {
	System  SystemKind
	CDF     *metrics.CDF
	Failed  int // runs that did not complete (should be zero)
	Samples []time.Duration
}

// Fig7Result is one subplot of the paper's Fig. 7.
type Fig7Result struct {
	Label  string
	Series []Series
	// Trials are the merged per-trial runner results (index order:
	// system-major, run-minor) for JSON export.
	Trials []runner.Result
}

// String renders the subplot in the paper's reporting style: one summary
// row per system plus the relative improvement of P4Update over both
// competitors (cf. "fat-tree: −28.6%, B4: −39.1%, Internet2: −31.4%").
func (r *Fig7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Fig. 7: %s ==\n", r.Label)
	var p4u, ez time.Duration
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%-10s %s", s.System, s.CDF.Summary())
		if s.Failed > 0 {
			fmt.Fprintf(&b, "  FAILED=%d", s.Failed)
		}
		b.WriteByte('\n')
		switch s.System {
		case KindP4Update:
			p4u = s.CDF.Mean()
		case KindEZSegway:
			ez = s.CDF.Mean()
		}
	}
	if p4u > 0 && ez > 0 {
		fmt.Fprintf(&b, "P4Update vs ez-Segway (mean): %+.1f%%\n",
			metrics.Improvement(p4u, ez))
	}
	return b.String()
}

// CDFSeries renders per-system CDF rows for plotting.
func (r *Fig7Result) CDFSeries() string {
	var b strings.Builder
	for _, s := range r.Series {
		fmt.Fprintf(&b, "# %s — %s (ms, fraction)\n", r.Label, s.System)
		b.WriteString(s.CDF.Rows())
	}
	return b.String()
}

// singleFlowSpec picks the paper's engineered single-flow scenario: the
// exact Fig-1 paths on the synthetic topology, and a segmented long flow
// elsewhere.
func singleFlowSpec(g *topo.Topology) (traffic.FlowSpec, error) {
	if g.Name == "synthetic" {
		oldP, newP := topo.SyntheticPaths()
		return traffic.FlowSpec{Src: oldP[0], Dst: oldP[len(oldP)-1], Old: oldP, New: newP, SizeK: 1000}, nil
	}
	return traffic.SegmentedSingleFlow(g, 1000)
}

// runFig7Grid shards the (system × run) trial grid across the pool and
// merges the results back in trial-index order (system-major, run-minor
// — exactly the order the sequential loops produced), so the rendered
// figure is byte-identical whatever the worker count.
func runFig7Grid(res *Fig7Result, runs int, opt RunOptions, mkTrial func(kind SystemKind, run int) runner.Trial) {
	systems := opt.systems()
	trials := make([]runner.Trial, 0, len(systems)*runs)
	for _, kind := range systems {
		for run := 0; run < runs; run++ {
			trials = append(trials, mkTrial(kind, run))
		}
	}
	res.Trials = opt.Pool().Run(trials)
	for ki, kind := range systems {
		var samples []time.Duration
		failed := 0
		for run := 0; run < runs; run++ {
			r := res.Trials[ki*runs+run]
			// A trial without samples did not complete its update; a
			// Failed trial crashed or timed out. Both count as failed
			// runs instead of aborting the figure.
			if r.Failed || len(r.Samples) == 0 {
				failed++
				continue
			}
			samples = append(samples, r.Samples...)
		}
		res.Series = append(res.Series, Series{
			System: kind, CDF: metrics.NewCDF(samples), Failed: failed, Samples: samples,
		})
	}
}

// Fig7SingleFlow runs the single-flow scenario on topology builder mk:
// one long flow (old = shortest, new = 2nd-shortest between the farthest
// pair), per-node exp(nodeDelay) rule-install delays, `runs` repetitions.
// Trials execute on the default parallel pool (one worker per core).
func Fig7SingleFlow(mk func() *topo.Topology, label string, runs int, seed int64) (*Fig7Result, error) {
	return Fig7SingleFlowOpts(mk, label, runs, seed, RunOptions{})
}

// Fig7SingleFlowOpts is Fig7SingleFlow with explicit execution options.
func Fig7SingleFlowOpts(mk func() *topo.Topology, label string, runs int, seed int64, opt RunOptions) (*Fig7Result, error) {
	res := &Fig7Result{Label: label + " – single flow"}
	// One topology for the whole grid: frozen so all trial workers share
	// it (and its snapshot path oracle) read-only, and the flow spec is
	// derived from the same instance instead of a throwaway build.
	g := mk()
	g.Freeze()
	spec, err := singleFlowSpec(g) // deterministic; shared across runs
	if err != nil {
		return nil, err
	}
	plans := plancache.New(g)
	runFig7Grid(res, runs, opt, func(kind SystemKind, run int) runner.Trial {
		cfg := DefaultBedConfig()
		cfg.NodeDelayMean = 100 * time.Millisecond
		wcfg := cfg.WiringConfig(kind, seed+int64(run))
		wcfg.Plans = plans
		wcfg.Trace = opt.Trace
		return runner.BedTrial(
			fmt.Sprintf("%s/%s/run%02d", label, kind, run), kind.String(),
			g, wcfg,
			func(sys *wiring.System) (runner.Metrics, error) {
				b := &Bed{Kind: kind, System: sys}
				if err := b.Register([]traffic.FlowSpec{spec}); err != nil {
					return runner.Metrics{}, err
				}
				u, err := b.Trigger(spec.ID(), spec.New)
				if err != nil {
					return runner.Metrics{}, err
				}
				b.Eng.Run()
				if u == nil || !u.Done() {
					return runner.Metrics{}, nil // incomplete: failed run
				}
				return runner.Metrics{Samples: []time.Duration{u.Completed - u.Sent}}, nil
			})
	})
	return res, nil
}

// Fig7MultiFlow runs the multiple-flow scenario: every candidate node
// picks a random destination (old = shortest, new = 2nd-shortest), flow
// sizes follow the gravity model scaled near capacity, congestion freedom
// is enforced, and the measurement is the completion time of the last
// flow. The same per-run workload (same seed) is presented to every
// system. Trials execute on the default parallel pool.
func Fig7MultiFlow(mk func() *topo.Topology, label string, fatTree bool, runs int, seed int64) (*Fig7Result, error) {
	return Fig7MultiFlowOpts(mk, label, fatTree, runs, seed, RunOptions{})
}

// Fig7MultiFlowOpts is Fig7MultiFlow with explicit execution options.
func Fig7MultiFlowOpts(mk func() *topo.Topology, label string, fatTree bool, runs int, seed int64, opt RunOptions) (*Fig7Result, error) {
	res := &Fig7Result{Label: label + " – multiple flows"}
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
		cfg.Congestion = true
		cfg.FatTreeControl = fatTree
		wcfg := cfg.WiringConfig(kind, seed+int64(run))
		wcfg.Plans = plans
		wcfg.Trace = opt.Trace
		return runner.BedTrial(
			fmt.Sprintf("%s/%s/run%02d", label, kind, run), kind.String(),
			g, wcfg,
			func(sys *wiring.System) (runner.Metrics, error) {
				b := &Bed{Kind: kind, System: sys}
				// Workload depends only on the run index so each system
				// sees the identical scenario; the cache generates it once
				// per run and shares it (read-only) across the systems.
				flows, err := workloads.get(int64(run), func() ([]traffic.FlowSpec, error) {
					tcfg := traffic.DefaultConfig()
					tcfg.Candidates = candidates
					return traffic.MultiFlowWorkload(g, newWorkloadRand(seed+int64(run)), tcfg)
				})
				if err != nil {
					return runner.Metrics{}, err
				}
				if err := b.Register(flows); err != nil {
					return runner.Metrics{}, err
				}
				var updates []*controlplane.UpdateStatus
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
