package experiments

import (
	"fmt"
	"math/rand"
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
	w := nameWidth(10, r.Series, func(s Series) string { return s.System.String() })
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%-*s %s", w, s.System, s.CDF.Summary())
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

// scenario is one Fig. 7-shaped trial grid. Every (system × run) trial
// wires cfg over the one frozen topology g — all trial workers share it,
// its path oracle and the plan cache read-only — updates the
// run's flows, and yields the single sample measure reads off the
// updates. rounds attaches the commit-round tracker and scores every
// completed trial against the oracle bound (roundExtras).
type scenario struct {
	label, title string
	g            *topo.Topology
	plans        *plancache.Cache
	cfg          BedConfig
	runs         int
	seed         int64
	flows        func(run int) ([]traffic.FlowSpec, error)
	measure      func([]*controlplane.UpdateStatus) (time.Duration, bool)
	rounds       bool
}

// newScenario freezes one topology for a whole grid of `runs` runs per
// system under the §9.1 bed defaults.
func newScenario(mk func() *topo.Topology, label, title string, runs int, seed int64) scenario {
	g := mk()
	g.Freeze()
	return scenario{label: label, title: title, g: g, plans: plancache.New(g),
		cfg: DefaultBedConfig(), runs: runs, seed: seed}
}

// singleFlowScenario builds the grid Fig7SingleFlowOpts describes.
func singleFlowScenario(mk func() *topo.Topology, label string, runs int, seed int64) (scenario, error) {
	sc := newScenario(mk, label, label+" – single flow", runs, seed)
	spec, err := singleFlowSpec(sc.g) // deterministic; shared across runs
	if err != nil {
		return scenario{}, err
	}
	flows := []traffic.FlowSpec{spec}
	sc.cfg.NodeDelayMean = 100 * time.Millisecond
	sc.flows = func(int) ([]traffic.FlowSpec, error) { return flows, nil }
	sc.measure = updateTime
	return sc, nil
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

// multiFlowScenario builds the grid Fig7MultiFlowOpts describes.
func multiFlowScenario(mk func() *topo.Topology, label string, fatTree bool, runs int, seed int64) scenario {
	sc := newScenario(mk, label, label+" – multiple flows", runs, seed)
	sc.cfg.Congestion = true
	sc.cfg.FatTreeControl = fatTree
	g, tcfg := sc.g, traffic.DefaultConfig()
	tcfg.Candidates = endpoints(g, fatTree)
	sc.flows = runWorkloads(runs, seed, func(rng *rand.Rand) ([]traffic.FlowSpec, error) {
		return traffic.MultiFlowWorkload(g, rng, tcfg)
	})
	sc.measure = lastCompletion
	return sc
}

// endpoints restricts a fat tree's workload to its edge switches; other
// topologies draw from every node (nil).
func endpoints(g *topo.Topology, fatTree bool) []topo.NodeID {
	if fatTree {
		return topo.EdgeSwitches(g)
	}
	return nil
}

// updateTime is the single-flow measure: the one update's Completed−Sent.
func updateTime(updates []*controlplane.UpdateStatus) (time.Duration, bool) {
	if len(updates) == 0 || !updates[0].Done() {
		return 0, false
	}
	return updates[0].Completed - updates[0].Sent, true
}

// lastCompletion is the multi-flow measure: the instant the last flow
// completed; not ok unless every update did.
func lastCompletion(updates []*controlplane.UpdateStatus) (time.Duration, bool) {
	var last time.Duration
	for _, u := range updates {
		if !u.Done() {
			return 0, false
		}
		last = max(last, u.Completed)
	}
	return last, last > 0
}

// launch is the body of every flow-update trial: register the flows,
// trigger each one's update, run the engine to quiescence, and return
// the updates the system accepted, in flow order.
func (b *Bed) launch(flows []traffic.FlowSpec) ([]*controlplane.UpdateStatus, error) {
	if err := b.Register(flows); err != nil {
		return nil, err
	}
	updates := make([]*controlplane.UpdateStatus, 0, len(flows))
	for _, f := range flows {
		u, err := b.Trigger(f.ID(), f.New)
		if err != nil {
			return nil, fmt.Errorf("%s: trigger: %w", b.Kind, err)
		}
		if u != nil {
			updates = append(updates, u)
		}
	}
	b.Eng.Run()
	return updates, nil
}

// runFig7Grid shards sc's (system × run) trial grid across the pool and
// returns the results in trial-index order (system-major, run-minor —
// exactly the order the sequential loops produced), so the rendered
// figure is byte-identical whatever the worker count. A trial that does
// not complete its updates returns no sample: a failed run.
func runFig7Grid(sc scenario, opt RunOptions) []runner.Result {
	systems := opt.systems()
	trials := make([]runner.Trial, 0, len(systems)*sc.runs)
	for _, kind := range systems {
		for run := 0; run < sc.runs; run++ {
			wcfg := sc.cfg.WiringConfig(kind, sc.seed+int64(run))
			wcfg.Plans = sc.plans
			wcfg.Trace = opt.Trace
			wcfg.TrackRounds = sc.rounds
			trials = append(trials, runner.BedTrial(
				fmt.Sprintf("%s/%s/run%02d", sc.label, kind, run), kind.String(), sc.g, wcfg,
				func(sys *wiring.System) (runner.Metrics, error) {
					flows, err := sc.flows(run)
					if err != nil {
						return runner.Metrics{}, err
					}
					updates, err := (&Bed{Kind: kind, System: sys}).launch(flows)
					if err != nil {
						return runner.Metrics{}, err
					}
					d, ok := sc.measure(updates)
					if !ok {
						return runner.Metrics{}, nil
					}
					m := runner.Metrics{Samples: []time.Duration{d}}
					if sc.rounds {
						m.Extra = roundExtras(sys, sc.plans, sc.g, flows, updates)
					}
					return m, nil
				}))
		}
	}
	return opt.Pool().Run(trials)
}

// fig7 runs sc's grid and folds every system's runs into its series.
func fig7(sc scenario, opt RunOptions) *Fig7Result {
	res := &Fig7Result{Label: sc.title, Trials: runFig7Grid(sc, opt)}
	for ki, kind := range opt.systems() {
		res.Series = append(res.Series, series(kind, res.Trials[ki*sc.runs:(ki+1)*sc.runs]))
	}
	return res
}

// series folds one system's runs into its update-time distribution. A
// trial without samples did not complete its update; a Failed trial
// crashed or timed out. Both count as failed runs instead of aborting
// the figure.
func series(kind SystemKind, trials []runner.Result) Series {
	s := Series{System: kind}
	for _, r := range trials {
		if r.Failed || len(r.Samples) == 0 {
			s.Failed++
			continue
		}
		s.Samples = append(s.Samples, r.Samples...)
	}
	s.CDF = metrics.NewCDF(s.Samples)
	return s
}

// Fig7SingleFlowOpts runs the paper's single-flow scenario on topology
// builder mk, `runs` repetitions per system: one long flow (the exact
// Fig-1 paths on the synthetic topology, a segmented long flow
// elsewhere) under per-node exp(100 ms) rule-install delays, measured
// as the update's Completed−Sent.
func Fig7SingleFlowOpts(mk func() *topo.Topology, label string, runs int, seed int64, opt RunOptions) (*Fig7Result, error) {
	sc, err := singleFlowScenario(mk, label, runs, seed)
	if err != nil {
		return nil, err
	}
	return fig7(sc, opt), nil
}

// Fig7MultiFlowOpts runs the paper's multiple-flow scenario: every
// candidate node (a fat tree's edge switches, else every node) picks a
// random destination (old = shortest, new = 2nd-shortest), flow sizes
// follow the gravity model scaled near capacity, congestion freedom is
// enforced, and the measurement is the completion of the last flow.
// The same per-run workload (same seed) is presented to every system.
func Fig7MultiFlowOpts(mk func() *topo.Topology, label string, fatTree bool, runs int, seed int64, opt RunOptions) (*Fig7Result, error) {
	return fig7(multiFlowScenario(mk, label, fatTree, runs, seed), opt), nil
}

// Fig7ManyFlowsOpts runs the many-flow scale scenario: nFlows
// simultaneous unit-size flow updates (the paper's regime is 100–1000),
// measured at the completion of the last flow. Unlike the multi-flow
// scenario capacity enforcement is off — at this scale the interesting
// cost is coordinating hundreds of concurrent consistent updates, not
// congestion resolution.
func Fig7ManyFlowsOpts(mk func() *topo.Topology, label string, fatTree bool, nFlows, runs int, seed int64, opt RunOptions) (*Fig7Result, error) {
	if nFlows <= 0 {
		return nil, fmt.Errorf("manyflows: need a positive flow count, got %d", nFlows)
	}
	sc := newScenario(mk, label, fmt.Sprintf("%s – %d flows", label, nFlows), runs, seed)
	sc.cfg.FatTreeControl = fatTree
	g, candidates := sc.g, endpoints(sc.g, fatTree)
	sc.flows = runWorkloads(runs, seed, func(rng *rand.Rand) ([]traffic.FlowSpec, error) {
		return traffic.ManyFlowWorkload(g, rng, nFlows, candidates)
	})
	sc.measure = lastCompletion
	return fig7(sc, opt), nil
}
