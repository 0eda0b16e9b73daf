package experiments

import (
	"fmt"
	"strings"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/metrics"
	"p4update/internal/optoracle"
	"p4update/internal/plancache"
	"p4update/internal/runner"
	"p4update/internal/topo"
	"p4update/internal/traffic"
	"p4update/internal/wiring"
)

// OptGapSeries is one system's round-count profile against the oracle
// bound: how many commit rounds its executions actually took, relative
// to the minimal schedule the offline oracle proves sufficient for the
// same path pairs.
type OptGapSeries struct {
	System SystemKind
	CDF    *metrics.CDF
	Failed int
	// Rounds and Bound are the per-trial means of the measured commit
	// rounds and the oracle's lower bound; Gap is their ratio (1.0 =
	// provably round-optimal executions).
	Rounds float64
	Bound  float64
	Gap    float64
	// Violations counts trials whose measured rounds fell below the
	// bound — impossible if both the tracker and the oracle are correct,
	// so any nonzero value is a bug, not a result.
	Violations int
}

// OptGapResult is one optimality-gap table (the fig7-style evaluation
// extended with the oracle column).
type OptGapResult struct {
	Label  string
	Series []OptGapSeries
	// Violations totals the per-series bound violations (must be 0).
	Violations int
	// Trials are the merged per-trial runner results (system-major, run-
	// minor); each trial's Extra carries "rounds" and "opt_bound".
	Trials []runner.Result
}

// String renders the table: one row per system with the measured
// update-time summary, mean commit rounds, the oracle bound, and the
// optimality gap.
func (r *OptGapResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Optimality gap: %s ==\n", r.Label)
	fmt.Fprintf(&b, "%-11s %-44s %8s %8s %8s\n", "system", "update time", "rounds", "opt", "gap")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%-11s %-44s %8.2f %8.2f %7.2fx", s.System, s.CDF.Summary(), s.Rounds, s.Bound, s.Gap)
		if s.Failed > 0 {
			fmt.Fprintf(&b, "  FAILED=%d", s.Failed)
		}
		if s.Violations > 0 {
			fmt.Fprintf(&b, "  BOUND-VIOLATIONS=%d", s.Violations)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "round-bound violations: %d\n", r.Violations)
	return b.String()
}

// roundExtras scores one completed update against the oracle: measured
// commit rounds from the tracker, the oracle bound for the path pair,
// and whether the bound was violated.
func roundExtras(sys *wiring.System, plans *plancache.Cache, g *topo.Topology,
	f traffic.FlowSpec, version uint32, extra map[string]float64) {
	measured := float64(sys.Rounds.Rounds(f.ID(), version))
	bound := float64(optoracle.RoundsCached(plans, g, f.Old, f.New))
	extra["rounds"] += measured
	extra["opt_bound"] += bound
	if measured < bound {
		extra["bound_violations"]++
	}
}

// aggregateOptGap folds the merged trial grid into per-system series
// (same system-major trial order as runFig7Grid).
func aggregateOptGap(res *OptGapResult, systems []SystemKind, runs int) {
	for ki, kind := range systems {
		s := OptGapSeries{System: kind}
		var samples []time.Duration
		var rounds, bound float64
		completed := 0
		for run := 0; run < runs; run++ {
			r := res.Trials[ki*runs+run]
			if r.Failed || len(r.Samples) == 0 {
				s.Failed++
				continue
			}
			samples = append(samples, r.Samples...)
			completed++
			rounds += r.Extra["rounds"]
			bound += r.Extra["opt_bound"]
			s.Violations += int(r.Extra["bound_violations"])
		}
		s.CDF = metrics.NewCDF(samples)
		if completed > 0 {
			s.Rounds = rounds / float64(completed)
			s.Bound = bound / float64(completed)
		}
		if s.Bound > 0 {
			s.Gap = s.Rounds / s.Bound
		}
		res.Violations += s.Violations
		res.Series = append(res.Series, s)
	}
}

// OptGapSingleFlow runs the Fig. 7 single-flow scenario (one long flow,
// exponential per-node install delays) with the round tracker attached
// and scores every trial against the oracle's round bound.
func OptGapSingleFlow(mk func() *topo.Topology, label string, runs int, seed int64, opt RunOptions) (*OptGapResult, error) {
	res := &OptGapResult{Label: label + " – single flow"}
	g := mk()
	g.Freeze()
	spec, err := singleFlowSpec(g)
	if err != nil {
		return nil, err
	}
	plans := plancache.New(g)
	systems := opt.systems()
	trials := make([]runner.Trial, 0, len(systems)*runs)
	for _, kind := range systems {
		for run := 0; run < runs; run++ {
			kind, run := kind, run
			cfg := DefaultBedConfig()
			cfg.NodeDelayMean = 100 * time.Millisecond
			wcfg := cfg.WiringConfig(kind, seed+int64(run))
			wcfg.Plans = plans
			wcfg.Trace = opt.Trace
			wcfg.TrackRounds = true
			trials = append(trials, runner.BedTrial(
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
					extra := make(map[string]float64)
					roundExtras(sys, plans, g, spec, u.Version, extra)
					return runner.Metrics{
						Samples: []time.Duration{u.Completed - u.Sent},
						Extra:   extra,
					}, nil
				}))
		}
	}
	res.Trials = opt.Pool().Run(trials)
	aggregateOptGap(res, systems, runs)
	return res, nil
}

// OptGapMultiFlow runs the Fig. 7 multiple-flow scenario (gravity-model
// workload, congestion enforced) with round tracking; each trial's
// rounds and bound sum over the workload's flows, and the bound is
// checked per flow.
func OptGapMultiFlow(mk func() *topo.Topology, label string, runs int, seed int64, opt RunOptions) (*OptGapResult, error) {
	res := &OptGapResult{Label: label + " – multiple flows"}
	g := mk()
	g.Freeze()
	plans := plancache.New(g)
	workloads := newWorkloadCache()
	systems := opt.systems()
	trials := make([]runner.Trial, 0, len(systems)*runs)
	for _, kind := range systems {
		for run := 0; run < runs; run++ {
			kind, run := kind, run
			cfg := DefaultBedConfig()
			cfg.Congestion = true
			wcfg := cfg.WiringConfig(kind, seed+int64(run))
			wcfg.Plans = plans
			wcfg.Trace = opt.Trace
			wcfg.TrackRounds = true
			trials = append(trials, runner.BedTrial(
				fmt.Sprintf("%s/%s/run%02d", label, kind, run), kind.String(),
				g, wcfg,
				func(sys *wiring.System) (runner.Metrics, error) {
					b := &Bed{Kind: kind, System: sys}
					flows, err := workloads.get(int64(run), func() ([]traffic.FlowSpec, error) {
						return traffic.MultiFlowWorkload(g, newWorkloadRand(seed+int64(run)), traffic.DefaultConfig())
					})
					if err != nil {
						return runner.Metrics{}, err
					}
					if err := b.Register(flows); err != nil {
						return runner.Metrics{}, err
					}
					type pending struct {
						spec traffic.FlowSpec
						u    *controlplane.UpdateStatus
					}
					var updates []pending
					for _, f := range flows {
						u, err := b.Trigger(f.ID(), f.New)
						if err != nil {
							return runner.Metrics{}, fmt.Errorf("%s: trigger: %w", kind, err)
						}
						if u != nil {
							updates = append(updates, pending{f, u})
						}
					}
					b.Eng.Run()
					var last time.Duration
					extra := make(map[string]float64)
					for _, p := range updates {
						if !p.u.Done() {
							return runner.Metrics{}, nil // incomplete: failed run
						}
						if p.u.Completed > last {
							last = p.u.Completed
						}
						roundExtras(sys, plans, g, p.spec, p.u.Version, extra)
					}
					if last == 0 {
						return runner.Metrics{}, nil
					}
					return runner.Metrics{
						Samples: []time.Duration{last},
						Extra:   extra,
					}, nil
				}))
		}
	}
	res.Trials = opt.Pool().Run(trials)
	aggregateOptGap(res, systems, runs)
	return res, nil
}
