package experiments

import (
	"fmt"
	"strings"

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
	w := nameWidth(11, r.Series, func(s OptGapSeries) string { return s.System.String() })
	tw := nameWidth(44, r.Series, func(s OptGapSeries) string { return s.CDF.Summary() })
	fmt.Fprintf(&b, "%-*s %-*s %8s %8s %8s\n", w, "system", tw, "update time", "rounds", "opt", "gap")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%-*s %-*s %8.2f %8.2f %7.2fx", w, s.System, tw, s.CDF.Summary(), s.Rounds, s.Bound, s.Gap)
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

// roundExtras scores one completed trial against the oracle: the commit
// rounds the tracker measured for every update and the oracle bound for
// its flow's path pair, each summed over the trial, and how many updates
// undercut their bound.
func roundExtras(sys *wiring.System, plans *plancache.Cache, g *topo.Topology,
	flows []traffic.FlowSpec, updates []*controlplane.UpdateStatus) map[string]float64 {
	extra := make(map[string]float64)
	i := 0
	for _, u := range updates {
		for flows[i].ID() != u.Flow {
			i++ // a flow whose trigger returned no update
		}
		measured := float64(sys.Rounds.Rounds(u.Flow, u.Version))
		bound := float64(optoracle.RoundsCached(plans, g, flows[i].Old, flows[i].New))
		extra["rounds"] += measured
		extra["opt_bound"] += bound
		if measured < bound {
			extra["bound_violations"]++
		}
	}
	return extra
}

// aggregateOptGap folds the merged trial grid into per-system series
// (same system-major trial order as runFig7Grid).
func aggregateOptGap(res *OptGapResult, systems []SystemKind, runs int) {
	for ki, kind := range systems {
		trials := res.Trials[ki*runs : (ki+1)*runs]
		f := series(kind, trials)
		s := OptGapSeries{System: kind, CDF: f.CDF, Failed: f.Failed}
		for _, r := range trials {
			if !r.Failed && len(r.Samples) > 0 {
				s.Rounds += r.Extra["rounds"]
				s.Bound += r.Extra["opt_bound"]
				s.Violations += int(r.Extra["bound_violations"])
			}
		}
		if completed := runs - s.Failed; completed > 0 {
			s.Rounds /= float64(completed)
			s.Bound /= float64(completed)
		}
		if s.Bound > 0 {
			s.Gap = s.Rounds / s.Bound
		}
		res.Violations += s.Violations
		res.Series = append(res.Series, s)
	}
}

// OptGapSingleFlow is the Fig. 7 single-flow grid (Fig7SingleFlowOpts)
// with the round tracker attached, every trial scored against the
// oracle's round bound.
func OptGapSingleFlow(mk func() *topo.Topology, label string, runs int, seed int64, opt RunOptions) (*OptGapResult, error) {
	sc, err := singleFlowScenario(mk, label, runs, seed)
	if err != nil {
		return nil, err
	}
	return optGap(sc, opt), nil
}

// OptGapMultiFlow is the Fig. 7 multiple-flow grid (Fig7MultiFlowOpts,
// fatTree=false) with round tracking; each trial's rounds and bound sum
// over the workload's flows, and the bound is checked per flow.
func OptGapMultiFlow(mk func() *topo.Topology, label string, runs int, seed int64, opt RunOptions) (*OptGapResult, error) {
	return optGap(multiFlowScenario(mk, label, false, runs, seed), opt), nil
}

// optGap runs sc's grid with the round tracker on and aggregates the
// optimality-gap table.
func optGap(sc scenario, opt RunOptions) *OptGapResult {
	sc.rounds = true
	res := &OptGapResult{Label: sc.title, Trials: runFig7Grid(sc, opt)}
	aggregateOptGap(res, opt.systems(), sc.runs)
	return res
}
