package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"p4update/internal/faults"
	"p4update/internal/plancache"
	"p4update/internal/runner"
	"p4update/internal/topo"
	"p4update/internal/trace"
	"p4update/internal/traffic"
	"p4update/internal/wiring"
)

// faultSweepFlows is the per-trial workload size of the chaos sweep:
// small enough that the every-step auditor stays cheap, large enough
// that several flows cross every chaotic link.
const faultSweepFlows = 12

// faultWatchdog is the §11 recovery cadence used by the sweep for both
// the switch-side stall watchdog and the controller-side completion
// watchdog.
const faultWatchdog = 250 * time.Millisecond

// FaultCell is one cell of the chaos grid: a (loss, reorder) rate pair
// applied to the data fabric and both control-channel directions.
type FaultCell struct {
	Loss    float64
	Reorder float64
}

// FaultRow aggregates one system's runs in one grid cell.
type FaultRow struct {
	System SystemKind
	Cell   FaultCell
	// Runs is the number of trials; Completed how many finished every
	// flow update; Failed how many crashed or timed out outright.
	Runs      int
	Completed int
	Failed    int
	// FlowsDone / Flows count individual flow updates across the runs.
	FlowsDone int
	Flows     int
	// MeanDone is the mean last-flow completion time of completed runs.
	MeanDone time.Duration
	// Retriggers sums §11 recovery re-transmissions across the runs.
	Retriggers uint64
	// Audit violation totals across the runs.
	Blackholes         uint64
	Loops              uint64
	OverCapacity       uint64
	VersionRegressions uint64
}

// FaultsResult is the chaos sweep: completion and audit outcomes for
// every system under every fault cell.
type FaultsResult struct {
	Label string
	Rows  []FaultRow
	// Trials are the merged per-trial runner results (system-major,
	// cell-middle, run-minor) for JSON export.
	Trials []runner.Result
}

// String renders the sweep as one row per (system, cell): the paper's
// §11 claim in table form — P4Update keeps completing with zero
// violations while faults climb, the baselines stall or go dark. A
// failed run's flows are missing from flows-done, so failed is printed
// beside it; regress counts version-monotonicity violations.
func (r *FaultsResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Faults: %s ==\n", r.Label)
	w := nameWidth(10, r.Rows, func(row FaultRow) string { return row.System.String() })
	fmt.Fprintf(&b, "%-*s %5s %7s %9s %6s %11s %10s %10s %5s %7s %7s %7s\n",
		w, "system", "loss", "reorder", "runs-done", "failed", "flows-done",
		"mean-time", "retriggers", "loops", "blkhole", "overcap", "regress")
	for i := range r.Rows {
		row := &r.Rows[i]
		mean := "-"
		if row.MeanDone > 0 {
			mean = row.MeanDone.Round(time.Millisecond).String()
		}
		fmt.Fprintf(&b, "%-*s %5.2f %7.2f %5d/%-3d %6d %7d/%-3d %10s %10d %5d %7d %7d %7d\n",
			w, row.System, row.Cell.Loss, row.Cell.Reorder,
			row.Completed, row.Runs, row.Failed, row.FlowsDone, row.Flows,
			mean, row.Retriggers, row.Loops, row.Blackholes, row.OverCapacity,
			row.VersionRegressions)
	}
	return b.String()
}

// faultPlan builds the chaos plan of one grid cell: the loss and
// reorder rates hit the data fabric and both control-channel
// directions, and the optional crash schedule takes down `crashes`
// switches in staggered 150 ms outage windows. The plan seed is left
// zero so wiring derives it from the trial seed — every system of a
// run faces the same chaos.
func faultPlan(g *topo.Topology, cell FaultCell, crashes, run int) *faults.Plan {
	r := faults.Rates{
		Drop:      cell.Loss,
		Reorder:   cell.Reorder,
		ReorderBy: 2 * time.Millisecond,
	}
	p := &faults.Plan{Data: r, Up: r, Down: r}
	n := g.NumNodes()
	for i := 0; i < crashes; i++ {
		at := time.Duration(300+200*i) * time.Millisecond
		p.Crashes = append(p.Crashes, faults.Crash{
			Node:    topo.NodeID((run*7 + 3*i + 1) % n),
			At:      at,
			Restore: at + 150*time.Millisecond,
		})
	}
	return p
}

// FaultSweep runs the chaos grid on the frozen B4 topology: for every
// system, fault cell (loss × reorder), and run, a many-flow workload is
// updated under the cell's deterministic fault plan while the invariant
// auditor sweeps the live forwarding state every auditEvery engine
// steps. Results are merged in trial-index order, so the rendered table
// is byte-identical for every worker count.
func FaultSweep(lossRates, reorderRates []float64, crashes, auditEvery, runs int, seed int64, opt RunOptions) (*FaultsResult, error) {
	if len(lossRates) == 0 {
		lossRates = []float64{0, 0.05, 0.1, 0.2}
	}
	if len(reorderRates) == 0 {
		reorderRates = []float64{0, 0.1}
	}
	if auditEvery <= 0 {
		auditEvery = 1
	}
	var cells []FaultCell
	for _, l := range lossRates {
		for _, o := range reorderRates {
			cells = append(cells, FaultCell{Loss: l, Reorder: o})
		}
	}

	g := topo.B4()
	g.Freeze()
	plans := plancache.New(g)
	// The workload depends only on the run index: every system and every
	// fault cell of a run updates the same flows.
	workloads := runWorkloads(runs, seed, func(rng *rand.Rand) ([]traffic.FlowSpec, error) {
		return traffic.ManyFlowWorkload(g, rng, faultSweepFlows, nil)
	})
	res := &FaultsResult{
		Label: fmt.Sprintf("B4, %d flows, %d runs/cell, audit every %d steps",
			faultSweepFlows, runs, auditEvery),
	}

	systems := opt.systems()
	trials := make([]runner.Trial, 0, len(systems)*len(cells)*runs)
	for _, kind := range systems {
		for _, cell := range cells {
			for run := 0; run < runs; run++ {
				trials = append(trials, faultTrial(g, plans, workloads, kind, cell, crashes, auditEvery, run, seed, opt.Trace))
			}
		}
	}
	res.Trials = opt.Pool().Run(trials)

	for ki, kind := range systems {
		for ci, cell := range cells {
			row := FaultRow{System: kind, Cell: cell, Runs: runs}
			var doneSum time.Duration
			for run := 0; run < runs; run++ {
				r := res.Trials[(ki*len(cells)+ci)*runs+run]
				if r.Failed {
					row.Failed++
					continue
				}
				v := r.Values
				row.Flows += int(v["flows"])
				row.FlowsDone += int(v["completed"])
				row.Retriggers += uint64(v["retriggers"])
				row.Blackholes += uint64(v["audit_blackholes"])
				row.Loops += uint64(v["audit_loops"])
				row.OverCapacity += uint64(v["audit_over_capacity"])
				row.VersionRegressions += uint64(v["audit_version_regressions"])
				if len(r.Samples) > 0 {
					row.Completed++
					doneSum += r.Samples[0]
				}
			}
			if row.Completed > 0 {
				row.MeanDone = doneSum / time.Duration(row.Completed)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// faultTrial builds one chaos trial: the run's shared workload updated
// under the cell's fault plan with the §11 recovery machinery armed and
// the auditor attached.
func faultTrial(g *topo.Topology, plans *plancache.Cache, workloads func(run int) ([]traffic.FlowSpec, error),
	kind SystemKind, cell FaultCell, crashes, auditEvery, run int, seed int64, tr *trace.Options) runner.Trial {
	wcfg := DefaultBedConfig().WiringConfig(kind, seed+int64(run))
	wcfg.Plans = plans
	wcfg.Trace = tr
	wcfg.WatchdogTimeout = faultWatchdog
	wcfg.ProbeTimeout = faultWatchdog
	wcfg.MaxRetriggers = 25
	wcfg.AuditEvery = auditEvery
	wcfg.Faults = faultPlan(g, cell, crashes, run)
	label := fmt.Sprintf("faults/%s/loss%.2f-reorder%.2f/run%02d", kind, cell.Loss, cell.Reorder, run)
	return runner.BedTrial(label, kind.String(), g, wcfg,
		func(sys *wiring.System) (runner.Metrics, error) {
			flows, err := workloads(run)
			if err != nil {
				return runner.Metrics{}, err
			}
			updates, err := (&Bed{Kind: kind, System: sys}).launch(flows)
			if err != nil {
				return runner.Metrics{}, err
			}
			var last time.Duration
			done, retr := 0, 0
			for _, u := range updates {
				retr += u.Retriggers
				if !u.Done() {
					continue
				}
				done++
				last = max(last, u.Completed)
			}
			m := runner.Metrics{Values: map[string]float64{
				"loss":       cell.Loss,
				"reorder":    cell.Reorder,
				"flows":      float64(len(updates)),
				"completed":  float64(done),
				"retriggers": float64(retr),
			}}
			if sys.Aud != nil {
				rep := sys.Aud.Report()
				m.Values["audit_sweeps"] = float64(rep.Sweeps)
				m.Values["audit_blackholes"] = float64(rep.Blackholes)
				m.Values["audit_loops"] = float64(rep.Loops)
				m.Values["audit_over_capacity"] = float64(rep.OverCapacity)
				m.Values["audit_version_regressions"] = float64(rep.VersionRegressions)
			}
			if sys.Inj != nil {
				st := &sys.Inj.Stats
				m.Values["faults_dropped"] = float64(st.Dropped + st.RuleDrops + st.PartitionDrops)
				m.Values["faults_reordered"] = float64(st.Reordered)
				m.Values["faults_crashes"] = float64(st.Crashes)
			}
			// A run's completion-time sample only counts when every flow
			// finished; partial completion is visible in the counters.
			if done == len(updates) && last > 0 {
				m.Samples = []time.Duration{last}
			}
			return m, nil
		})
}
