package experiments

import (
	"fmt"
	"strings"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/ezsegway"
	"p4update/internal/metrics"
	"p4update/internal/runner"
	"p4update/internal/topo"
	"p4update/internal/traffic"
)

// Fig8Row is one bar of the paper's Fig. 8: the ratio of control-plane
// preparation time between DL-P4Update and ez-Segway on one topology.
type Fig8Row struct {
	Topo         string
	Nodes, Edges int
	// Ratio is the mean over runs of (P4Update prep ÷ ez-Segway prep);
	// CI is the 99% confidence half-width.
	Ratio, CI float64
	// P4UPerUpdate / EZPerUpdate are mean wall-clock preparation times
	// per update.
	P4UPerUpdate, EZPerUpdate time.Duration
}

// Fig8Result is one subfigure (with or without congestion freedom).
type Fig8Result struct {
	Congestion bool
	Rows       []Fig8Row
	// Trials are the merged per-trial runner results (topology-major,
	// run-minor) for JSON export.
	Trials []runner.Result
}

// String renders the subfigure the way the paper annotates it: topology
// (nodes, edges) and the mean runtime ratio.
func (r *Fig8Result) String() string {
	var b strings.Builder
	title := "w/o congestion-freedom"
	if r.Congestion {
		title = "with congestion-freedom"
	}
	fmt.Fprintf(&b, "== Fig. 8: control-plane preparation ratio (%s) ==\n", title)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s (%2d, %2d)  ratio=%.4g ±%.2g   (P4Update %v/upd, ez-Segway %v/upd)\n",
			row.Topo, row.Nodes, row.Edges, row.Ratio, row.CI,
			row.P4UPerUpdate, row.EZPerUpdate)
	}
	return b.String()
}

// fig8Topologies are the four networks of Fig. 8 with their (nodes,
// edges) annotations.
func fig8Topologies() []func() *topo.Topology {
	return []func() *topo.Topology{topo.B4, topo.Internet2, topo.AttMpls, topo.Chinanet}
}

// fig8Trial measures one run: `updates` preparations of both systems on
// one topology, returning the wall-clock totals as named values.
func fig8Trial(mk func() *topo.Topology, congestion bool, updates int, seed int64, run int) runner.Trial {
	g := mk()
	return runner.Trial{
		Label:  fmt.Sprintf("fig8/%s/run%02d", g.Name, run),
		System: "prep-ratio",
		Seed:   seed + int64(run),
		Run: func() (runner.Metrics, error) {
			rng := newWorkloadRand(seed + int64(run))
			// The network's standing flows: one per node to a random
			// destination (old = shortest, new = 2nd-shortest).
			cfg := traffic.DefaultConfig()
			cfg.Utilization = 0.6
			flows, err := traffic.MultiFlowWorkload(g, rng, cfg)
			if err != nil {
				return runner.Metrics{}, fmt.Errorf("fig8 %s: %w", g.Name, err)
			}
			updateSet := make([]ezsegway.FlowUpdate, len(flows))
			for i, f := range flows {
				updateSet[i] = ezsegway.FlowUpdate{
					Flow: f.ID(), Old: f.Old, New: f.New, SizeK: f.SizeK,
				}
			}
			var p4u, ez time.Duration
			for i := 0; i < updates; i++ {
				f := flows[rng.Intn(len(flows))]
				oldP, newP := f.Old, f.New
				if i%2 == 1 {
					oldP, newP = newP, oldP // alternate direction
				}
				start := time.Now()
				if _, err := controlplane.PreparePlan(g, f.ID(), oldP, newP, uint32(i+2), f.SizeK, nil); err != nil {
					return runner.Metrics{}, fmt.Errorf("fig8 %s p4u: %w", g.Name, err)
				}
				p4u += time.Since(start)

				start = time.Now()
				if _, err := ezsegway.PreparePlan(g, f.ID(), oldP, newP, uint32(i+2), f.SizeK, 0); err != nil {
					return runner.Metrics{}, fmt.Errorf("fig8 %s ez: %w", g.Name, err)
				}
				if congestion {
					_, _ = ezsegway.ComputeCongestionDependencies(g, updateSet)
				}
				ez += time.Since(start)
			}
			m := runner.Metrics{Values: map[string]float64{
				"p4u_ns": float64(p4u),
				"ez_ns":  float64(ez),
			}}
			if ez > 0 {
				m.Values["ratio"] = float64(p4u) / float64(ez)
			}
			return m, nil
		},
	}
}

// Fig8Opts measures the control-plane preparation cost of `updates` flow
// updates, repeated `runs` times, on each evaluation topology. Without
// congestion freedom both systems compute per-flow labeling/segmentation;
// with congestion freedom ez-Segway additionally recomputes the global
// inter-flow dependency graph per update, which P4Update offloads to the
// data plane entirely. The (topology × run) grid shards across the trial
// pool; rows merge in trial-index order.
// Note the per-trial metrics are wall-clock measurements, so heavily
// oversubscribed workers can inflate both systems' absolute times — the
// reported quantity is their ratio, measured within one trial, which is
// robust to that.
func Fig8Opts(congestion bool, updates, runs int, seed int64, opt RunOptions) (*Fig8Result, error) {
	res := &Fig8Result{Congestion: congestion}
	topos := fig8Topologies()
	trials := make([]runner.Trial, 0, len(topos)*runs)
	for _, mk := range topos {
		for run := 0; run < runs; run++ {
			trials = append(trials, fig8Trial(mk, congestion, updates, seed, run))
		}
	}
	res.Trials = opt.Pool().Run(trials)
	for ti, mk := range topos {
		g := mk()
		var ratios []float64
		var p4uTotal, ezTotal time.Duration
		for run := 0; run < runs; run++ {
			r := res.Trials[ti*runs+run]
			if r.Failed {
				return nil, fmt.Errorf("fig8 %s: %s", g.Name, r.Err)
			}
			if ratio, ok := r.Values["ratio"]; ok {
				ratios = append(ratios, ratio)
			}
			p4uTotal += time.Duration(r.Values["p4u_ns"])
			ezTotal += time.Duration(r.Values["ez_ns"])
		}
		mean, ci := metrics.MeanCI(ratios)
		totalUpdates := updates * runs
		res.Rows = append(res.Rows, Fig8Row{
			Topo:         g.Name,
			Nodes:        g.NumNodes(),
			Edges:        g.NumLinks(),
			Ratio:        mean,
			CI:           ci,
			P4UPerUpdate: p4uTotal / time.Duration(totalUpdates),
			EZPerUpdate:  ezTotal / time.Duration(totalUpdates),
		})
	}
	return res, nil
}
