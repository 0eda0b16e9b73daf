package p4update_test

// One benchmark per table/figure of the paper's evaluation. The benches
// re-run the corresponding experiment and report the headline quantity as
// a custom metric (simulated milliseconds, ratios, or packet counts), so
// `go test -bench=. -benchmem` regenerates the whole evaluation.

import (
	"testing"
	"time"

	"p4update/internal/experiments"
	"p4update/internal/topo"
)

// BenchmarkFig2InconsistentUpdates reproduces §4.1: out-of-order
// configuration deployment. Metrics: packets lost at the egress and
// duplicate (looped) receptions at v1.
func BenchmarkFig2InconsistentUpdates(b *testing.B) {
	for _, kind := range []experiments.SystemKind{
		experiments.KindP4Update, experiments.KindEZSegway,
	} {
		b.Run(kind.String(), func(b *testing.B) {
			var lost, dup int
			for i := 0; i < b.N; i++ {
				r, err := experiments.Fig2(kind, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				lost += r.LostAtV4
				dup += r.DupAtV1
			}
			b.ReportMetric(float64(lost)/float64(b.N), "lost-pkts")
			b.ReportMetric(float64(dup)/float64(b.N), "looped-pkts")
		})
	}
}

// BenchmarkFig4FastForward reproduces §4.2: U3 completion while U2 is in
// flight. Metric: mean U3 completion in simulated milliseconds.
func BenchmarkFig4FastForward(b *testing.B) {
	r, err := experiments.Fig4(30, 1)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		mean time.Duration
	}{
		{"P4Update", r.P4Update.Mean()},
		{"ezSegway", r.EZSegway.Mean()},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = c
			}
			b.ReportMetric(float64(c.mean)/float64(time.Millisecond), "sim-ms")
		})
	}
}

// benchFig7 runs one Fig. 7 subplot and reports each system's mean
// simulated update time.
func benchFig7(b *testing.B, run func(runs int, seed int64) (*experiments.Fig7Result, error)) {
	b.Helper()
	r, err := run(10, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range r.Series {
		s := s
		b.Run(s.System.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
			}
			b.ReportMetric(float64(s.CDF.Mean())/float64(time.Millisecond), "sim-ms")
			b.ReportMetric(float64(s.Failed), "failed-runs")
		})
	}
}

// BenchmarkFig7SingleFlow covers Fig. 7a/c/e (single flow, straggler
// install delays).
func BenchmarkFig7SingleFlow(b *testing.B) {
	cases := []struct {
		name string
		mk   func() *topo.Topology
	}{
		{"synthetic", topo.Synthetic},
		{"b4", topo.B4},
		{"internet2", topo.Internet2},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			benchFig7(b, func(runs int, seed int64) (*experiments.Fig7Result, error) {
				return experiments.Fig7SingleFlow(c.mk, c.name, runs, seed)
			})
		})
	}
}

// BenchmarkFig7MultiFlow covers Fig. 7b/d/f (multiple flows, congestion
// freedom, gravity traffic).
func BenchmarkFig7MultiFlow(b *testing.B) {
	cases := []struct {
		name    string
		mk      func() *topo.Topology
		fatTree bool
	}{
		{"fattree", func() *topo.Topology { return topo.FatTree(4) }, true},
		{"b4", topo.B4, false},
		{"internet2", topo.Internet2, false},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			benchFig7(b, func(runs int, seed int64) (*experiments.Fig7Result, error) {
				return experiments.Fig7MultiFlow(c.mk, c.name, c.fatTree, runs, seed)
			})
		})
	}
}

// BenchmarkFig8Preparation reproduces the control-plane preparation-time
// ratio (DL-P4Update ÷ ez-Segway) per topology, with and without
// congestion freedom.
func BenchmarkFig8Preparation(b *testing.B) {
	for _, congestion := range []bool{false, true} {
		name := "woCongestion"
		updates := 1000
		if congestion {
			name = "withCongestion"
			updates = 100
		}
		b.Run(name, func(b *testing.B) {
			r, err := experiments.Fig8(congestion, updates, 15, 1)
			if err != nil {
				b.Fatal(err)
			}
			for _, row := range r.Rows {
				row := row
				b.Run(row.Topo, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
					}
					b.ReportMetric(row.Ratio, "prep-ratio")
				})
			}
		})
	}
}

// BenchmarkAblationUpdateType quantifies the §7.5 trade-off the paper
// discusses: dual layer wins on segmented updates (Fig. 1 scenario),
// single layer on small forward-only detours.
func BenchmarkAblationUpdateType(b *testing.B) {
	scenarios := []struct {
		name string
		old  []topo.NodeID
		new  []topo.NodeID
	}{
		{"segmented", []topo.NodeID{0, 4, 2, 7}, []topo.NodeID{0, 1, 2, 3, 4, 5, 6, 7}},
		{"smallDetour", []topo.NodeID{0, 4, 2, 7}, []topo.NodeID{0, 4, 5, 6, 7}},
	}
	for _, sc := range scenarios {
		for _, strat := range []string{"SL", "DL"} {
			strat := strat
			sc := sc
			b.Run(sc.name+"/"+strat, func(b *testing.B) {
				var total time.Duration
				runs := 10
				for r := 0; r < runs; r++ {
					d, err := runSyntheticOnce(strat, sc.old, sc.new, int64(r+1))
					if err != nil {
						b.Fatal(err)
					}
					total += d
				}
				for i := 0; i < b.N; i++ {
				}
				b.ReportMetric(float64(total/time.Duration(runs))/float64(time.Millisecond), "sim-ms")
			})
		}
	}
}

// BenchmarkFig7Trial measures one Fig. 7a inner-loop trial end to end —
// wire a synthetic-topology bed, trigger the engineered single-flow
// update, run the simulation to quiescence — and reports allocations.
// This is the unit of work the parallel runner shards, so its allocs/op
// is the GC pressure of the whole evaluation.
func BenchmarkFig7Trial(b *testing.B) {
	for _, kind := range []experiments.SystemKind{
		experiments.KindP4Update, experiments.KindEZSegway,
	} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := runFig7TrialOnce(kind, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				if d <= 0 {
					b.Fatal("update did not complete")
				}
			}
		})
	}
}

// BenchmarkTrialSetup isolates the per-trial construction cost the
// shared-snapshot + plan-cache path removes from the fig7 grid:
// "perTrial" rebuilds the topology (with its private path oracle), the
// wiring and the update plan from scratch — the pre-cache inner loop —
// while "shared" wires a bed over one frozen snapshot and fetches the
// memoized plan, which is all a trial pays now.
func BenchmarkTrialSetup(b *testing.B) {
	b.Run("perTrial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := setupTrialFresh(1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		sh, err := newSharedSetup(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sh.setupTrial(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkManyFlowsTrial runs one many-flow scale trial — 500
// simultaneous flow updates on a fat-tree K=8 over a shared frozen
// snapshot and warm plan cache — and reports allocations. This is the
// trial body whose switch-state churn the dense per-switch slices are
// meant to flatten.
func BenchmarkManyFlowsTrial(b *testing.B) {
	mb, err := newManyFlowsBench(500)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []experiments.SystemKind{
		experiments.KindP4Update, experiments.KindEZSegway,
	} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := mb.run(kind, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				if d <= 0 {
					b.Fatal("no update completed")
				}
			}
		})
	}
}

// BenchmarkPreparePlan measures the raw control-plane preparation
// throughput (the per-update cost behind Fig. 8a).
func BenchmarkPreparePlan(b *testing.B) {
	g := topo.Synthetic()
	oldP, newP := topo.SyntheticPaths()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planForBench(g, oldP, newP, uint32(i+2)); err != nil {
			b.Fatal(err)
		}
	}
}
