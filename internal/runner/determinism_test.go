package runner_test

// Cross-package determinism tests: they drive the real experiment
// constructors (internal/experiments) through the pool at several
// worker counts and require identical merged output. They live in an
// external test package because experiments imports runner.

import (
	"reflect"
	"testing"
	"time"

	"p4update/internal/experiments"
	"p4update/internal/runner"
	"p4update/internal/topo"
)

// stripHost zeroes host-side measurements (wall clock, allocation
// deltas) that legitimately vary between runs and across worker counts.
func stripHost(results []runner.Result) []runner.Result {
	out := make([]runner.Result, len(results))
	copy(out, results)
	for i := range out {
		out[i].WallClock = 0
		out[i].Allocs = 0
		out[i].AllocBytes = 0
	}
	return out
}

func TestFig7DeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []runner.Result {
		r, err := experiments.Fig7SingleFlowOpts(topo.Synthetic, "synthetic", 6, 1,
			experiments.RunOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return stripHost(r.Trials)
	}
	seq := run(1)
	for _, workers := range []int{2, 4, 8} {
		if par := run(workers); !reflect.DeepEqual(seq, par) {
			t.Fatalf("fig7 workers=%d produced different merged results", workers)
		}
	}
}

// TestManyFlowsDeterministicAcrossWorkerCounts runs the many-flow scale
// experiment — hundreds of simultaneous updates per trial over one
// shared frozen topology, plan cache and workload cache — at several
// worker counts and requires byte-identical merged results. 150 flows
// on B4 exceeds its 132 distinct (src, dst) pairs, so the salted
// flow-ID path is exercised too.
func TestManyFlowsDeterministicAcrossWorkerCounts(t *testing.T) {
	cases := []struct {
		name    string
		mk      func() *topo.Topology
		fatTree bool
		flows   int
		runs    int
	}{
		{"b4", topo.B4, false, 150, 4},
		{"fattree4", func() *topo.Topology { return topo.FatTree(4) }, true, 30, 2},
		{"fattree8", func() *topo.Topology { return topo.FatTree(8) }, true, 200, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) []runner.Result {
				r, err := experiments.Fig7ManyFlowsOpts(tc.mk, tc.name, tc.fatTree, tc.flows, tc.runs, 1,
					experiments.RunOptions{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return stripHost(r.Trials)
			}
			seq := run(1)
			for i, r := range seq {
				if r.Failed {
					t.Fatalf("trial %d (%s) failed: %s", i, r.Label, r.Err)
				}
			}
			for _, workers := range []int{2, 4, 8} {
				if par := run(workers); !reflect.DeepEqual(seq, par) {
					t.Fatalf("manyflows %s workers=%d produced different merged results", tc.name, workers)
				}
			}
		})
	}
}

// TestFig8DeterministicAcrossWorkerCounts checks the fig8 grid's
// deterministic skeleton — trial order, labels, systems, seeds,
// failure status — across worker counts. The measured Values are
// host wall-clock preparation times, so they are stripped along with
// the other host metrics.
func TestFig8DeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 grid is slow under -short")
	}
	run := func(workers int) []runner.Result {
		r, err := experiments.Fig8Opts(false, 10, 2, 1,
			experiments.RunOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := stripHost(r.Trials)
		for i := range out {
			out[i].Values = nil
		}
		return out
	}
	seq := run(1)
	if len(seq) == 0 {
		t.Fatal("fig8 produced no trials")
	}
	for _, workers := range []int{2, 4, 8} {
		if par := run(workers); !reflect.DeepEqual(seq, par) {
			t.Fatalf("fig8 workers=%d produced different merged results", workers)
		}
	}
}

// TestChurnDeterministicAcrossWorkerCounts runs the streaming churn
// scenario — Poisson arrivals/departures, reroute waves, live-flow slot
// recycling, incremental oracle repair, batched UIM emission — at
// several worker counts and requires byte-identical merged results.
// Host-side values (wall clock, allocs, wall throughput) are stripped;
// everything else, including the per-update samples and the harness
// counters, must match exactly.
func TestChurnDeterministicAcrossWorkerCounts(t *testing.T) {
	co := experiments.DefaultChurnOpts()
	co.ArrivalRate = 600
	co.MeanLifetime = 250 * time.Millisecond
	co.Duration = 400 * time.Millisecond
	run := func(workers int) []runner.Result {
		r, err := experiments.RunChurn(func() *topo.Topology { return topo.FatTree(4) },
			"fattree4", 4, 1, co, experiments.RunOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := stripHost(r.Trials)
		for i := range out {
			vals := make(map[string]float64, len(out[i].Values))
			for k, v := range out[i].Values {
				if k == "wall_flows_per_sec" {
					continue
				}
				vals[k] = v
			}
			out[i].Values = vals
		}
		return out
	}
	seq := run(1)
	for i, r := range seq {
		if r.Failed {
			t.Fatalf("trial %d (%s) failed: %s", i, r.Label, r.Err)
		}
		if len(r.Samples) == 0 {
			t.Fatalf("trial %d (%s) completed no updates", i, r.Label)
		}
	}
	for _, workers := range []int{2, 4, 8} {
		if par := run(workers); !reflect.DeepEqual(seq, par) {
			t.Fatalf("churn workers=%d produced different merged results", workers)
		}
	}
}

// TestFaultSweepDeterministicAcrossWorkerCounts runs the chaos sweep —
// per-trial fault injection plus the every-step invariant auditor — at
// several worker counts and requires byte-identical merged results,
// rendered table included: the injector's split PRNG streams and the
// auditor's sweeps are strictly per-trial state, so the worker count
// must not leak into them.
func TestFaultSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) (string, []runner.Result) {
		r, err := experiments.FaultSweep([]float64{0, 0.1}, []float64{0.1}, 1, 1, 2, 1,
			experiments.RunOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return r.String(), stripHost(r.Trials)
	}
	seqTable, seq := run(1)
	if len(seq) == 0 {
		t.Fatal("fault sweep produced no trials")
	}
	for _, workers := range []int{2, 4, 8} {
		parTable, par := run(workers)
		if parTable != seqTable {
			t.Fatalf("faults workers=%d rendered a different table:\n%s\nvs\n%s", workers, parTable, seqTable)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("faults workers=%d produced different merged results", workers)
		}
	}
}
