package runner_test

// Determinism and fault-tolerance coverage for the systems added behind
// the update-system registry (ppcu, opt-oracle) and for the forced
// single-layer P4Update variant, which no default grid runs. The
// pre-existing grids cover the primaries too (the default system list
// spans the whole registry), but these tests pin each system's
// guarantees in isolation so a regression names it directly.

import (
	"reflect"
	"testing"

	"p4update/internal/experiments"
	"p4update/internal/runner"
	"p4update/internal/topo"
)

var newSystems = []experiments.SystemKind{
	"p4update-sl",
	"ppcu",
	"opt-oracle",
}

// TestNewSystemsDeterministicAcrossWorkerCounts shards the single-flow
// grid restricted to these three systems across 1, 2, 4 and 8 workers
// and requires identical merged results — including each trial's Extra
// metrics, which therefore must only carry deterministic values.
func TestNewSystemsDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []runner.Result {
		r, err := experiments.Fig7SingleFlowOpts(topo.Synthetic, "synthetic-new", 6, 1,
			experiments.RunOptions{Workers: workers, Systems: newSystems})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return stripHost(r.Trials)
	}
	seq := run(1)
	for i, r := range seq {
		if r.Failed || len(r.Samples) == 0 {
			t.Fatalf("trial %d (%s) did not complete: %s", i, r.Label, r.Err)
		}
	}
	for _, workers := range []int{2, 4, 8} {
		if par := run(workers); !reflect.DeepEqual(seq, par) {
			t.Fatalf("new systems workers=%d produced different merged results", workers)
		}
	}
}

// TestNewSystemsCompleteUnderFaults runs the chaos cell the §11
// evaluation calls heavy — 20% frame loss, 20% reordering, one switch
// crash/restart cycle — with the invariant auditor sweeping every step,
// and requires every flow update of each of these systems to complete:
// their recovery paths (§11 watchdogs, round re-sends, phase re-flips)
// must survive arbitrary loss.
func TestNewSystemsCompleteUnderFaults(t *testing.T) {
	res, err := experiments.FaultSweep([]float64{0.2}, []float64{0.2}, 1, 1, 2, 1,
		experiments.RunOptions{Systems: newSystems})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Trials {
		if r.Failed {
			t.Fatalf("trial %d (%s) crashed: %s", i, r.Label, r.Err)
		}
	}
	for _, row := range res.Rows {
		if row.Failed > 0 {
			t.Errorf("%s: %d runs crashed", row.System, row.Failed)
		}
		if row.FlowsDone != row.Flows {
			t.Errorf("%s: %d/%d flow updates completed under loss=%.2f reorder=%.2f",
				row.System, row.FlowsDone, row.Flows, row.Cell.Loss, row.Cell.Reorder)
		}
		if v := row.Blackholes + row.Loops + row.OverCapacity + row.VersionRegressions; v != 0 {
			t.Errorf("%s: auditor observed %d invariant violations", row.System, v)
		}
	}
}
