package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"p4update/internal/runner"
	"p4update/internal/soak"
	"p4update/internal/topo"
)

// smokeSoakOpts is the seconds-scale soak configuration used by the
// fixed-seed gate: ~225 steady-state flows on B4 for 4 virtual seconds
// under the squall storm (10% ambient loss+reorder, recurring loss
// bursts, crash/restore cycles, controller partitions).
func smokeSoakOpts() SoakOpts {
	so := DefaultSoakOpts()
	so.Churn.ArrivalRate = 150
	so.Churn.MeanLifetime = 1500 * time.Millisecond
	so.Churn.Duration = 4 * time.Second
	so.Churn.Drain = 1500 * time.Millisecond
	return so
}

// TestSoakSmoke is the acceptance gate: under the squall storm P4Update
// sustains ≥ 99% availability, completes every update not orphaned by a
// switch outage, and records zero invariant violations — while at least
// one baseline stalls or violates. Fixed seeds; the storm schedule is
// identical for every system.
func TestSoakSmoke(t *testing.T) {
	res, err := RunSoak(topo.B4, "B4", 1, 42, smokeSoakOpts(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var p4OK bool
	var baselineDegraded bool
	for i, tr := range res.Trials {
		if tr.Failed {
			t.Fatalf("%s failed: %s", tr.Label, tr.Err)
		}
		rep := res.Reports[i]
		if rep == nil {
			t.Fatalf("%s: no operator report", tr.Label)
		}
		t.Logf("%s: avail=%.3f%% done/trig=%d/%d orphan=%d stall=%d retrig=%d burn=%.2f%% viol=%d",
			tr.Label, rep.AvailabilityPct, rep.UpdatesCompleted, rep.UpdatesTriggered,
			rep.CrashOrphaned, rep.Stalled, rep.Retriggers, rep.BudgetBurnPct, rep.Violations.Total)

		if rep.Sweeps == 0 {
			t.Errorf("%s: auditor never swept", tr.Label)
		}
		if len(rep.Classes) == 0 || len(rep.Episodes) == 0 {
			t.Errorf("%s: report lacks per-class/per-episode SLO sections", tr.Label)
		}
		switch rep.System {
		case "p4update":
			if rep.AvailabilityPct >= 99 && rep.Stalled == 0 && rep.Violations.Total == 0 {
				p4OK = true
			} else {
				t.Errorf("p4update degraded: avail=%.3f%% stalled=%d violations=%d",
					rep.AvailabilityPct, rep.Stalled, rep.Violations.Total)
			}
			if rep.Retriggers == 0 {
				t.Error("p4update recorded no retriggers under squall — recovery machinery idle?")
			}
		default:
			if rep.Stalled > 0 || rep.Violations.Total > 0 {
				baselineDegraded = true
			}
		}
	}
	if !p4OK {
		t.Error("p4update did not meet the soak SLO")
	}
	if !baselineDegraded {
		t.Error("no baseline stalled or violated under squall — the storm is too gentle to discriminate")
	}
}

// TestSoakReportsDeterministicAcrossWorkers asserts byte-identical
// operator reports for worker counts {1, 2, 4, 8}.
func TestSoakReportsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	so := smokeSoakOpts()
	so.Churn.Duration = 2 * time.Second
	so.Churn.Drain = time.Second
	var base [][]byte
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := RunSoak(topo.B4, "B4", 1, 7, so, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		reports := make([][]byte, len(res.Trials))
		for i, tr := range res.Trials {
			if tr.Failed {
				t.Fatalf("workers=%d: %s failed: %s", workers, tr.Label, tr.Err)
			}
			reports[i] = tr.Report
		}
		if base == nil {
			base = reports
			continue
		}
		for i := range reports {
			if !bytes.Equal(base[i], reports[i]) {
				t.Fatalf("workers=%d: report %d differs from workers=1", workers, i)
			}
		}
	}
}

// TestSoakLongLatencyKeepsColumns: a p50/p99/p999 cell wider than its
// 19-character column widens the column instead of pushing its row's
// later columns right of the header's; at the default width, rows and
// header line up too.
func TestSoakLongLatencyKeepsColumns(t *testing.T) {
	rep := func(p50, p99, p999 float64) *soak.Report {
		return &soak.Report{Profile: "squall", AvailabilityPct: 99.5,
			Latency: soak.LatencySLO{P50Ms: p50, P99Ms: p99, P999Ms: p999}}
	}
	for _, reports := range [][]*soak.Report{
		{rep(12.5, 80.25, 95.5), rep(7.5, 40, 60)},
		{rep(12.5, 80.25, 95.5), rep(1926.05, 12345.67, 99999.99)},
	} {
		res := &SoakResult{Label: "wide", Reports: reports,
			Trials: []runner.Result{{Label: "short"}, {Label: "long"}}}
		lines := strings.Split(res.String(), "\n")
		want := fieldEnds(lines[1])
		for _, row := range lines[2:4] {
			got := fieldEnds(row)
			// avail%, the latency cell, confirm, orphan, stall, retrig,
			// burn% and viol are right-aligned in both.
			for _, col := range []int{2, 3, 5, 6, 7, 8, 9, 11} {
				if got[col] != want[col] {
					t.Errorf("column %d ends at %d in the row, %d in the header:\n%s\n%s",
						col, got[col], want[col], lines[1], row)
				}
			}
		}
	}
}
