package experiments

import (
	"slices"
	"strings"
	"testing"
	"time"

	"p4update/internal/metrics"
	"p4update/internal/optoracle"
	"p4update/internal/runner"
	"p4update/internal/topo"
	"p4update/internal/traffic"
)

// TestOptGapBoundRespected runs the optimality-gap evaluation on B4 —
// both the single-flow and the congestion-constrained multi-flow
// scenario — across every registered system and asserts the oracle's
// contract on every trial: the measured commit rounds of each completed
// update never undercut the offline schedule's lower bound.
func TestOptGapBoundRespected(t *testing.T) {
	single, err := OptGapSingleFlow(topo.B4, "B4", 3, 1, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := OptGapMultiFlow(topo.B4, "B4", 2, 1, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*OptGapResult{single, multi} {
		if res.Violations != 0 {
			t.Errorf("%s: %d round-bound violations (measured < oracle)", res.Label, res.Violations)
		}
		if len(res.Series) != len(AllSystems()) {
			t.Fatalf("%s: %d series, want %d", res.Label, len(res.Series), len(AllSystems()))
		}
		for _, s := range res.Series {
			if s.Failed > 0 {
				t.Errorf("%s/%s: %d failed runs", res.Label, s.System, s.Failed)
			}
			if s.Bound <= 0 {
				t.Errorf("%s/%s: oracle bound %.2f, want > 0", res.Label, s.System, s.Bound)
			}
			if s.Rounds < s.Bound {
				t.Errorf("%s/%s: mean rounds %.2f below bound %.2f", res.Label, s.System, s.Rounds, s.Bound)
			}
		}
	}
	// Per-trial Extra carries the raw scores for the JSON export.
	for _, r := range single.Trials {
		if r.Failed || len(r.Samples) == 0 {
			continue
		}
		if r.Extra["rounds"] < r.Extra["opt_bound"] {
			t.Errorf("%s: rounds %.0f < bound %.0f", r.Label, r.Extra["rounds"], r.Extra["opt_bound"])
		}
	}
}

// TestOptGapIsFig7WithRounds pins the optimality gap to the Fig. 7 grid
// it is folded onto: with the round tracker attached, every trial must
// run exactly the matching Fig. 7 trial — same label, seed, event count
// and samples — so the tracker only observes; and every completed trial
// must carry its oracle score.
func TestOptGapIsFig7WithRounds(t *testing.T) {
	opt := RunOptions{Workers: 2}
	gapSingle, err := OptGapSingleFlow(topo.B4, "B4", 3, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	figSingle, err := Fig7SingleFlowOpts(topo.B4, "B4", 3, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	gapMulti, err := OptGapMultiFlow(topo.B4, "B4", 2, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	figMulti, err := Fig7MultiFlowOpts(topo.B4, "B4", false, 2, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ gap, fig []runner.Result }{
		{gapSingle.Trials, figSingle.Trials},
		{gapMulti.Trials, figMulti.Trials},
	} {
		if len(c.gap) != len(c.fig) {
			t.Fatalf("%d optimality-gap trials, %d Fig. 7 trials", len(c.gap), len(c.fig))
		}
		for i, g := range c.gap {
			f := c.fig[i]
			if g.Label != f.Label || g.Seed != f.Seed || g.Events != f.Events || !slices.Equal(g.Samples, f.Samples) {
				t.Errorf("trial %d: optgap %s seed=%d events=%d samples=%v; fig7 %s seed=%d events=%d samples=%v",
					i, g.Label, g.Seed, g.Events, g.Samples, f.Label, f.Seed, f.Events, f.Samples)
			}
			if len(g.Samples) > 0 && g.Extra["opt_bound"] <= 0 {
				t.Errorf("%s: completed trial without an oracle score (extra %v)", g.Label, g.Extra)
			}
		}
	}
}

// TestOracleScheduleMatchesExecutor cross-checks the bound against the
// oracle's own live execution on the Fig-1 scenario: the idealized
// executor must use exactly as many rounds as the offline schedule.
func TestOracleScheduleMatchesExecutor(t *testing.T) {
	g := topo.Synthetic()
	oldP, newP := topo.SyntheticPaths()
	want := len(optoracle.Schedule(oldP, newP))
	if want <= 0 {
		t.Fatalf("oracle bound %d for the Fig-1 path change, want > 0", want)
	}
	b := NewBed("opt-oracle", g, 1, DefaultBedConfig())
	spec := traffic.FlowSpec{Src: oldP[0], Dst: oldP[len(oldP)-1], Old: oldP, New: newP, SizeK: 1000}
	if err := b.Register([]traffic.FlowSpec{spec}); err != nil {
		t.Fatal(err)
	}
	u, err := b.Trigger(spec.ID(), newP)
	if err != nil {
		t.Fatal(err)
	}
	b.Eng.Run()
	if !u.Done() {
		t.Fatal("oracle execution did not complete")
	}
	if got := int(b.System.Updater.(*optoracle.Coordinator).Rounds); got != want {
		t.Errorf("oracle executed %d rounds, schedule has %d", got, want)
	}
}

// TestOptGapLongSummaryKeepsColumns: an update-time summary longer than
// the column's 44 characters widens the column instead of pushing its
// row's rounds, opt and gap right of the header's.
func TestOptGapLongSummaryKeepsColumns(t *testing.T) {
	long := metrics.NewCDF([]time.Duration{1234 * time.Second, 5678 * time.Second})
	short := metrics.NewCDF([]time.Duration{time.Millisecond})
	if len(long.Summary()) <= 44 {
		t.Fatalf("summary %q is not longer than the default column", long.Summary())
	}
	res := &OptGapResult{Label: "wide", Series: []OptGapSeries{
		{System: KindP4Update, CDF: short, Rounds: 3, Bound: 3, Gap: 1},
		{System: KindCentral, CDF: long, Rounds: 12.5, Bound: 3, Gap: 4.17},
	}}
	lines := strings.Split(res.String(), "\n")
	want := fieldEnds(lines[1])
	for _, row := range lines[2:4] {
		got := fieldEnds(row)
		// rounds, opt and gap are the last three columns of both.
		for k := 1; k <= 3; k++ {
			if got[len(got)-k] != want[len(want)-k] {
				t.Errorf("row and header columns part:\n%s\n%s", lines[1], row)
				break
			}
		}
	}
}
