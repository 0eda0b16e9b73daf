package experiments

import (
	"fmt"
	"strings"
	"time"

	"p4update/internal/faults"
	"p4update/internal/runner"
	"p4update/internal/soak"
	"p4update/internal/topo"
)

// ChurnOpts tunes the streaming churn experiment: a Poisson stream of
// flow arrivals and departures sustained over virtual time, with
// continuous single-link latency perturbations forcing reroute waves
// through the update system under test.
type ChurnOpts struct {
	// ArrivalRate is the flow arrival rate (flows per second of virtual
	// time); MeanLifetime the mean exponential flow lifetime. The
	// steady-state live population approaches ArrivalRate*MeanLifetime.
	ArrivalRate  float64
	MeanLifetime time.Duration
	// Duration is the admission window; the trial then drains for Drain
	// extra virtual time so in-flight updates and departures settle.
	Duration time.Duration
	Drain    time.Duration
	// RerouteEvery is the mean interval between link perturbations
	// (0 disables reroutes — pure arrival/departure churn).
	RerouteEvery time.Duration
	// LatencyJitter perturbs link latencies once at setup so shortest
	// paths are unique (required on equal-cost fat-trees for exact
	// incremental oracle repair; see internal/topo/repair.go).
	LatencyJitter float64
	// EdgeOnly restricts flow endpoints to the topology's degree-minimal
	// edge layer (fat-tree edge switches).
	EdgeOnly bool
	// RetireGrace delays data-plane teardown of a departed flow after
	// its last update completes, letting stale cleanup frames drain
	// before the flow's slot is recycled.
	RetireGrace time.Duration
}

// DefaultChurnOpts returns a short smoke-scale configuration; the
// headline run scales ArrivalRate/Duration up (`p4update -exp churn`).
func DefaultChurnOpts() ChurnOpts {
	return ChurnOpts{
		ArrivalRate:   2000,
		MeanLifetime:  2 * time.Second,
		Duration:      2 * time.Second,
		Drain:         500 * time.Millisecond,
		RerouteEvery:  20 * time.Millisecond,
		LatencyJitter: 0.2,
		EdgeOnly:      true,
		RetireGrace:   50 * time.Millisecond,
	}
}

// ChurnResult is the merged outcome of a churn grid.
type ChurnResult struct {
	Label  string
	Trials []runner.Result
}

// String renders one summary row per trial: live-flow peak, completed
// update count with p50/p99 completion times, and the sustained
// wall-clock arrival throughput.
func (r *ChurnResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Churn: %s ==\n", r.Label)
	for _, t := range r.Trials {
		if t.Failed {
			fmt.Fprintf(&b, "%-24s FAILED: %s\n", t.Label, t.Err)
			continue
		}
		v := t.Values
		fmt.Fprintf(&b,
			"%-24s peak_live=%d arrivals=%d departures=%d updates=%d p50=%.2fms p99=%.2fms waves=%d flows/s(wall)=%.0f\n",
			t.Label, int(v["peak_live"]), int(v["arrivals"]), int(v["departures"]),
			int(v["updates_completed"]), v["update_p50_ms"], v["update_p99_ms"],
			int(v["waves"]), v["wall_flows_per_sec"])
	}
	return b.String()
}

// soakOptions translates the workload knobs into the harness options;
// the grid adds the storm timeline and the retrigger budget.
func (o ChurnOpts) soakOptions() soak.Options {
	return soak.Options{
		ArrivalRate:  o.ArrivalRate,
		MeanLifetime: o.MeanLifetime,
		Duration:     o.Duration,
		Drain:        o.Drain,
		RerouteEvery: o.RerouteEvery,
		EdgeOnly:     o.EdgeOnly,
		RetireGrace:  o.RetireGrace,
	}
}

// RunChurn runs the streaming churn scenario on topology builder mk:
// `runs` independent trials per system, each sustaining a Poisson
// arrival/departure stream with continuous reroute waves. It is the
// streaming grid with no storm: no fault plan, no auditor, no recovery
// watchdogs, and the figure-scale event backstop.
func RunChurn(mk func() *topo.Topology, label string, runs int, seed int64, co ChurnOpts, opt RunOptions) (*ChurnResult, error) {
	if co.ArrivalRate <= 0 || co.Duration <= 0 || co.MeanLifetime <= 0 {
		return nil, fmt.Errorf("experiments: churn needs positive rate/lifetime/duration")
	}
	// Churn defaults to P4Update only (the headline perf scenario) rather
	// than the full registered comparison.
	trials := streamGrid(mk, label, runs, seed, SoakOpts{Churn: co}, []*faults.StormProfile{nil}, opt.systems(KindP4Update), opt)
	return &ChurnResult{Label: label, Trials: trials}, nil
}
