package experiments

import (
	"fmt"
	"strings"
	"time"

	"p4update/internal/runner"
	"p4update/internal/soak"
	"p4update/internal/topo"
	"p4update/internal/traffic"
	"p4update/internal/wiring"
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
	Opts   ChurnOpts
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

// soakOptions translates churn knobs into the shared harness options
// (no storm timeline, no retrigger budget — pure churn).
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

// runChurnTrial executes one trial body on an already wired system. The
// event loop lives in internal/soak — the fault-aware superset harness;
// with no injector attached it schedules the identical event sequence
// the original churn driver did, so churn output is unchanged.
func runChurnTrial(sys *wiring.System, g *topo.Topology, seed int64, opt ChurnOpts) (runner.Metrics, error) {
	start := time.Now()
	so := opt.soakOptions()
	w, err := soak.NewWorkload(g, seed, so)
	if err != nil {
		return runner.Metrics{}, err
	}
	h := soak.NewHarness(sys, g, w, so)
	h.Start()
	sys.Eng.RunUntil(opt.Duration + opt.Drain)

	c := h.Counters()
	samples := h.Samples()
	m := runner.Metrics{Samples: samples}
	m.Values = map[string]float64{
		"arrivals":          float64(c.Arrivals),
		"departures":        float64(c.Departures),
		"retired":           float64(c.Retired),
		"peak_live":         float64(c.PeakLive),
		"end_live":          float64(h.LiveFlows()),
		"flow_slots":        float64(sys.Net.NumFlowSlots()),
		"waves":             float64(c.Waves),
		"updates_triggered": float64(c.Triggered),
		"updates_completed": float64(c.Completed),
		"skipped_busy":      float64(c.SkippedBusy),
		"skipped_same":      float64(c.SkippedSame),
		"trigger_errors":    float64(c.TriggerErrs),
		"batch_frames":      float64(sys.Ctl.BatchFrames),
		"batched_uims":      float64(sys.Ctl.BatchedUIMs),
	}
	if len(samples) > 0 {
		l := soak.SummarizeLatency(samples)
		m.Values["update_p50_ms"] = l.P50Ms
		m.Values["update_p99_ms"] = l.P99Ms
		m.Values["update_mean_ms"] = l.MeanMs
	}
	// Host-side throughput: how many arrivals the simulation sustained
	// per wall-clock second. Like WallClock/Allocs, determinism
	// comparisons must ignore it.
	if el := time.Since(start).Seconds(); el > 0 {
		m.Values["wall_flows_per_sec"] = float64(c.Arrivals) / el
	}
	return m, nil
}

// RunChurn runs the streaming churn scenario on topology builder mk:
// `runs` independent trials per system, each sustaining a Poisson
// arrival/departure stream with continuous reroute waves. Every trial
// owns a private unfrozen topology instance — reroutes perturb link
// latencies in place and the path oracle repairs its cache
// incrementally — so the grid builds one topology per trial
// sequentially up front and shares nothing.
func RunChurn(mk func() *topo.Topology, label string, runs int, seed int64, co ChurnOpts, opt RunOptions) (*ChurnResult, error) {
	if co.ArrivalRate <= 0 || co.Duration <= 0 || co.MeanLifetime <= 0 {
		return nil, fmt.Errorf("experiments: churn needs positive rate/lifetime/duration")
	}
	res := &ChurnResult{Label: label, Opts: co}
	bed := DefaultBedConfig()
	// Churn defaults to P4Update only (the headline perf scenario) rather
	// than the full registered comparison.
	systems := opt.systems(KindP4Update)
	trials := make([]runner.Trial, 0, len(systems)*runs)
	for _, kind := range systems {
		for run := 0; run < runs; run++ {
			trialSeed := seed + int64(run)*7919
			g := mk()
			if co.LatencyJitter > 0 {
				// One-time seeded jitter, applied before wiring so control
				// latencies see the jittered weights; makes fat-tree
				// shortest paths unique (exact incremental repair, see
				// internal/topo/repair.go).
				traffic.JitterLatencies(g, trialSeed, co.LatencyJitter)
			}
			cfg := bed.WiringConfig(kind, trialSeed)
			trials = append(trials, runner.BedTrial(
				fmt.Sprintf("churn/%s/run%d", label, run), kind.String(), g, cfg,
				func(sys *wiring.System) (runner.Metrics, error) {
					return runChurnTrial(sys, g, cfg.Seed, co)
				}))
		}
	}
	res.Trials = opt.Pool().Run(trials)
	return res, nil
}
