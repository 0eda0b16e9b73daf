package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"p4update/internal/faults"
	"p4update/internal/runner"
	"p4update/internal/soak"
	"p4update/internal/topo"
	"p4update/internal/trace"
	"p4update/internal/traffic"
	"p4update/internal/wiring"
)

// SoakOpts tunes the soak scenario: the streaming churn workload
// sustained under a compiled storm with the invariant auditor sweeping
// continuously and the §11 recovery machinery armed.
type SoakOpts struct {
	// Churn carries the workload knobs (arrival rate, lifetime,
	// admission window, drain, reroute cadence, retire grace).
	Churn ChurnOpts
	// Profiles are the storm profiles to sweep (built-in names; see
	// faults.StormNames). Empty defaults to squall — the acceptance
	// regime.
	Profiles []string
	// AuditEvery is the invariant-audit sweep period in engine steps.
	AuditEvery int
	// Watchdog is the §11 recovery cadence for both the switch-side
	// stall watchdog and the controller-side completion watchdog;
	// MaxRetriggers the per-update retrigger budget.
	Watchdog      time.Duration
	MaxRetriggers int
}

// DefaultSoakOpts returns the smoke-scale soak configuration: ~600
// steady-state flows on B4 for 10 virtual seconds. Longer soaks scale
// the duration up (`p4update -exp soak -soak-duration …`).
func DefaultSoakOpts() SoakOpts {
	return SoakOpts{
		Churn: ChurnOpts{
			ArrivalRate:   300,
			MeanLifetime:  2 * time.Second,
			Duration:      10 * time.Second,
			Drain:         2 * time.Second,
			RerouteEvery:  40 * time.Millisecond,
			LatencyJitter: 0.2,
			RetireGrace:   50 * time.Millisecond,
		},
		Profiles:      []string{"squall"},
		AuditEvery:    200,
		Watchdog:      250 * time.Millisecond,
		MaxRetriggers: 25,
	}
}

// SoakResult is the merged outcome of a soak grid.
type SoakResult struct {
	Label  string
	Trials []runner.Result
	// Reports are the per-trial operator reports, index-aligned with
	// Trials (nil for failed trials).
	Reports []*soak.Report
}

// String renders the operator table: one row per (system × storm × run)
// cell with the headline SLOs — availability, completion quantiles,
// completion accounting, retrigger budget burn, episode recovery.
func (r *SoakResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Soak: %s ==\n", r.Label)
	w := nameWidth(29, r.Trials, func(t runner.Result) string { return t.Label })
	lat := make([]string, len(r.Trials))
	for i, t := range r.Trials {
		if rep := r.Reports[i]; rep != nil && !t.Failed {
			lat[i] = fmt.Sprintf("%6.2f/%5.2f/%5.2f", rep.Latency.P50Ms, rep.Latency.P99Ms, rep.Latency.P999Ms)
		}
	}
	lw := nameWidth(19, lat, func(s string) string { return s })
	fmt.Fprintf(&b, "%-*s %-10s %8s %*s %13s %7s %7s %6s %7s %6s %7s %5s\n",
		w, "trial", "storm", "avail%", lw, "p50/p99/p999(ms)", "done/trig",
		"confirm", "orphan", "stall", "retrig", "burn%", "recov", "viol")
	for i, t := range r.Trials {
		if t.Failed {
			fmt.Fprintf(&b, "%-*s FAILED: %s\n", w, t.Label, t.Err)
			continue
		}
		rep := r.Reports[i]
		if rep == nil {
			fmt.Fprintf(&b, "%-*s (no report)\n", w, t.Label)
			continue
		}
		recovered, episodes := 0, 0
		for _, cl := range rep.Classes {
			recovered += cl.Recovered
			episodes += cl.Episodes
		}
		fmt.Fprintf(&b, "%-*s %-10s %8.3f %*s %6d/%-6d %7d %7d %6d %7d %6.2f %3d/%-3d %5d\n",
			w, t.Label, rep.Profile, rep.AvailabilityPct, lw, lat[i],
			rep.UpdatesCompleted, rep.UpdatesTriggered,
			rep.Confirming, rep.CrashOrphaned, rep.Stalled,
			rep.Retriggers, rep.BudgetBurnPct,
			recovered, episodes, rep.Violations.Total)
	}
	return b.String()
}

// soakMetrics flattens the report's headline numbers into the runner's
// scalar metric map (the JSON report itself rides in Metrics.Report).
func soakMetrics(rep *soak.Report) map[string]float64 {
	v := map[string]float64{
		"availability_pct":  rep.AvailabilityPct,
		"audited_sec":       rep.AuditedSec,
		"unavailable_sec":   rep.UnavailableSec,
		"audit_sweeps":      float64(rep.Sweeps),
		"arrivals":          float64(rep.Arrivals),
		"departures":        float64(rep.Departures),
		"retired":           float64(rep.Retired),
		"peak_live":         float64(rep.PeakLive),
		"end_live":          float64(rep.EndLive),
		"waves":             float64(rep.Waves),
		"waves_deferred":    float64(rep.WavesDeferred),
		"retire_deferrals":  float64(rep.RetireDeferrals),
		"updates_triggered": float64(rep.UpdatesTriggered),
		"updates_completed": float64(rep.UpdatesCompleted),
		"in_flight":         float64(rep.InFlight),
		"confirming":        float64(rep.Confirming),
		"crash_orphaned":    float64(rep.CrashOrphaned),
		"stalled":           float64(rep.Stalled),
		"retriggers":        float64(rep.Retriggers),
		"probe_retries":     float64(rep.ProbeRetries),
		"budget_burn_pct":   rep.BudgetBurnPct,
		"violations_total":  float64(rep.Violations.Total),
		"update_p50_ms":     rep.Latency.P50Ms,
		"update_p99_ms":     rep.Latency.P99Ms,
		"update_p999_ms":    rep.Latency.P999Ms,
	}
	if rep.Injection != nil {
		v["faults_dropped"] = float64(rep.Injection.Dropped + rep.Injection.PartitionDrops)
		v["faults_crashes"] = float64(rep.Injection.Crashes)
	}
	return v
}

// RunSoak runs the fabric-operator soak grid on topology builder mk:
// for every system, storm profile, and run, the streaming churn
// workload is sustained while the profile's compiled storm fires
// recurring fault episodes, the auditor sweeps every AuditEvery steps,
// and a flight recorder keeps the trailing event window for post-mortem.
// Every system of a (profile, run) cell faces the byte-identical storm
// schedule. Trials are merged in index order, so reports are
// byte-identical across worker counts.
func RunSoak(mk func() *topo.Topology, label string, runs int, seed int64, so SoakOpts, opt RunOptions) (*SoakResult, error) {
	co := so.Churn
	if co.ArrivalRate <= 0 || co.Duration <= 0 || co.MeanLifetime <= 0 {
		return nil, fmt.Errorf("experiments: soak needs positive rate/lifetime/duration")
	}
	if so.AuditEvery <= 0 {
		so.AuditEvery = 200
	}
	if len(so.Profiles) == 0 {
		so.Profiles = []string{"squall"}
	}
	profiles := make([]*faults.StormProfile, 0, len(so.Profiles))
	for _, name := range so.Profiles {
		p, ok := faults.LookupStorm(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown storm profile %q (have %s)",
				name, strings.Join(faults.StormNames(), ", "))
		}
		profiles = append(profiles, &p)
	}

	// The paper's three-way comparison by default: the storm regime is
	// where the decentralized baselines differ most.
	trials := streamGrid(mk, label, runs, seed, so, profiles, opt.systems(KindP4Update, KindEZSegway, KindCentral), opt)
	res := &SoakResult{Label: label, Trials: trials, Reports: make([]*soak.Report, len(trials))}
	for i, t := range trials {
		if t.Failed || len(t.Report) == 0 {
			continue
		}
		rep := new(soak.Report)
		if err := json.Unmarshal(t.Report, rep); err != nil {
			return nil, fmt.Errorf("experiments: trial %s report: %w", t.Label, err)
		}
		res.Reports[i] = rep
	}
	return res, nil
}

// streamGrid is the one trial grid behind RunChurn and RunSoak: for
// every system, storm profile and run, a trial sustains the streaming
// workload of so.Churn and closes with the harness's operator report.
// Every trial owns a private unfrozen topology — reroutes perturb link
// latencies in place and the path oracle repairs its cache
// incrementally — so the grid builds one topology per trial
// sequentially up front and shares nothing. A nil profile is churn: a
// trial with no storm. The audit, watchdog and retrigger settings of so
// apply either way (churn passes zeros).
func streamGrid(mk func() *topo.Topology, label string, runs int, seed int64, so SoakOpts, profiles []*faults.StormProfile, systems []SystemKind, opt RunOptions) []runner.Result {
	co := so.Churn
	bed := DefaultBedConfig()
	trials := make([]runner.Trial, 0, len(systems)*len(profiles)*runs)
	for _, kind := range systems {
		for _, profile := range profiles {
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
				wcfg := bed.WiringConfig(kind, trialSeed)
				wcfg.AuditEvery = so.AuditEvery
				wcfg.WatchdogTimeout = so.Watchdog
				wcfg.ProbeTimeout = so.Watchdog
				wcfg.MaxRetriggers = so.MaxRetriggers
				wcfg.Trace = opt.Trace
				sopt := co.soakOptions()
				sopt.MaxRetriggers = so.MaxRetriggers
				trialLabel, storm := fmt.Sprintf("churn/%s/run%d", label, run), "none"

				if profile != nil {
					// The storm seed depends only on (profile, run): every
					// system of a cell faces the identical episode schedule.
					wcfg.Faults, sopt.Episodes = faults.BuildStorm(g, trialSeed, co.Duration, *profile)
					// Appendix C: repeated reroute waves make back-to-back
					// dual-layer updates on one flow routine, and the base
					// algorithm's gateway rule parks the second one until "a
					// later configuration" — which never comes, because the
					// wave scan skips flows with an update in flight. The
					// chained-DL extension is the paper's answer for exactly
					// this always-on regime.
					wcfg.ChainedDL = true
					// Long soaks run far past the figure-scale event budget.
					wcfg.MaxEvents = 200_000_000
					if wcfg.Trace == nil {
						// Always keep a flight-recorder ring for post-mortem:
						// on an audit violation the CLI dumps the trailing
						// window.
						wcfg.Trace = &trace.Options{}
					}
					trialLabel = fmt.Sprintf("soak/%s/%s/%s/run%d", label, string(kind), profile.Name, run)
					storm = profile.Name
				}

				trials = append(trials, runner.BedTrial(trialLabel, kind.String(), g, wcfg,
					func(sys *wiring.System) (runner.Metrics, error) {
						return streamTrial(sys, g, sopt, string(kind), storm, trialSeed)
					}))
			}
		}
	}
	return opt.Pool().Run(trials)
}

// streamTrial is the grid's trial body on an already wired system: it
// sustains the workload through its admission window and drain, then
// builds the operator report. The metric map is the report's headline
// numbers plus the churn counters the report does not carry.
func streamTrial(sys *wiring.System, g *topo.Topology, sopt soak.Options, system, storm string, seed int64) (runner.Metrics, error) {
	start := time.Now()
	w, err := soak.NewWorkload(g, seed, sopt)
	if err != nil {
		return runner.Metrics{}, err
	}
	h := soak.NewHarness(sys, g, w, sopt)
	h.Start()
	sys.Eng.RunUntil(sopt.Duration + sopt.Drain)
	wall := time.Since(start).Seconds()

	rep := h.Finish(system, storm, seed)
	raw, err := rep.Marshal()
	if err != nil {
		return runner.Metrics{}, err
	}
	c := h.Counters()
	v := soakMetrics(rep)
	v["flow_slots"] = float64(sys.Net.NumFlowSlots())
	v["skipped_busy"] = float64(c.SkippedBusy)
	v["skipped_same"] = float64(c.SkippedSame)
	v["trigger_errors"] = float64(c.TriggerErrs)
	v["batch_frames"] = float64(sys.Ctl.BatchFrames)
	v["batched_uims"] = float64(sys.Ctl.BatchedUIMs)
	v["update_mean_ms"] = rep.Latency.MeanMs
	// Host-side throughput: how many arrivals the simulation sustained
	// per wall-clock second. Like WallClock/Allocs, determinism
	// comparisons must ignore it.
	if wall > 0 {
		v["wall_flows_per_sec"] = float64(c.Arrivals) / wall
	}
	return runner.Metrics{Samples: h.Samples(), Values: v, Report: raw}, nil
}
