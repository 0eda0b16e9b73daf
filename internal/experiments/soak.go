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
	Opts   SoakOpts
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
	fmt.Fprintf(&b, "%-29s %-10s %8s %19s %13s %7s %7s %6s %7s %6s %7s %5s\n",
		"trial", "storm", "avail%", "p50/p99/p999(ms)", "done/trig",
		"confirm", "orphan", "stall", "retrig", "burn%", "recov", "viol")
	for i, t := range r.Trials {
		if t.Failed {
			fmt.Fprintf(&b, "%-29s FAILED: %s\n", t.Label, t.Err)
			continue
		}
		rep := r.Reports[i]
		if rep == nil {
			fmt.Fprintf(&b, "%-29s (no report)\n", t.Label)
			continue
		}
		recovered, episodes := 0, 0
		for _, cl := range rep.Classes {
			recovered += cl.Recovered
			episodes += cl.Episodes
		}
		fmt.Fprintf(&b, "%-29s %-10s %8.3f %6.2f/%5.2f/%5.2f %6d/%-6d %7d %7d %6d %7d %6.2f %3d/%-3d %5d\n",
			t.Label, rep.Profile, rep.AvailabilityPct,
			rep.Latency.P50Ms, rep.Latency.P99Ms, rep.Latency.P999Ms,
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
// Every trial owns a private unfrozen topology (reroutes perturb link
// latencies in place); every system of a (profile, run) cell faces the
// byte-identical storm schedule. Trials are merged in index order, so
// reports are byte-identical across worker counts.
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
	profiles := make([]faults.StormProfile, 0, len(so.Profiles))
	for _, name := range so.Profiles {
		p, ok := faults.LookupStorm(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown storm profile %q (have %s)",
				name, strings.Join(faults.StormNames(), ", "))
		}
		profiles = append(profiles, p)
	}

	res := &SoakResult{Label: label, Opts: so}
	bed := DefaultBedConfig()
	// The paper's three-way comparison by default: the storm regime is
	// where the decentralized baselines differ most.
	systems := opt.systems(KindP4Update, KindEZSegway, KindCentral)
	trials := make([]runner.Trial, 0, len(systems)*len(profiles)*runs)
	for _, kind := range systems {
		for _, profile := range profiles {
			for run := 0; run < runs; run++ {
				trialSeed := seed + int64(run)*7919
				g := mk()
				if co.LatencyJitter > 0 {
					traffic.JitterLatencies(g, trialSeed, co.LatencyJitter)
				}
				// The storm seed depends only on (profile, run): every
				// system of a cell faces the identical episode schedule.
				plan, episodes := faults.BuildStorm(g, trialSeed, co.Duration, profile)

				wcfg := bed.WiringConfig(kind, trialSeed)
				wcfg.Faults = plan
				wcfg.AuditEvery = so.AuditEvery
				wcfg.WatchdogTimeout = so.Watchdog
				wcfg.ProbeTimeout = so.Watchdog
				wcfg.MaxRetriggers = so.MaxRetriggers
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
				wcfg.Trace = opt.Trace
				if wcfg.Trace == nil {
					// Always keep a flight-recorder ring for post-mortem:
					// on an audit violation the CLI dumps the trailing
					// window.
					wcfg.Trace = &trace.Options{}
				}

				sopt := co.soakOptions()
				sopt.Episodes = episodes
				sopt.MaxRetriggers = so.MaxRetriggers
				trials = append(trials, runner.BedTrial(
					fmt.Sprintf("soak/%s/%s/%s/run%d", label, string(kind), profile.Name, run),
					kind.String(), g, wcfg,
					func(sys *wiring.System) (runner.Metrics, error) {
						w, err := soak.NewWorkload(g, trialSeed, sopt)
						if err != nil {
							return runner.Metrics{}, err
						}
						h := soak.NewHarness(sys, g, w, sopt)
						h.Start()
						sys.Eng.RunUntil(co.Duration + co.Drain)

						rep := h.Finish(string(kind), profile.Name, trialSeed)
						raw, err := rep.Marshal()
						if err != nil {
							return runner.Metrics{}, err
						}
						return runner.Metrics{
							Samples: h.Samples(),
							Values:  soakMetrics(rep),
							Report:  raw,
						}, nil
					}))
			}
		}
	}
	res.Trials = opt.Pool().Run(trials)
	res.Reports = make([]*soak.Report, len(res.Trials))
	for i, t := range res.Trials {
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
