// Command p4update regenerates the evaluation of the P4Update paper
// (CoNEXT '21): the inconsistent-update demonstration (Fig. 2), the
// fast-forward demonstration (Fig. 4), the total-update-time CDFs
// (Fig. 7a–f) and the control-plane preparation-time ratios (Fig. 8a/b).
//
// Usage:
//
//	p4update -exp all            # everything, paper-scale runs
//	p4update -exp fig7 -runs 10  # just Fig. 7 with 10 runs per series
//	p4update -exp fig7 -cdf      # additionally dump CDF rows for plotting
//	p4update -exp fig7 -workers 8 -json out.json
//	                             # shard trials across 8 workers and export
//	                             # per-trial metrics; the merged output is
//	                             # identical to a -workers 1 run
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"p4update"
	"p4update/internal/deploy"
	"p4update/internal/experiments"
	"p4update/internal/faults"
	"p4update/internal/topo"
	"p4update/internal/trace"
	"p4update/internal/wiring"
)

func main() {
	var (
		exp          = flag.String("exp", "all", "experiment: fig2|fig4|fig7|fig7six|fig8|scale|churn|faults|soak|deploy|all")
		runs         = flag.Int("runs", 30, "runs per series (the paper uses 30; churn defaults to 1 unless set)")
		systemsSel   = flag.String("systems", "all", "comma-separated registered update systems to evaluate (grid experiments; \"all\" = every registered system)")
		preps        = flag.Int("updates", 1000, "updates per Fig. 8 run (the paper uses 1000)")
		seed         = flag.Int64("seed", 1, "base simulation seed")
		cdf          = flag.Bool("cdf", false, "dump full CDF series for plotting")
		scaleFlows   = flag.Int("scale-flows", 500, "simultaneous flow updates per scale trial (100–5000)")
		topoSel      = flag.String("topo", "all", "scale/churn topology: "+validTopos()+"|all")
		arrivalRate  = flag.Float64("arrival-rate", 12000, "churn: Poisson flow arrival rate (flows per second of virtual time)")
		churnDur     = flag.Duration("churn-duration", 25*time.Second, "churn: virtual-time admission window")
		liveFlows    = flag.Int("live-flows", 100_000, "churn: target steady-state live-flow population (mean lifetime = live-flows / arrival-rate)")
		rerouteEvery = flag.Duration("reroute-every", 50*time.Millisecond, "churn: mean interval between link perturbations (0 disables reroutes)")
		workers      = flag.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
		loss         = flag.String("loss", "0,0.05,0.1,0.2", "faults: comma-separated frame-loss rates")
		reorder      = flag.String("reorder", "0,0.1", "faults: comma-separated reorder rates")
		crash        = flag.Int("crash", 0, "faults: scheduled switch crash/restart cycles per trial")
		auditEvery   = flag.Int("audit-every", 1, "faults: invariant-audit period in engine steps")
		storm        = flag.String("storm", "squall", "soak: comma-separated storm profiles ("+strings.Join(faults.StormNames(), "|")+"|all)")
		soakRate     = flag.Float64("soak-rate", 300, "soak: Poisson flow arrival rate (flows per second of virtual time)")
		soakDur      = flag.Duration("soak-duration", 10*time.Second, "soak: virtual-time admission window per trial")
		jsonPath     = flag.String("json", "", "write per-trial metrics to this JSON file")
		tracePath    = flag.String("trace", "", "record a protocol flight-recorder log of the first trial to this file")
		traceFmt     = flag.String("trace-format", "jsonl", "trace export format: jsonl|chrome (chrome://tracing / Perfetto)")
		traceCap     = flag.Int("trace-cap", 0, "flight-recorder ring capacity in events (0 = default 16384)")
		deployBin    = flag.String("deploy-bin", "bin", "deploy: directory holding the controllerd and switchd binaries")
		deployPort   = flag.Int("deploy-port", 18800, "deploy: fabric UDP port base on 127.0.0.1")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	if *traceFmt != "jsonl" && *traceFmt != "chrome" {
		fmt.Fprintf(os.Stderr, "unknown -trace-format %q (want jsonl|chrome)\n", *traceFmt)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC() // flush dead objects so the profile shows live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	systems, err := parseSystems(*systemsSel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Flag validation: every value-carrying knob is checked up front so a
	// typo fails fast with the valid choices instead of deep in a run.
	if *scaleFlows < 1 || *scaleFlows > 5000 {
		fmt.Fprintf(os.Stderr, "-scale-flows %d out of range: want a positive flow count in [1,5000]\n", *scaleFlows)
		os.Exit(2)
	}
	if *topoSel != "all" {
		if _, ok := lookupTopo(*topoSel); !ok {
			fmt.Fprintf(os.Stderr, "unknown -topo %q (valid values: %s|all)\n", *topoSel, validTopos())
			os.Exit(2)
		}
	}
	if *arrivalRate <= 0 {
		fmt.Fprintf(os.Stderr, "-arrival-rate %v must be a positive rate (flows per second of virtual time)\n", *arrivalRate)
		os.Exit(2)
	}
	if *liveFlows <= 0 {
		fmt.Fprintf(os.Stderr, "-live-flows %d must be a positive flow population\n", *liveFlows)
		os.Exit(2)
	}
	if *churnDur <= 0 {
		fmt.Fprintf(os.Stderr, "-churn-duration %v must be a positive virtual-time window\n", *churnDur)
		os.Exit(2)
	}
	lossRates, err := parseRates(*loss)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-loss %q: %v (want comma-separated rates in [0,1])\n", *loss, err)
		os.Exit(2)
	}
	reorderRates, err := parseRates(*reorder)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-reorder %q: %v (want comma-separated rates in [0,1])\n", *reorder, err)
		os.Exit(2)
	}
	if *crash < 0 {
		fmt.Fprintf(os.Stderr, "-crash %d must be a non-negative crash/restart cycle count\n", *crash)
		os.Exit(2)
	}
	storms := parseStorms(*storm)
	for _, name := range storms {
		if _, ok := faults.LookupStorm(name); !ok {
			fmt.Fprintf(os.Stderr, "unknown -storm %q (valid values: %s|all)\n",
				name, strings.Join(faults.StormNames(), "|"))
			os.Exit(2)
		}
	}
	if *soakRate <= 0 {
		fmt.Fprintf(os.Stderr, "-soak-rate %v must be a positive rate (flows per second of virtual time)\n", *soakRate)
		os.Exit(2)
	}
	if *soakDur <= 0 {
		fmt.Fprintf(os.Stderr, "-soak-duration %v must be a positive virtual-time window\n", *soakDur)
		os.Exit(2)
	}

	opt := experiments.RunOptions{Workers: *workers, Systems: systems}
	var topt *trace.Options
	if *tracePath != "" {
		topt = &trace.Options{Cap: *traceCap}
		opt.Trace = topt
	}
	var trials []p4update.TrialResult
	var traceRec *trace.Recorder

	start := time.Now()
	switch *exp {
	case "fig2":
		traceRec = runFig2(*seed, topt)
	case "fig4":
		runFig4(*runs, *seed)
	case "fig7":
		trials = append(trials, runFig7(*runs, *seed, *cdf, opt)...)
	case "fig7six":
		trials = append(trials, runFig7Six(*runs, *seed, opt)...)
	case "fig8":
		trials = append(trials, runFig8(*preps, *seed, opt)...)
	case "scale":
		trials = append(trials, runScale(*scaleFlows, *topoSel, *runs, *seed, *cdf, opt)...)
	case "churn":
		// Churn trials are heavyweight (10^5+ live flows); default to one
		// trial unless -runs was given explicitly.
		trials = append(trials, runChurn(*topoSel, *arrivalRate, *liveFlows, *churnDur, *rerouteEvery, explicitRuns(*runs, 1), *seed, opt)...)
	case "faults":
		trials = append(trials, runFaults(lossRates, reorderRates, *crash, *auditEvery, *runs, *seed, opt)...)
	case "soak":
		// Each soak run is a full system × storm grid; default to one
		// run unless -runs was given explicitly.
		trials = append(trials, runSoak(*topoSel, storms, *soakRate, *soakDur, *auditEvery, explicitRuns(*runs, 1), *seed, opt)...)
	case "deploy":
		// Real-process smoke: forked controllerd + switchd over localhost
		// UDP, controller killed and restarted mid-update, recorded run
		// replay-diffed against the simulated oracle.
		if err := deploy.RunSmoke(deploy.SmokeOptions{BinDir: *deployBin, BasePort: *deployPort, Out: os.Stdout}); err != nil {
			fail(err)
		}
	case "all":
		traceRec = runFig2(*seed, topt)
		runFig4(*runs, *seed)
		trials = append(trials, runFig7(*runs, *seed, *cdf, opt)...)
		trials = append(trials, runFig8(*preps, *seed, opt)...)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	wall := time.Since(start)
	fmt.Printf("\n(wall-clock %v)\n", wall.Round(time.Millisecond))

	if *jsonPath != "" {
		rep := p4update.NewTrialReport(*exp, opt.Pool().NumWorkers(), wall, trials)
		if err := rep.WriteFile(*jsonPath); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d trial records to %s\n", len(trials), *jsonPath)
	}
	if *tracePath != "" {
		if traceRec == nil {
			// Grid experiments: export the first traced trial (index order
			// is deterministic, so this is always the same trial).
			for _, t := range trials {
				if t.TraceRec != nil {
					traceRec = t.TraceRec
					break
				}
			}
		}
		if traceRec == nil {
			fail(fmt.Errorf("-trace: experiment %q produced no traced trial", *exp))
		}
		if err := writeTrace(*tracePath, *traceFmt, traceRec); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d trace events to %s (%s)\n", traceRec.Recorded(), *tracePath, *traceFmt)
	}
}

// writeTrace exports rec to path in the selected format.
func writeTrace(path, format string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if format == "chrome" {
		return rec.WriteChrome(f)
	}
	return rec.WriteJSONL(f)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

// parseSystems resolves the -systems selection against the update-system
// registry. "all" (or empty) keeps the default: every registered primary
// system.
func parseSystems(sel string) ([]experiments.SystemKind, error) {
	sel = strings.TrimSpace(sel)
	if sel == "" || sel == "all" {
		return nil, nil
	}
	var kinds []experiments.SystemKind
	for _, part := range strings.Split(sel, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		if _, ok := wiring.Lookup(name); !ok {
			return nil, fmt.Errorf("-systems: unknown update system %q (available systems: %s)",
				name, strings.Join(wiring.AllNames(), ", "))
		}
		kinds = append(kinds, experiments.SystemKind(name))
	}
	return kinds, nil
}

func runFig2(seed int64, topt *trace.Options) *trace.Recorder {
	fmt.Println("== Fig. 2: inconsistent updates (config (c) before delayed (b)) ==")
	var rec *trace.Recorder
	for _, kind := range []experiments.SystemKind{experiments.KindP4Update, experiments.KindEZSegway} {
		// Only the first (P4Update) run is traced — the exported log
		// covers one trial, like the grid experiments' trial 0.
		var tr *trace.Options
		if kind == experiments.KindP4Update {
			tr = topt
		}
		r, trial, err := experiments.Fig2Opts(kind, seed, tr)
		if err != nil {
			fail(err)
		}
		if trial != nil {
			rec = trial
		}
		fmt.Print(r)
	}
	fmt.Println()
	return rec
}

func runFig4(runs int, seed int64) {
	fmt.Println(must(experiments.Fig4(runs, seed)))
}

// must exits on an experiment's error and otherwise returns its result.
func must[R any](r R, err error) R {
	if err != nil {
		fail(err)
	}
	return r
}

// show prints one experiment's result and a blank line, and returns acc
// extended by the experiment's trials.
func show(acc []p4update.TrialResult, result string, trials []p4update.TrialResult) []p4update.TrialResult {
	fmt.Println(result)
	return append(acc, trials...)
}

// showFig7 is show for a Fig. 7-shaped result, followed by its CDF rows
// when cdf is set.
func showFig7(acc []p4update.TrialResult, r *experiments.Fig7Result, cdf bool) []p4update.TrialResult {
	if cdf {
		return show(acc, r.String()+r.CDFSeries(), r.Trials)
	}
	return show(acc, r.String(), r.Trials)
}

func runFig7(runs int, seed int64, cdf bool, opt experiments.RunOptions) []p4update.TrialResult {
	fatTree4 := func() *topo.Topology { return topo.FatTree(4) }
	t := showFig7(nil, must(experiments.Fig7SingleFlowOpts(topo.Synthetic, "synthetic (Fig. 7a)", runs, seed, opt)), cdf)
	t = showFig7(t, must(experiments.Fig7MultiFlowOpts(fatTree4, "fat-tree K=4 (Fig. 7b)", true, runs, seed, opt)), cdf)
	t = showFig7(t, must(experiments.Fig7SingleFlowOpts(topo.B4, "B4 (Fig. 7c)", runs, seed, opt)), cdf)
	t = showFig7(t, must(experiments.Fig7MultiFlowOpts(topo.B4, "B4 (Fig. 7d)", false, runs, seed, opt)), cdf)
	t = showFig7(t, must(experiments.Fig7SingleFlowOpts(topo.Internet2, "Internet2 (Fig. 7e)", runs, seed, opt)), cdf)
	return showFig7(t, must(experiments.Fig7MultiFlowOpts(topo.Internet2, "Internet2 (Fig. 7f)", false, runs, seed, opt)), cdf)
}

// runFig7Six runs the optimality-gap evaluation on B4: the Fig. 7c/7d
// scenarios with every registered system (or the -systems selection),
// the commit-round tracker attached, and each trial scored against the
// offline oracle's round bound.
func runFig7Six(runs int, seed int64, opt experiments.RunOptions) []p4update.TrialResult {
	single := must(experiments.OptGapSingleFlow(topo.B4, "B4", runs, seed, opt))
	t := show(nil, single.String(), single.Trials)
	multi := must(experiments.OptGapMultiFlow(topo.B4, "B4", runs, seed, opt))
	return show(t, multi.String(), multi.Trials)
}

// topoBuilder is one named topology the -topo flag can select.
type topoBuilder struct {
	name    string
	label   string
	mk      func() *topo.Topology
	fatTree bool
}

// topoBuilders lists the selectable topologies in flag-listing order.
var topoBuilders = []topoBuilder{
	{"fattree4", "fat-tree K=4", func() *topo.Topology { return topo.FatTree(4) }, true},
	{"fattree8", "fat-tree K=8", func() *topo.Topology { return topo.FatTree(8) }, true},
	{"fattree16", "fat-tree K=16", func() *topo.Topology { return topo.FatTree(16) }, true},
	{"fattree32", "fat-tree K=32", func() *topo.Topology { return topo.FatTree(32) }, true},
	{"b4", "B4", topo.B4, false},
	{"internet2", "Internet2", topo.Internet2, false},
}

// lookupTopo resolves a -topo value against the builder table.
func lookupTopo(name string) (topoBuilder, bool) {
	for _, tb := range topoBuilders {
		if tb.name == name {
			return tb, true
		}
	}
	return topoBuilder{}, false
}

// validTopos renders the selectable topology names for flag help and
// validation errors.
func validTopos() string {
	names := make([]string, len(topoBuilders))
	for i, tb := range topoBuilders {
		names[i] = tb.name
	}
	return strings.Join(names, "|")
}

// runScale runs the many-flow scale experiment (Fig7ManyFlowsOpts):
// nFlows simultaneous flow updates per trial on the selected topologies.
func runScale(nFlows int, topoSel string, runs int, seed int64, cdf bool, opt experiments.RunOptions) []p4update.TrialResult {
	names := []string{topoSel}
	if topoSel == "all" {
		names = []string{"fattree8", "b4"} // the historical default pair: one fat-tree, one WAN
	}
	var trials []p4update.TrialResult
	for _, name := range names {
		tb, _ := lookupTopo(name)
		trials = showFig7(trials, must(experiments.Fig7ManyFlowsOpts(tb.mk, tb.label, tb.fatTree, nFlows, runs, seed, opt)), cdf)
	}
	return trials
}

// runChurn runs the streaming churn scenario: a sustained Poisson
// arrival/departure stream with continuous reroute waves on the
// selected topology (default fat-tree K=16, the headline benchmark).
func runChurn(topoSel string, rate float64, live int, dur, rerouteEvery time.Duration, runs int, seed int64, opt experiments.RunOptions) []p4update.TrialResult {
	if topoSel == "all" {
		topoSel = "fattree16"
	}
	tb, _ := lookupTopo(topoSel)
	co := experiments.DefaultChurnOpts()
	co.ArrivalRate = rate
	co.MeanLifetime = time.Duration(float64(live) / rate * float64(time.Second))
	co.Duration = dur
	co.RerouteEvery = rerouteEvery
	co.EdgeOnly = tb.fatTree
	r := must(experiments.RunChurn(tb.mk, tb.label, runs, seed, co, opt))
	return show(nil, r.String(), r.Trials)
}

// runFaults runs the deterministic chaos sweep: loss × reorder fault
// cells across all three systems with the continuous invariant auditor
// attached. The rate lists arrive pre-validated from the flag block.
func runFaults(lossRates, reorderRates []float64, crash, auditEvery, runs int, seed int64, opt experiments.RunOptions) []p4update.TrialResult {
	r := must(experiments.FaultSweep(lossRates, reorderRates, crash, auditEvery, runs, seed, opt))
	return show(nil, r.String(), r.Trials)
}

// runSoak runs the fabric-operator soak scenario: streaming churn
// sustained under the selected storm profiles with continuous invariant
// audits and per-trial SLO reports. Trials whose report records an
// invariant violation get their flight-recorder ring dumped for
// post-mortem.
func runSoak(topoSel string, storms []string, rate float64, dur time.Duration, auditEvery, runs int, seed int64, opt experiments.RunOptions) []p4update.TrialResult {
	if topoSel == "all" {
		topoSel = "b4"
	}
	tb, _ := lookupTopo(topoSel)
	so := experiments.DefaultSoakOpts()
	so.Churn.ArrivalRate = rate
	so.Churn.Duration = dur
	so.Churn.EdgeOnly = tb.fatTree
	so.Profiles = storms
	if flagGiven("audit-every") {
		so.AuditEvery = auditEvery
	}
	r := must(experiments.RunSoak(tb.mk, tb.label, runs, seed, so, opt))
	trials := show(nil, r.String(), r.Trials)
	for i, t := range r.Trials {
		rep := r.Reports[i]
		if t.Failed || rep == nil || rep.Violations.Total == 0 || t.TraceRec == nil {
			continue
		}
		path := "postmortem-" + strings.ReplaceAll(t.Label, "/", "_") + ".jsonl"
		if err := writeTrace(path, "jsonl", t.TraceRec); err != nil {
			fail(fmt.Errorf("soak post-mortem %s: %w", t.Label, err))
		}
		fmt.Printf("post-mortem: %s recorded %d invariant violations; wrote trailing %d events to %s\n",
			t.Label, rep.Violations.Total, t.TraceRec.Recorded(), path)
	}
	return trials
}

// parseStorms splits the -storm selection; "all" expands to every
// built-in profile.
func parseStorms(s string) []string {
	s = strings.TrimSpace(s)
	if s == "all" {
		return faults.StormNames()
	}
	var names []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			names = append(names, part)
		}
	}
	return names
}

// flagGiven reports whether the named flag was set explicitly on the
// command line.
func flagGiven(name string) bool {
	given := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			given = true
		}
	})
	return given
}

// explicitRuns returns the -runs value when it was given explicitly and
// def otherwise — heavyweight scenarios (churn, soak) default to a
// single run instead of the figure-scale 30.
func explicitRuns(runs, def int) int {
	if flagGiven("runs") {
		return runs
	}
	return def
}

// parseRates parses a comma-separated list of [0,1] rates.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, err
		}
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("rate %v out of [0,1]", v)
		}
		rates = append(rates, v)
	}
	return rates, nil
}

func runFig8(updates int, seed int64, opt experiments.RunOptions) []p4update.TrialResult {
	var trials []p4update.TrialResult
	for _, congestion := range []bool{false, true} {
		n := updates
		if congestion && n > 200 {
			// The dependency-graph recomputation makes paper-scale runs
			// slow; 200 updates give the same ratio statistics.
			n = 200
		}
		r := must(experiments.Fig8Opts(congestion, n, 30, seed, opt))
		trials = show(trials, r.String(), r.Trials)
	}
	return trials
}
