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
//	p4update -exp list           # one line per experiment with a smoke run:
//	                             # its name, then the run's full arguments
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

// params carries the flag values the experiments read and the run
// options derived from them.
type params struct {
	runs, updates, scaleFlows, liveFlows, crash, auditEvery, deployPort int
	seed                                                                int64
	cdf                                                                 bool
	topo, deployBin                                                     string
	arrivalRate, soakRate                                               float64
	churnDur, rerouteEvery, soakDur                                     time.Duration
	lossRates, reorderRates                                             []float64
	storms                                                              []string
	opt                                                                 experiments.RunOptions
	topt                                                                *trace.Options
	// fig2Trace is fig2's traced P4Update run, the -trace export whenever
	// fig2 runs.
	fig2Trace *trace.Recorder
}

// experiment is one -exp value. smoke is the full argument list of its
// short run, which -exp list prints and make smoke and make identical
// run; empty means it has none. all marks the experiments -exp all runs,
// in table order.
type experiment struct {
	name  string
	smoke string
	all   bool
	run   func(p *params) []p4update.TrialResult
}

var table = []experiment{
	{"fig2", "-exp fig2", true, func(p *params) []p4update.TrialResult {
		fmt.Println("== Fig. 2: inconsistent updates (config (c) before delayed (b)) ==")
		for _, kind := range []experiments.SystemKind{experiments.KindP4Update, experiments.KindEZSegway} {
			// Only the first (P4Update) run is traced — the exported log
			// covers one trial, like the grid experiments' trial 0.
			var tr *trace.Options
			if kind == experiments.KindP4Update {
				tr = p.topt
			}
			r, rec, err := experiments.Fig2Opts(kind, p.seed, tr)
			if err != nil {
				fail(err)
			}
			if rec != nil {
				p.fig2Trace = rec
			}
			fmt.Print(r)
		}
		fmt.Println()
		return nil
	}},
	{"fig4", "-exp fig4", true, func(p *params) []p4update.TrialResult {
		fmt.Println(must(experiments.Fig4(p.runs, p.seed)))
		return nil
	}},
	{"fig7", "-exp fig7 -runs 5", true, func(p *params) []p4update.TrialResult {
		fatTree4 := func() *topo.Topology { return topo.FatTree(4) }
		t := showFig7(nil, must(experiments.Fig7SingleFlowOpts(topo.Synthetic, "synthetic (Fig. 7a)", p.runs, p.seed, p.opt)), p.cdf)
		t = showFig7(t, must(experiments.Fig7MultiFlowOpts(fatTree4, "fat-tree K=4 (Fig. 7b)", true, p.runs, p.seed, p.opt)), p.cdf)
		t = showFig7(t, must(experiments.Fig7SingleFlowOpts(topo.B4, "B4 (Fig. 7c)", p.runs, p.seed, p.opt)), p.cdf)
		t = showFig7(t, must(experiments.Fig7MultiFlowOpts(topo.B4, "B4 (Fig. 7d)", false, p.runs, p.seed, p.opt)), p.cdf)
		t = showFig7(t, must(experiments.Fig7SingleFlowOpts(topo.Internet2, "Internet2 (Fig. 7e)", p.runs, p.seed, p.opt)), p.cdf)
		return showFig7(t, must(experiments.Fig7MultiFlowOpts(topo.Internet2, "Internet2 (Fig. 7f)", false, p.runs, p.seed, p.opt)), p.cdf)
	}},
	// The optimality-gap evaluation on B4: the Fig. 7c/7d scenarios with
	// every registered system (or the -systems selection), the
	// commit-round tracker attached, and each trial scored against the
	// offline oracle's round bound.
	{"fig7six", "-exp fig7six -runs 2", false, func(p *params) []p4update.TrialResult {
		single := must(experiments.OptGapSingleFlow(topo.B4, "B4", p.runs, p.seed, p.opt))
		t := show(nil, single.String(), single.Trials)
		multi := must(experiments.OptGapMultiFlow(topo.B4, "B4", p.runs, p.seed, p.opt))
		return show(t, multi.String(), multi.Trials)
	}},
	// Fig. 8 reports wall-clock ratios, so no smoke run can compare it.
	{"fig8", "", true, func(p *params) []p4update.TrialResult {
		var trials []p4update.TrialResult
		for _, congestion := range []bool{false, true} {
			n := p.updates
			if congestion && n > 200 {
				// The dependency-graph recomputation makes paper-scale runs
				// slow; 200 updates give the same ratio statistics.
				n = 200
			}
			r := must(experiments.Fig8Opts(congestion, n, p.runs, p.seed, p.opt))
			trials = show(trials, r.String(), r.Trials)
		}
		return trials
	}},
	// The many-flow scale experiment: -scale-flows simultaneous flow
	// updates per trial on the selected topologies.
	{"scale", "-exp scale -runs 1", false, func(p *params) []p4update.TrialResult {
		names := []string{p.topo}
		if p.topo == "all" {
			names = []string{"fattree8", "b4"} // the historical default pair: one fat-tree, one WAN
		}
		var trials []p4update.TrialResult
		for _, name := range names {
			tb, _ := lookupTopo(name)
			trials = showFig7(trials, must(experiments.Fig7ManyFlowsOpts(tb.mk, tb.label, tb.fatTree, p.scaleFlows, p.runs, p.seed, p.opt)), p.cdf)
		}
		return trials
	}},
	// Streaming churn: a sustained Poisson arrival/departure stream with
	// continuous reroute waves (default fat-tree K=16, the headline
	// benchmark). Churn trials are heavyweight (10^5+ live flows), so one
	// run unless -runs is given.
	{"churn", "-exp churn -topo fattree4 -arrival-rate 2000 -live-flows 1000 -churn-duration 2s -reroute-every 25ms", false, func(p *params) []p4update.TrialResult {
		tb, _ := lookupTopo(topoOr(p.topo, "fattree16"))
		co := experiments.DefaultChurnOpts()
		co.ArrivalRate = p.arrivalRate
		co.MeanLifetime = time.Duration(float64(p.liveFlows) / p.arrivalRate * float64(time.Second))
		co.Duration = p.churnDur
		co.RerouteEvery = p.rerouteEvery
		co.EdgeOnly = tb.fatTree
		r := must(experiments.RunChurn(tb.mk, tb.label, explicitRuns(p.runs, 1), p.seed, co, p.opt))
		return show(nil, r.String(), r.Trials)
	}},
	// The deterministic chaos sweep: loss × reorder fault cells across
	// all three systems with the continuous invariant auditor attached.
	{"faults", "-exp faults -runs 1 -loss 0,0.1 -reorder 0.1", false, func(p *params) []p4update.TrialResult {
		r := must(experiments.FaultSweep(p.lossRates, p.reorderRates, p.crash, p.auditEvery, p.runs, p.seed, p.opt))
		return show(nil, r.String(), r.Trials)
	}},
	// The fabric-operator soak: streaming churn under the selected storm
	// profiles with continuous invariant audits and per-trial SLO reports.
	// Each run is a full system × storm grid, so one run unless -runs is
	// given. Trials whose report records an invariant violation get their
	// flight-recorder ring dumped for post-mortem.
	{"soak", "-exp soak -topo b4 -soak-rate 150 -soak-duration 4s", false, func(p *params) []p4update.TrialResult {
		tb, _ := lookupTopo(topoOr(p.topo, "b4"))
		so := experiments.DefaultSoakOpts()
		so.Churn.ArrivalRate = p.soakRate
		so.Churn.Duration = p.soakDur
		so.Churn.EdgeOnly = tb.fatTree
		so.Profiles = p.storms
		if flagGiven("audit-every") {
			so.AuditEvery = p.auditEvery
		}
		r := must(experiments.RunSoak(tb.mk, tb.label, explicitRuns(p.runs, 1), p.seed, so, p.opt))
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
	}},
	// Real-process smoke: forked controllerd + switchd over localhost UDP,
	// controller killed and restarted mid-update, recorded run
	// replay-diffed against the simulated oracle. It needs the daemon
	// binaries (make daemons), so it has no smoke run of its own.
	{"deploy", "", false, func(p *params) []p4update.TrialResult {
		if err := deploy.RunSmoke(deploy.SmokeOptions{BinDir: p.deployBin, BasePort: p.deployPort, Out: os.Stdout}); err != nil {
			fail(err)
		}
		return nil
	}},
}

// experimentNames renders the table's names for flag help and
// validation errors.
func experimentNames() string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}
	return strings.Join(names, "|")
}

func main() {
	var p params
	exp := flag.String("exp", "all", "experiment: "+experimentNames()+"|all|list")
	flag.IntVar(&p.runs, "runs", 30, "runs per series (the paper uses 30; churn and soak default to 1 unless set)")
	systemsSel := flag.String("systems", "all", "comma-separated registered update systems to evaluate (grid experiments; \"all\" = every registered system)")
	flag.IntVar(&p.updates, "updates", 1000, "updates per Fig. 8 run (the paper uses 1000)")
	flag.Int64Var(&p.seed, "seed", 1, "base simulation seed")
	flag.BoolVar(&p.cdf, "cdf", false, "dump full CDF series for plotting")
	flag.IntVar(&p.scaleFlows, "scale-flows", 500, "simultaneous flow updates per scale trial (100–5000)")
	flag.StringVar(&p.topo, "topo", "all", "scale/churn topology: "+validTopos()+"|all")
	flag.Float64Var(&p.arrivalRate, "arrival-rate", 12000, "churn: Poisson flow arrival rate (flows per second of virtual time)")
	flag.DurationVar(&p.churnDur, "churn-duration", 25*time.Second, "churn: virtual-time admission window")
	flag.IntVar(&p.liveFlows, "live-flows", 100_000, "churn: target steady-state live-flow population (mean lifetime = live-flows / arrival-rate)")
	flag.DurationVar(&p.rerouteEvery, "reroute-every", 50*time.Millisecond, "churn: mean interval between link perturbations (0 disables reroutes)")
	workers := flag.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
	loss := flag.String("loss", "0,0.05,0.1,0.2", "faults: comma-separated frame-loss rates")
	reorder := flag.String("reorder", "0,0.1", "faults: comma-separated reorder rates")
	flag.IntVar(&p.crash, "crash", 0, "faults: scheduled switch crash/restart cycles per trial")
	flag.IntVar(&p.auditEvery, "audit-every", 1, "faults: invariant-audit period in engine steps")
	storm := flag.String("storm", "squall", "soak: comma-separated storm profiles ("+strings.Join(faults.StormNames(), "|")+"|all)")
	flag.Float64Var(&p.soakRate, "soak-rate", 300, "soak: Poisson flow arrival rate (flows per second of virtual time)")
	flag.DurationVar(&p.soakDur, "soak-duration", 10*time.Second, "soak: virtual-time admission window per trial")
	jsonPath := flag.String("json", "", "write per-trial metrics to this JSON file")
	tracePath := flag.String("trace", "", "record a protocol flight-recorder log of the first trial to this file")
	traceFmt := flag.String("trace-format", "jsonl", "trace export format: jsonl|chrome (chrome://tracing / Perfetto)")
	traceCap := flag.Int("trace-cap", 0, "flight-recorder ring capacity in events (0 = default 16384)")
	flag.StringVar(&p.deployBin, "deploy-bin", "bin", "deploy: directory holding the controllerd and switchd binaries")
	flag.IntVar(&p.deployPort, "deploy-port", 18800, "deploy: fabric UDP port base on 127.0.0.1")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()
	if *traceFmt != "jsonl" && *traceFmt != "chrome" {
		badFlag("unknown -trace-format %q (want jsonl|chrome)", *traceFmt)
	}
	var rows []experiment
	for _, e := range table {
		if e.name == *exp || *exp == "all" && e.all {
			rows = append(rows, e)
		}
	}
	if *exp == "list" {
		for _, e := range table {
			if e.smoke != "" {
				fmt.Println(e.name, e.smoke)
			}
		}
		return
	}
	if len(rows) == 0 {
		badFlag("unknown experiment %q (valid values: %s|all|list)", *exp, experimentNames())
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
		badFlag("%v", err)
	}

	// Flag validation: every value-carrying knob is checked up front so a
	// typo fails fast with the valid choices instead of deep in a run.
	if p.runs < 1 {
		badFlag("-runs %d must be a positive run count", p.runs)
	}
	if p.updates < 1 {
		badFlag("-updates %d must be a positive update count", p.updates)
	}
	if p.scaleFlows < 1 || p.scaleFlows > 5000 {
		badFlag("-scale-flows %d out of range: want a positive flow count in [1,5000]", p.scaleFlows)
	}
	if p.topo != "all" {
		if _, ok := lookupTopo(p.topo); !ok {
			badFlag("unknown -topo %q (valid values: %s|all)", p.topo, validTopos())
		}
	}
	if p.arrivalRate <= 0 {
		badFlag("-arrival-rate %v must be a positive rate (flows per second of virtual time)", p.arrivalRate)
	}
	if p.liveFlows <= 0 {
		badFlag("-live-flows %d must be a positive flow population", p.liveFlows)
	}
	if p.churnDur <= 0 {
		badFlag("-churn-duration %v must be a positive virtual-time window", p.churnDur)
	}
	if p.lossRates, err = parseRates(*loss); err != nil {
		badFlag("-loss %q: %v (want comma-separated rates in [0,1])", *loss, err)
	}
	if p.reorderRates, err = parseRates(*reorder); err != nil {
		badFlag("-reorder %q: %v (want comma-separated rates in [0,1])", *reorder, err)
	}
	if p.crash < 0 {
		badFlag("-crash %d must be a non-negative crash/restart cycle count", p.crash)
	}
	p.storms = splitList(*storm)
	if strings.TrimSpace(*storm) == "all" {
		p.storms = faults.StormNames()
	}
	for _, name := range p.storms {
		if _, ok := faults.LookupStorm(name); !ok {
			badFlag("unknown -storm %q (valid values: %s|all)", name, strings.Join(faults.StormNames(), "|"))
		}
	}
	if p.soakRate <= 0 {
		badFlag("-soak-rate %v must be a positive rate (flows per second of virtual time)", p.soakRate)
	}
	if p.soakDur <= 0 {
		badFlag("-soak-duration %v must be a positive virtual-time window", p.soakDur)
	}
	if *workers < 0 {
		badFlag("-workers %d must be a non-negative worker count (0 = GOMAXPROCS)", *workers)
	}
	if *traceCap < 0 {
		badFlag("-trace-cap %d must be a non-negative ring capacity (0 = default 16384)", *traceCap)
	}

	p.opt = experiments.RunOptions{Workers: *workers, Systems: systems}
	if *tracePath != "" {
		p.topt = &trace.Options{Cap: *traceCap}
		p.opt.Trace = p.topt
	}

	start := time.Now()
	var trials []p4update.TrialResult
	for _, e := range rows {
		trials = append(trials, e.run(&p)...)
	}
	wall := time.Since(start)
	fmt.Printf("\n(wall-clock %v)\n", wall.Round(time.Millisecond))

	if *jsonPath != "" {
		rep := p4update.NewTrialReport(*exp, p.opt.Pool().NumWorkers(), wall, trials)
		if err := rep.WriteFile(*jsonPath); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d trial records to %s\n", len(trials), *jsonPath)
	}
	if *tracePath != "" {
		traceRec := p.fig2Trace
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

// badFlag reports an invalid command line and exits with status 2.
func badFlag(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
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
	for _, name := range splitList(sel) {
		if _, ok := wiring.Lookup(name); !ok {
			return nil, fmt.Errorf("-systems: unknown update system %q (available systems: %s)",
				name, strings.Join(wiring.AllNames(), ", "))
		}
		kinds = append(kinds, experiments.SystemKind(name))
	}
	return kinds, nil
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

// topoOr returns sel, or def when sel is "all" (the single-topology
// experiments' default).
func topoOr(sel, def string) string {
	if sel == "all" {
		return def
	}
	return sel
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

// splitList splits a comma-separated flag value, dropping blank items.
func splitList(s string) []string {
	var items []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			items = append(items, item)
		}
	}
	return items
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
	for _, part := range splitList(s) {
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
