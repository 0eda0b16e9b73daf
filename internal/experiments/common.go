// Package experiments regenerates every table and figure of the paper's
// evaluation (§4 and §9): the inconsistent-update demonstration (Fig. 2),
// the fast-forward demonstration (Fig. 4), the total-update-time CDFs on
// the synthetic, B4, Internet2 and fat-tree topologies (Fig. 7a–f), and
// the control-plane preparation-time ratios (Fig. 8a/b). Each experiment
// prints the same rows/series the paper reports.
package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"p4update/internal/runner"
	"p4update/internal/topo"
	"p4update/internal/trace"
	"p4update/internal/traffic"
	"p4update/internal/wiring"
)

// SystemKind selects the evaluated update system by its wiring registry
// name; any registered name is a valid kind.
type SystemKind string

// The paper's three-way comparison. The systems added behind the
// registry (PPCU, OptOracle, the P4Update variants) are named by their
// registry strings.
const (
	KindP4Update SystemKind = "p4update"
	KindEZSegway SystemKind = "ez-segway"
	KindCentral  SystemKind = "central"
)

// String implements fmt.Stringer: the registry display name, or the raw
// name for unregistered kinds.
func (k SystemKind) String() string {
	if sys, ok := wiring.Lookup(string(k)); ok {
		return sys.DisplayName()
	}
	if k == "" {
		return "unknown"
	}
	return string(k)
}

// AllSystems lists the registered primary systems in their registration
// (and plotting) order.
func AllSystems() []SystemKind {
	names := wiring.Names()
	out := make([]SystemKind, len(names))
	for i, n := range names {
		out[i] = SystemKind(n)
	}
	return out
}

// nameWidth sizes a table's name column to the longest of its rows'
// names, never below def: the width the table's default rows print at,
// so default output keeps its layout and a longer name (a variant such
// as P4Update/SL) widens the column instead of shifting its row.
func nameWidth[R any](def int, rows []R, name func(R) string) int {
	for _, r := range rows {
		def = max(def, len(name(r)))
	}
	return def
}

// RunOptions controls how an experiment's trial grid executes. The zero
// value runs one worker per core with no per-trial timeout; results are
// merged in trial-index order either way, so the output is identical
// for every worker count.
type RunOptions struct {
	// Workers is the trial-pool concurrency (<= 0: GOMAXPROCS).
	Workers int
	// Timeout bounds each trial's wall-clock execution (0 = none); a
	// timed-out trial is recorded as a failed run.
	Timeout time.Duration
	// Trace, when set, attaches a flight recorder to every trial of the
	// grid (one recorder per trial — the pool shares nothing, so traced
	// parallel runs stay deterministic). Each trial's report then carries
	// a trace summary, and its Metrics.TraceRec exposes the full log.
	Trace *trace.Options
	// Systems, when non-empty, restricts a grid to these systems;
	// empty runs every registered primary system (AllSystems).
	Systems []SystemKind
}

// systems resolves the grid's system list: the Systems selection, else
// the grid's own default list, else every registered primary system.
func (o RunOptions) systems(def ...SystemKind) []SystemKind {
	if len(o.Systems) > 0 {
		return o.Systems
	}
	if len(def) > 0 {
		return def
	}
	return AllSystems()
}

// Pool builds the trial pool for these options.
func (o RunOptions) Pool() *runner.Pool {
	return &runner.Pool{Workers: o.Workers, Timeout: o.Timeout}
}

// BedConfig tunes a testbed instance.
type BedConfig struct {
	// Congestion enables capacity enforcement in all systems.
	Congestion bool
	// NodeDelayMean, when nonzero, gives every switch an exponential
	// rule-install delay with this mean (the Dionysus-motivated
	// straggler model of §9.1's single-flow scenario).
	NodeDelayMean time.Duration
	// BaseInstallDelay is the constant rule-install time used when
	// NodeDelayMean is zero (a BMv2-like table write).
	BaseInstallDelay time.Duration
	// FatTreeControl samples per-switch control latencies from a normal
	// distribution (Huang et al.) instead of centroid propagation.
	FatTreeControl bool
	// CtrlProcDelay is the Central coordinator's per-message processing
	// time.
	CtrlProcDelay time.Duration
	// CtrlQueueMean is the mean of the exponential queuing delay each
	// Central controller message experiences behind the controller's
	// other work (path setup, monitoring; §9.1 / Liu et al. [52] report
	// control-plane reaction times up to hundreds of milliseconds).
	CtrlQueueMean time.Duration
}

// DefaultBedConfig returns the §9.1 defaults.
func DefaultBedConfig() BedConfig {
	return BedConfig{
		BaseInstallDelay: time.Millisecond,
		CtrlProcDelay:    500 * time.Microsecond,
		CtrlQueueMean:    40 * time.Millisecond,
	}
}

// WiringConfig translates the testbed knobs into the shared wiring
// configuration — the same construction path p4update.NewNetwork uses.
func (cfg BedConfig) WiringConfig(kind SystemKind, seed int64) wiring.Config {
	return wiring.Config{
		Seed:             seed,
		System:           string(kind),
		Congestion:       cfg.Congestion,
		MaxEvents:        20_000_000,
		NodeDelayMean:    cfg.NodeDelayMean,
		BaseInstallDelay: cfg.BaseInstallDelay,
		FatTreeControl:   cfg.FatTreeControl,
		CtrlProcDelay:    cfg.CtrlProcDelay,
		CtrlQueueMean:    cfg.CtrlQueueMean,
	}
}

// Bed is one fully wired system-under-test. It embeds the shared wiring
// system (engine, data plane, controllers) built from the same options
// the public p4update API exposes.
type Bed struct {
	Kind SystemKind
	*wiring.System
}

// NewBed builds a testbed of the given kind on topology g.
func NewBed(kind SystemKind, g *topo.Topology, seed int64, cfg BedConfig) *Bed {
	return &Bed{Kind: kind, System: wiring.New(g, cfg.WiringConfig(kind, seed))}
}

// Register installs the workload's flows (version 1 state). Flow IDs
// come from the specs themselves so salted scale workloads register
// distinct flows over repeated (src, dst) pairs.
func (b *Bed) Register(flows []traffic.FlowSpec) error {
	for _, f := range flows {
		if err := b.Ctl.RegisterFlowID(f.ID(), f.Src, f.Dst, f.Old, f.SizeK); err != nil {
			return fmt.Errorf("register %d->%d: %w", f.Src, f.Dst, err)
		}
	}
	return nil
}

// newWorkloadRand derives the per-run workload RNG. It is separate from
// the simulation engine's RNG so every system sees the identical workload
// for a given run index.
func newWorkloadRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ 0x6f10))
}

// runWorkloads hands every system of a run the same flows: run r's
// workload is drawn by gen from the run's seed exactly once — even when
// parallel trial workers race for it — and shared read-only (FlowSpecs
// are never mutated after generation).
func runWorkloads(runs int, seed int64, gen func(*rand.Rand) ([]traffic.FlowSpec, error)) func(run int) ([]traffic.FlowSpec, error) {
	type workload struct {
		once  sync.Once
		flows []traffic.FlowSpec
		err   error
	}
	perRun := make([]workload, runs)
	return func(run int) ([]traffic.FlowSpec, error) {
		w := &perRun[run]
		w.once.Do(func() { w.flows, w.err = gen(newWorkloadRand(seed + int64(run))) })
		return w.flows, w.err
	}
}
