package p4update_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"p4update"
	"p4update/internal/controlplane"
	"p4update/internal/experiments"
	"p4update/internal/plancache"
	"p4update/internal/topo"
	"p4update/internal/traffic"
	"p4update/internal/wiring"
)

// benchHost is the host-context block every generated BENCH_*.json
// report embeds. It is stamped automatically at write time — reports
// never carry stale hand-written host metadata.
type benchHost struct {
	NumCPU     int    `json:"num_cpu"`
	Gomaxprocs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// currentBenchHost samples the host context of this bench run.
func currentBenchHost() benchHost {
	return benchHost{
		NumCPU:     runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// writeBenchJSON writes payload as indented JSON to path.
func writeBenchJSON(path string, payload any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(payload); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSyntheticOnce runs one forced-layer update ("SL" or "DL") on the
// synthetic topology with straggler install delays and returns the
// completion time.
func runSyntheticOnce(strat string, oldP, newP []topo.NodeID, seed int64) (time.Duration, error) {
	system := "p4update-sl"
	if strat == "DL" {
		system = "p4update-dl"
	}
	rngSeed := seed
	net := p4update.NewNetwork(topo.Synthetic(),
		p4update.WithSeed(rngSeed),
		p4update.WithSystem(system),
	)
	// Straggler model: exponential install delays, seeded per run.
	eng := net.Fabric().Eng
	net.Fabric().SetInstallDelay(func() time.Duration {
		return time.Duration(eng.Rand().ExpFloat64() * float64(100*time.Millisecond))
	})
	f, err := net.AddFlow(oldP[0], oldP[len(oldP)-1], oldP, 1.0)
	if err != nil {
		return 0, err
	}
	u, err := net.UpdateFlow(f, newP)
	if err != nil {
		return 0, err
	}
	net.Run()
	if !u.Done() {
		return 0, fmt.Errorf("%s update did not complete", strat)
	}
	return u.Completed - u.Sent, nil
}

// runFig7TrialOnce executes exactly the trial body Fig7SingleFlow shards
// across the pool: a synthetic-topology bed with the straggler install
// model, one engineered single-flow update, run to quiescence.
func runFig7TrialOnce(kind experiments.SystemKind, seed int64) (time.Duration, error) {
	oldP, newP := topo.SyntheticPaths()
	spec := traffic.FlowSpec{Src: oldP[0], Dst: oldP[len(oldP)-1], Old: oldP, New: newP, SizeK: 1000}
	cfg := experiments.DefaultBedConfig()
	cfg.NodeDelayMean = 100 * time.Millisecond
	b := experiments.NewBed(kind, topo.Synthetic(), seed, cfg)
	if err := b.Register([]traffic.FlowSpec{spec}); err != nil {
		return 0, err
	}
	u, err := b.Trigger(spec.ID(), spec.New)
	if err != nil {
		return 0, err
	}
	b.Eng.Run()
	if u == nil || !u.Done() {
		return 0, fmt.Errorf("%v update did not complete", kind)
	}
	return u.Completed - u.Sent, nil
}

// planForBench exposes plan preparation to the benchmark without leaking
// internal imports into the benchmark file proper.
func planForBench(g *topo.Topology, oldP, newP []topo.NodeID, version uint32) (*controlplane.Plan, error) {
	return controlplane.PreparePlan(g, 1, oldP, newP, version, 1000, nil)
}

// setupTrialFresh pays the full pre-cache per-trial construction bill
// of one fig7b-style multi-flow trial: a fresh fat-tree build (private,
// cold path oracle), the run's workload regenerated from scratch
// (shortest + 2nd-shortest queries per pair — pre-cache every system's
// trial redid this for the same run), fresh wiring, and a from-scratch
// update plan per flow.
func setupTrialFresh(seed int64) error {
	g := topo.FatTree(4)
	tcfg := traffic.DefaultConfig()
	tcfg.Candidates = topo.EdgeSwitches(g)
	flows, err := traffic.MultiFlowWorkload(g, rand.New(rand.NewSource(seed)), tcfg)
	if err != nil {
		return err
	}
	cfg := experiments.DefaultBedConfig()
	cfg.Congestion = true
	cfg.FatTreeControl = true
	_ = wiring.New(g, cfg.WiringConfig(experiments.KindP4Update, 1))
	for _, f := range flows {
		if _, err := controlplane.PreparePlan(g, f.ID(), f.Old, f.New, 2, f.SizeK, nil); err != nil {
			return err
		}
	}
	return nil
}

// sharedSetup is the figure-scoped state every trial of a grid now
// shares: one frozen topology snapshot, one warm plan cache, and the
// run's memoized workload.
type sharedSetup struct {
	g     *topo.Topology
	plans *plancache.Cache
	flows []traffic.FlowSpec
}

func newSharedSetup(seed int64) (*sharedSetup, error) {
	g := topo.FatTree(4)
	g.Freeze()
	tcfg := traffic.DefaultConfig()
	tcfg.Candidates = topo.EdgeSwitches(g)
	flows, err := traffic.MultiFlowWorkload(g, rand.New(rand.NewSource(seed)), tcfg)
	if err != nil {
		return nil, err
	}
	plans := plancache.New(g)
	// Warm the cache the way a grid's first trial does.
	for _, f := range flows {
		if _, err := controlplane.PreparePlanCached(plans, g, f.ID(), f.Old, f.New, 2, f.SizeK, nil); err != nil {
			return nil, err
		}
	}
	return &sharedSetup{g: g, plans: plans, flows: flows}, nil
}

// setupTrial is the post-cache per-trial construction bill for the same
// trial: wire a bed over the shared frozen snapshot, take the memoized
// workload, and fetch each flow's memoized plan.
func (s *sharedSetup) setupTrial() error {
	cfg := experiments.DefaultBedConfig()
	cfg.Congestion = true
	cfg.FatTreeControl = true
	wcfg := cfg.WiringConfig(experiments.KindP4Update, 1)
	wcfg.Plans = s.plans
	_ = wiring.New(s.g, wcfg)
	for _, f := range s.flows {
		if _, err := controlplane.PreparePlanCached(s.plans, s.g, f.ID(), f.Old, f.New, 2, f.SizeK, nil); err != nil {
			return err
		}
	}
	return nil
}

// manyFlowsBench holds the shared state of the scale scenario: one
// frozen fat-tree K=8, its plan cache, and one pre-generated workload.
type manyFlowsBench struct {
	g     *topo.Topology
	plans *plancache.Cache
	flows []traffic.FlowSpec
}

func newManyFlowsBench(nFlows int) (*manyFlowsBench, error) {
	g := topo.FatTree(8)
	g.Freeze()
	flows, err := traffic.ManyFlowWorkload(g, rand.New(rand.NewSource(1)), nFlows, topo.EdgeSwitches(g))
	if err != nil {
		return nil, err
	}
	return &manyFlowsBench{g: g, plans: plancache.New(g), flows: flows}, nil
}

// run executes one many-flow trial end to end — wire the bed, register
// and trigger every flow, run the simulation to quiescence — and returns
// the completion time of the last flow.
func (mb *manyFlowsBench) run(kind experiments.SystemKind, seed int64) (time.Duration, error) {
	cfg := experiments.DefaultBedConfig()
	cfg.FatTreeControl = true
	wcfg := cfg.WiringConfig(kind, seed)
	wcfg.Plans = mb.plans
	bed := &experiments.Bed{Kind: kind, System: wiring.New(mb.g, wcfg)}
	if err := bed.Register(mb.flows); err != nil {
		return 0, err
	}
	updates := make([]*controlplane.UpdateStatus, 0, len(mb.flows))
	for _, f := range mb.flows {
		u, err := bed.Trigger(f.ID(), f.New)
		if err != nil {
			return 0, err
		}
		if u != nil {
			updates = append(updates, u)
		}
	}
	bed.Eng.Run()
	var last time.Duration
	for _, u := range updates {
		if !u.Done() {
			return 0, fmt.Errorf("%v: update did not complete", kind)
		}
		if u.Completed > last {
			last = u.Completed
		}
	}
	return last, nil
}
