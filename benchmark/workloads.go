package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"runtime"
	"time"

	"p4update/internal/audit"
	"p4update/internal/controlplane"
	"p4update/internal/experiments"
	"p4update/internal/faults"
	"p4update/internal/plancache"
	"p4update/internal/soak"
	"p4update/internal/topo"
	"p4update/internal/trace"
	"p4update/internal/traffic"
	"p4update/internal/wiring"
)

// sizing fixes how much work one repetition of each workload does. The
// full sizing is the benchmark; the toy sizing exists so the package's
// own test can drive every code path in well under a second each.
type sizing struct {
	burstK, burstFlows, burstTrials int

	churnK                    int
	churnRate                 float64
	churnDuration, churnDrain time.Duration

	gridRuns int
	// gridWAN includes the B4 and Internet2 subfigures (their single-flow
	// spec search is an all-pairs k-shortest-path sweep; the toy grid
	// keeps only synthetic and the fat-tree).
	gridWAN bool

	soakRate                float64
	soakDuration, soakDrain time.Duration

	// setupBudget lets a sub-millisecond preparation be executed more
	// than the minimum number of times, for a steadier setup_s median.
	setupBudget time.Duration
}

var fullSizing = sizing{
	burstK: 8, burstFlows: 500, burstTrials: 60,
	churnK: 16, churnRate: 12000, churnDuration: 2500 * time.Millisecond, churnDrain: 500 * time.Millisecond,
	gridRuns: 30, gridWAN: true,
	// A 2 s drain leaves one straggler update short of confirmation at the
	// horizon in about one trial in fifty (10% ambient loss persists through
	// the drain); with 5 s none did in 720 trials, and the benchmark's
	// workloads must be ones on which no operation fails.
	soakRate: 300, soakDuration: 30 * time.Second, soakDrain: 5 * time.Second,
	setupBudget: 250 * time.Millisecond,
}

var toySizing = sizing{
	burstK: 4, burstFlows: 20, burstTrials: 1,
	churnK: 4, churnRate: 400, churnDuration: 500 * time.Millisecond, churnDrain: 200 * time.Millisecond,
	gridRuns: 1,
	soakRate: 100, soakDuration: 500 * time.Millisecond, soakDrain: 4 * time.Second,
}

// repStats is the outcome of one repetition. Everything down to digest
// derives from virtual time only and repeats exactly for a given seed;
// wall and mallocs are host-side and filled by the caller.
type repStats struct {
	trials    int
	flows     uint64 // flows admitted: arrivals, or Register calls
	triggered uint64 // updates triggered
	confirmed uint64 // updates probe-confirmed (Done)
	pending   uint64 // fully applied, confirmation outstanding at the soak horizon
	failed    uint64 // stalled, crash-orphaned, never Done, or in a failed trial
	backstops int    // trials that errored or ended on the MaxEvents backstop
	events    uint64
	scheduled uint64
	samples   []time.Duration // p4update update-completion samples
	// availability is the audited availability (percent); audited tells
	// whether an auditor ran at all. violations counts audit findings.
	availability float64
	audited      bool
	violations   uint64
	digest       uint64

	wall      time.Duration
	mallocs   uint64
	peakRSSMB float64
}

// updates is the work a repetition completed, in network updates: a
// flow's initial rule deployment (an arrival, a Register call) or a
// confirmed route update. Counting both keeps the per-update ratios well
// conditioned on churn-k16, where route updates are a by-product whose
// number swings by +-15% with the seed while arrivals do not.
func (rs repStats) updates() uint64 { return rs.flows + rs.confirmed }

// digester folds every system's virtual results into one FNV-64 value,
// so two runs can be compared for byte-identical simulation.
type digester struct{ h hash.Hash64 }

func newDigester() digester { return digester{fnv.New64a()} }

func (d digester) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	d.h.Write(b[:])
}

func (d digester) trial(system string, events uint64, samples []time.Duration) {
	d.h.Write([]byte(system))
	d.u64(events)
	d.u64(uint64(len(samples)))
	for _, s := range samples {
		d.u64(uint64(s))
	}
}

// workload is one prepared benchmark workload.
type workload interface {
	// rep runs one repetition the way a user of the repo would: through
	// the exported experiment entry points, nothing attached.
	rep() (repStats, error)
	// composed runs the same repetition assembled by the benchmark from
	// the exported pieces, so that spans and counter reads (tr) can be
	// placed around them from outside. Its digest must equal rep's.
	composed(tr *tracer) (repStats, error)
	// audited is the untimed pass the virtual-time metrics and the audit
	// verdict come from: the repetition with the invariant auditor
	// attached. Its digest must equal rep's.
	audited() (repStats, error)
}

// spec declares a workload: its fixed name, why it exists, and how the
// one-time preparation that setup_s times is done.
type spec struct {
	name, why string
	prepare   func(seed int64, sz sizing) (workload, error)
}

var workloads = []spec{
	{
		name:    "burst-k8",
		why:     "500 simultaneous p4update updates on a frozen fat-tree K=8, 60 trials a repetition: sim, packet, core and dataplane do the work; path oracle and planner are bypassed",
		prepare: prepareBurst,
	},
	{
		name:    "churn-k16",
		why:     "RunChurn on fat-tree K=16, 12000 arrivals/s for 2.5 s virtual with reroute waves: topo path queries and repair, cold planning, dataplane install/retire; core is negligible",
		prepare: prepareChurn,
	},
	{
		name:    "paper-grid",
		why:     "The paper's Fig. 7 grid, six systems x six subfigures x 30 runs = 1080 tiny trials a repetition: per-trial wiring, plan-cache hits, frozen topo, runner, baselines",
		prepare: prepareGrid,
	},
	{
		name:    "soak-b4-squall",
		why:     "RunSoak on B4 under the squall storm, 300 flows/s for 30 s virtual + 5 s drain, audited every 200 steps: the only workload where faults, audit, trace ring and recovery paths work",
		prepare: prepareSoak,
	},
}

func lookupWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

const p4u = experiments.KindP4Update

var onlyP4Update = experiments.RunOptions{Workers: 1, Systems: []experiments.SystemKind{p4u}}

// The event-count backstops a trial must not reach: the figure-scale one
// experiments.BedConfig wires in, and the one experiments.RunSoak raises
// it to for long soaks.
var figureMaxEvents = experiments.DefaultBedConfig().WiringConfig(p4u, 0).MaxEvents

const soakMaxEvents = 200_000_000

// hitBackstop reports a bed that reached its MaxEvents backstop:
// such a trial did not quiesce.
func hitBackstop(sys *wiring.System) bool {
	return sys.Cfg.MaxEvents > 0 && sys.Eng.Steps() >= sys.Cfg.MaxEvents
}

// availabilityMeter reproduces the soak SLO rule for beds the soak
// harness does not drive: an inter-sweep interval is unavailable when
// its closing sweep records a new blackhole.
type availabilityMeter struct {
	last, audited, unavailable time.Duration
	violations                 uint64
}

func (m *availabilityMeter) attach(sys *wiring.System) {
	if sys.Aud == nil {
		return
	}
	m.last = 0
	sys.Aud.OnSweep = func(st audit.SweepStats) {
		dt := st.Time - m.last
		m.last = st.Time
		m.audited += dt
		if st.Blackholes > 0 {
			m.unavailable += dt
		}
		m.violations += st.Total()
	}
}

func (m *availabilityMeter) fill(rs *repStats) {
	rs.audited = true
	rs.violations = m.violations
	rs.availability = 100
	if m.audited > 0 {
		rs.availability = 100 * (1 - float64(m.unavailable)/float64(m.audited))
	}
}

// ---- burst-k8 ----

type burst struct {
	seed  int64
	sz    sizing
	g     *topo.Topology
	flows []traffic.FlowSpec
	plans *plancache.Cache
}

// config is the wiring configuration of one burst trial.
func (b *burst) config(trial int) wiring.Config {
	cfg := experiments.DefaultBedConfig()
	cfg.FatTreeControl = true
	wcfg := cfg.WiringConfig(p4u, b.seed+int64(trial))
	wcfg.Plans = b.plans
	return wcfg
}

func prepareBurst(seed int64, sz sizing) (workload, error) {
	b := &burst{seed: seed, sz: sz}
	b.g = topo.FatTree(sz.burstK)
	b.g.Freeze()
	flows, err := traffic.ManyFlowWorkload(b.g, rand.New(rand.NewSource(seed)), sz.burstFlows, topo.EdgeSwitches(b.g))
	if err != nil {
		return nil, err
	}
	b.flows = flows
	b.plans = plancache.New(b.g)
	for _, f := range flows {
		// Version 2, automatic update type: the key the controller's
		// first Trigger of a freshly registered flow looks up.
		if _, err := controlplane.PreparePlanCached(b.plans, b.g, f.ID(), f.Old, f.New, 2, f.SizeK, nil); err != nil {
			return nil, err
		}
	}
	_ = wiring.New(b.g, b.config(0))
	return b, nil
}

func (b *burst) rep() (repStats, error)                { return b.run(nil, 0) }
func (b *burst) composed(tr *tracer) (repStats, error) { return b.run(tr, 0) }
func (b *burst) audited() (repStats, error)            { return b.run(nil, 500) }

// run is the burst repetition; the benchmark composes it itself, so the
// measured, the traced and the audited variant are one function.
func (b *burst) run(tr *tracer, auditEvery int) (repStats, error) {
	var rs repStats
	var meter availabilityMeter
	d := newDigester()
	hits0, misses0 := b.plans.Stats()
	updates := make([]*controlplane.UpdateStatus, 0, len(b.flows))
	for t := 0; t < b.sz.burstTrials; t++ {
		wcfg := b.config(t)
		wcfg.AuditEvery = auditEvery
		var bed *experiments.Bed
		tr.do("wiring.build", "wiring", func() {
			bed = &experiments.Bed{Kind: p4u, System: wiring.New(b.g, wcfg)}
		})
		meter.attach(bed.System)
		var err error
		tr.do("controlplane.register", "controlplane", func() { err = bed.Register(b.flows) })
		if err != nil {
			return rs, err
		}
		if t == 0 {
			tr.heapPerFlow(len(b.flows))
		}
		updates = updates[:0]
		tr.do("controlplane.trigger", "controlplane", func() {
			for _, f := range b.flows {
				var u *controlplane.UpdateStatus
				if u, err = bed.Trigger(f.ID(), f.New); err != nil {
					return
				}
				updates = append(updates, u)
			}
		})
		if err != nil {
			return rs, err
		}
		tr.do("sim.run", "sim", func() { bed.Eng.Run() })

		first := len(rs.samples)
		for _, u := range updates {
			rs.triggered++
			if u.Done() {
				rs.confirmed++
				rs.samples = append(rs.samples, u.Completed-u.Sent)
			} else {
				rs.failed++
			}
		}
		if hitBackstop(bed.System) {
			rs.backstops++
		}
		rs.trials++
		rs.flows += uint64(len(b.flows))
		rs.events += bed.Eng.Steps()
		rs.scheduled += bed.Eng.Scheduled()
		d.trial(string(p4u), bed.Eng.Steps(), rs.samples[first:])
		tr.observe(bed.System)
		tr.observeUpdates(updates)
	}
	hits1, misses1 := b.plans.Stats()
	tr.addPlanStats(hits1-hits0, misses1-misses0)
	if auditEvery > 0 {
		meter.fill(&rs)
	}
	rs.digest = d.h.Sum64()
	return rs, nil
}

// ---- churn-k16 ----

type churn struct {
	seed int64
	sz   sizing
	co   experiments.ChurnOpts
}

func (c *churn) mk() *topo.Topology { return topo.FatTree(c.sz.churnK) }

// harnessOptions translates churn knobs into the soak harness's options
// the way internal/experiments does (no storm timeline, no retrigger
// budget — the soak workload adds those).
func harnessOptions(co experiments.ChurnOpts) soak.Options {
	return soak.Options{
		ArrivalRate:  co.ArrivalRate,
		MeanLifetime: co.MeanLifetime,
		Duration:     co.Duration,
		Drain:        co.Drain,
		RerouteEvery: co.RerouteEvery,
		EdgeOnly:     co.EdgeOnly,
		RetireGrace:  co.RetireGrace,
	}
}

// newHarness builds the seeded workload generator and the harness
// driving it on an already wired bed.
func newHarness(tr *tracer, sys *wiring.System, g *topo.Topology, seed int64, opt soak.Options) (h *soak.Harness, err error) {
	tr.do("soak.workload", "soak", func() {
		var w *traffic.ChurnWorkload
		if w, err = soak.NewWorkload(g, seed, opt); err == nil {
			h = soak.NewHarness(sys, g, w, opt)
		}
	})
	return h, err
}

// driveHarness runs a harnessed bed through admission and drain and
// closes the trial; the live heap is measured at the end of admission.
func driveHarness(tr *tracer, sys *wiring.System, h *soak.Harness, co experiments.ChurnOpts, profile string, seed int64) *soak.Report {
	tr.do("sim.run", "sim", func() {
		h.Start()
		sys.Eng.RunUntil(co.Duration)
	})
	tr.heapPerFlow(h.LiveFlows())
	tr.do("sim.run", "sim", func() { sys.Eng.RunUntil(co.Duration + co.Drain) })
	var rep *soak.Report
	tr.do("soak.finish", "soak", func() { rep = h.Finish(string(p4u), profile, seed) })
	return rep
}

// build is the part of a churn trial that happens before the first
// event: a private jittered topology, the wired bed, the seeded
// workload generator.
func (c *churn) build(tr *tracer, auditEvery int) (*topo.Topology, *wiring.System, *soak.Harness, error) {
	var g *topo.Topology
	tr.do("topo.build", "topo", func() {
		g = c.mk()
		traffic.JitterLatencies(g, c.seed, c.co.LatencyJitter)
	})
	wcfg := experiments.DefaultBedConfig().WiringConfig(p4u, c.seed)
	wcfg.AuditEvery = auditEvery
	var sys *wiring.System
	tr.do("wiring.build", "wiring", func() { sys = wiring.New(g, wcfg) })
	h, err := newHarness(tr, sys, g, c.seed, harnessOptions(c.co))
	return g, sys, h, err
}

func prepareChurn(seed int64, sz sizing) (workload, error) {
	c := &churn{seed: seed, sz: sz, co: experiments.ChurnOpts{
		ArrivalRate:   sz.churnRate,
		MeanLifetime:  time.Second,
		Duration:      sz.churnDuration,
		Drain:         sz.churnDrain,
		RerouteEvery:  20 * time.Millisecond,
		LatencyJitter: 0.2,
		EdgeOnly:      true,
		RetireGrace:   50 * time.Millisecond,
	}}
	if _, _, _, err := c.build(nil, 0); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *churn) rep() (repStats, error) {
	var rs repStats
	res, err := experiments.RunChurn(c.mk, "churn", 1, c.seed, c.co, onlyP4Update)
	if err != nil {
		return rs, err
	}
	t := res.Trials[0]
	rs.trials = 1
	rs.flows = uint64(t.Values["arrivals"])
	rs.triggered = uint64(t.Values["updates_triggered"])
	rs.confirmed = uint64(t.Values["updates_completed"])
	rs.failed = rs.triggered - rs.confirmed
	rs.events = t.Events
	rs.samples = t.Samples
	if t.Failed || t.Events >= figureMaxEvents {
		rs.backstops = 1
		rs.failed = rs.triggered
	}
	d := newDigester()
	d.trial(string(p4u), t.Events, t.Samples)
	d.u64(rs.flows)
	rs.digest = d.h.Sum64()
	return rs, nil
}

func (c *churn) composed(tr *tracer) (repStats, error) { return c.compose(tr, 0) }

// Sweeping ~12k live flows is expensive; every 5000 steps keeps the
// audited pass near one repetition's wall time.
func (c *churn) audited() (repStats, error) { return c.compose(nil, 5000) }

func (c *churn) compose(tr *tracer, auditEvery int) (repStats, error) {
	var rs repStats
	_, sys, h, err := c.build(tr, auditEvery)
	if err != nil {
		return rs, err
	}
	rep := driveHarness(tr, sys, h, c.co, "none", c.seed)

	cn := h.Counters()
	rs.trials = 1
	rs.flows = cn.Arrivals
	rs.triggered = cn.Triggered
	rs.confirmed = cn.Completed
	rs.failed = cn.Triggered - cn.Completed
	rs.events = sys.Eng.Steps()
	rs.scheduled = sys.Eng.Scheduled()
	rs.samples = h.Samples()
	if hitBackstop(sys) {
		rs.backstops = 1
		rs.failed = rs.triggered
	}
	if auditEvery > 0 {
		rs.audited = true
		rs.availability = rep.AvailabilityPct
		rs.violations = rep.Violations.Total
	}
	d := newDigester()
	d.trial(string(p4u), rs.events, rs.samples)
	d.u64(rs.flows)
	rs.digest = d.h.Sum64()
	tr.observe(sys)
	tr.observeHarness(cn, rep)
	return rs, nil
}

// ---- soak-b4-squall ----

type soakB4 struct {
	seed int64
	so   experiments.SoakOpts
}

func prepareSoak(seed int64, sz sizing) (workload, error) {
	so := experiments.DefaultSoakOpts()
	so.Churn.ArrivalRate = sz.soakRate
	so.Churn.Duration = sz.soakDuration
	so.Churn.Drain = sz.soakDrain
	so.Profiles = []string{"squall"}
	so.AuditEvery = 200
	s := &soakB4{seed: seed, so: so}
	if _, _, err := s.build(nil); err != nil {
		return nil, err
	}
	return s, nil
}

// build wires one soak bed the way experiments.RunSoak does: private
// jittered B4, compiled squall storm, auditor, §11 recovery armed,
// chained dual-layer on, flight-recorder ring attached.
func (s *soakB4) build(tr *tracer) (*wiring.System, *soak.Harness, error) {
	co := s.so.Churn
	profile, ok := faults.LookupStorm("squall")
	if !ok {
		return nil, nil, fmt.Errorf("storm profile squall is not registered")
	}
	var g *topo.Topology
	var plan *faults.Plan
	var eps []faults.Episode
	tr.do("topo.build", "topo", func() {
		g = topo.B4()
		traffic.JitterLatencies(g, s.seed, co.LatencyJitter)
	})
	tr.do("faults.storm", "faults", func() { plan, eps = faults.BuildStorm(g, s.seed, co.Duration, profile) })
	wcfg := experiments.DefaultBedConfig().WiringConfig(p4u, s.seed)
	wcfg.Faults = plan
	wcfg.AuditEvery = s.so.AuditEvery
	wcfg.WatchdogTimeout = s.so.Watchdog
	wcfg.ProbeTimeout = s.so.Watchdog
	wcfg.MaxRetriggers = s.so.MaxRetriggers
	wcfg.ChainedDL = true
	wcfg.MaxEvents = soakMaxEvents
	wcfg.Trace = &trace.Options{}
	var sys *wiring.System
	tr.do("wiring.build", "wiring", func() { sys = wiring.New(g, wcfg) })
	opt := harnessOptions(co)
	opt.Episodes = eps
	opt.MaxRetriggers = s.so.MaxRetriggers
	h, err := newHarness(tr, sys, g, s.seed, opt)
	return sys, h, err
}

// fromReport fills the virtual half of rs from one soak trial's operator
// report.
func fromReport(rs *repStats, rep *soak.Report, raw []byte, events uint64, samples []time.Duration) {
	rs.trials = 1
	rs.flows = rep.Arrivals
	rs.triggered = rep.UpdatesTriggered
	rs.confirmed = rep.UpdatesCompleted
	rs.pending = rep.Confirming
	rs.failed = rep.Stalled + rep.CrashOrphaned
	rs.events = events
	rs.samples = samples
	rs.audited = true
	rs.availability = rep.AvailabilityPct
	rs.violations = rep.Violations.Total
	d := newDigester()
	d.trial(string(p4u), events, samples)
	d.h.Write(raw)
	rs.digest = d.h.Sum64()
}

// soakTrials runs the soak grid for `runs` seeds derived from the
// workload seed (the first is the seed itself) and returns one repStats
// per trial.
func (s *soakB4) soakTrials(runs int, opt experiments.RunOptions) ([]repStats, []*soak.Report, error) {
	res, err := experiments.RunSoak(topo.B4, "b4", runs, s.seed, s.so, opt)
	if err != nil {
		return nil, nil, err
	}
	out := make([]repStats, len(res.Trials))
	for i, t := range res.Trials {
		if t.Failed || res.Reports[i] == nil {
			return nil, nil, fmt.Errorf("soak trial %s failed: %s", t.Label, t.Err)
		}
		fromReport(&out[i], res.Reports[i], t.Report, t.Events, t.Samples)
		if t.Events >= soakMaxEvents {
			out[i].backstops = 1
		}
	}
	return out, res.Reports, nil
}

func (s *soakB4) rep() (repStats, error) {
	trials, _, err := s.soakTrials(1, onlyP4Update)
	if err != nil {
		return repStats{}, err
	}
	return trials[0], nil
}

// soakPool is how many derived seeds the audited pass of the soak
// workload pools. Completion times under a storm are set by a handful of
// fault episodes: across single seeds p99 swings by 20%, pooled over
// eight storm schedules by 3%.
const soakPool = 8

// audited pools soakPool trials, run on every CPU (the reports are
// byte-identical across worker counts). The digest is the first trial's:
// the seed rep runs.
func (s *soakB4) audited() (repStats, error) {
	opt := onlyP4Update
	opt.Workers = 0
	trials, reports, err := s.soakTrials(soakPool, opt)
	if err != nil {
		return repStats{}, err
	}
	rs := repStats{audited: true, digest: trials[0].digest}
	var auditedSec, unavailableSec float64
	for i, t := range trials {
		rs.trials += t.trials
		rs.flows += t.flows
		rs.triggered += t.triggered
		rs.confirmed += t.confirmed
		rs.pending += t.pending
		rs.failed += t.failed
		rs.backstops += t.backstops
		rs.events += t.events
		rs.violations += t.violations
		rs.samples = append(rs.samples, t.samples...)
		auditedSec += reports[i].AuditedSec
		unavailableSec += reports[i].UnavailableSec
	}
	rs.availability = 100
	if auditedSec > 0 {
		rs.availability = 100 * (1 - unavailableSec/auditedSec)
	}
	return rs, nil
}

func (s *soakB4) composed(tr *tracer) (repStats, error) {
	var rs repStats
	sys, h, err := s.build(tr)
	if err != nil {
		return rs, err
	}
	rep := driveHarness(tr, sys, h, s.so.Churn, "squall", s.seed)
	raw, err := rep.Marshal()
	if err != nil {
		return rs, err
	}
	fromReport(&rs, rep, raw, sys.Eng.Steps(), h.Samples())
	rs.scheduled = sys.Eng.Scheduled()
	if hitBackstop(sys) {
		rs.backstops = 1
	}
	tr.observe(sys)
	tr.observeHarness(h.Counters(), rep)
	return rs, nil
}

// ---- paper-grid ----

// subfigure is one panel of the paper's Fig. 7.
type subfigure struct {
	label   string
	mk      func() *topo.Topology
	multi   bool
	fatTree bool
	wan     bool
}

var subfigures = []subfigure{
	{label: "synthetic (Fig. 7a)", mk: topo.Synthetic},
	{label: "fat-tree K=4 (Fig. 7b)", mk: func() *topo.Topology { return topo.FatTree(4) }, multi: true, fatTree: true},
	{label: "B4 (Fig. 7c)", mk: topo.B4, wan: true},
	{label: "B4 (Fig. 7d)", mk: topo.B4, multi: true, wan: true},
	{label: "Internet2 (Fig. 7e)", mk: topo.Internet2, wan: true},
	{label: "Internet2 (Fig. 7f)", mk: topo.Internet2, multi: true, wan: true},
}

type grid struct {
	seed int64
	sz   sizing
	figs []subfigure
	// workers is the trial-pool width rep uses: 1 everywhere except the
	// runner probe.
	workers int
}

func prepareGrid(seed int64, sz sizing) (workload, error) {
	g := &grid{seed: seed, sz: sz, workers: 1}
	for _, f := range subfigures {
		if f.wan && !sz.gridWAN {
			continue
		}
		g.figs = append(g.figs, f)
	}
	// What every subfigure pays once before its first trial: topology,
	// snapshot, the flows shared by all systems, an empty plan cache and
	// the first wired bed. The figure code pays it again on every call,
	// so nothing built here is kept.
	for _, f := range g.figs {
		t, _, err := g.inputs(f, nil)
		if err != nil {
			return nil, err
		}
		wcfg := experiments.DefaultBedConfig().WiringConfig(p4u, seed)
		wcfg.Plans = plancache.New(t)
		_ = wiring.New(t, wcfg)
	}
	return g, nil
}

// inputs builds one subfigure's frozen topology and its flows per run:
// the single-flow spec, or the per-run multi-flow workloads. All six
// systems share them, as in the figure code.
func (g *grid) inputs(f subfigure, tr *tracer) (*topo.Topology, [][]traffic.FlowSpec, error) {
	var t *topo.Topology
	tr.do("topo.build", "topo", func() {
		t = f.mk()
		t.Freeze()
	})
	perRun := make([][]traffic.FlowSpec, g.sz.gridRuns)
	var err error
	tr.do("traffic.workload", "traffic", func() {
		if !f.multi {
			var spec traffic.FlowSpec
			if t.Name == "synthetic" {
				oldP, newP := topo.SyntheticPaths()
				spec = traffic.FlowSpec{Src: oldP[0], Dst: oldP[len(oldP)-1], Old: oldP, New: newP, SizeK: 1000}
			} else if spec, err = traffic.SegmentedSingleFlow(t, 1000); err != nil {
				return
			}
			for run := range perRun {
				perRun[run] = []traffic.FlowSpec{spec}
			}
			return
		}
		tcfg := traffic.DefaultConfig()
		if f.fatTree {
			tcfg.Candidates = topo.EdgeSwitches(t)
		}
		for run := range perRun {
			// The per-run workload RNG of internal/experiments.
			rng := rand.New(rand.NewSource((g.seed + int64(run)) ^ 0x6f10))
			if perRun[run], err = traffic.MultiFlowWorkload(t, rng, tcfg); err != nil {
				return
			}
		}
	})
	return t, perRun, err
}

func (g *grid) rep() (repStats, error) {
	var rs repStats
	d := newDigester()
	opt := experiments.RunOptions{Workers: g.workers}
	for _, f := range g.figs {
		var res *experiments.Fig7Result
		var err error
		if f.multi {
			res, err = experiments.Fig7MultiFlowOpts(f.mk, f.label, f.fatTree, g.sz.gridRuns, g.seed, opt)
		} else {
			res, err = experiments.Fig7SingleFlowOpts(f.mk, f.label, g.sz.gridRuns, g.seed, opt)
		}
		if err != nil {
			return rs, err
		}
		for _, t := range res.Trials {
			g.account(&rs, d, t.System, t.Events, t.Samples, t.Failed || t.Events >= figureMaxEvents)
		}
	}
	rs.digest = d.h.Sum64()
	return rs, nil
}

// account books one grid trial. The grid reports one completion sample
// per trial — the single flow's update time, or the last flow of the
// multi-flow batch — so on this workload an update is a trial's whole
// update set.
func (g *grid) account(rs *repStats, d digester, system string, events uint64, samples []time.Duration, backstop bool) {
	rs.trials++
	rs.flows++
	rs.triggered++
	rs.events += events
	switch {
	case backstop:
		rs.backstops++
		rs.failed++
	case len(samples) == 0:
		rs.failed++
	default:
		rs.confirmed++
	}
	if system == p4u.String() {
		rs.samples = append(rs.samples, samples...)
	}
	d.trial(system, events, samples)
}

func (g *grid) composed(tr *tracer) (repStats, error) { return g.compose(tr, 0) }
func (g *grid) audited() (repStats, error)            { return g.compose(nil, 50) }

func (g *grid) compose(tr *tracer, auditEvery int) (repStats, error) {
	var rs repStats
	var meter availabilityMeter
	d := newDigester()
	for _, f := range g.figs {
		t, perRun, err := g.inputs(f, tr)
		if err != nil {
			return rs, err
		}
		plans := plancache.New(t)
		for _, kind := range experiments.AllSystems() {
			for run := 0; run < g.sz.gridRuns; run++ {
				cfg := experiments.DefaultBedConfig()
				if f.multi {
					cfg.Congestion = true
					cfg.FatTreeControl = f.fatTree
				} else {
					cfg.NodeDelayMean = 100 * time.Millisecond
				}
				wcfg := cfg.WiringConfig(kind, g.seed+int64(run))
				wcfg.Plans = plans
				if kind == p4u {
					// The audit is of the paper's system; the idealized
					// opt-oracle executor, for one, ignores capacity.
					wcfg.AuditEvery = auditEvery
				}
				var bed *experiments.Bed
				tr.do("wiring.build", "wiring", func() {
					bed = &experiments.Bed{Kind: kind, System: wiring.New(t, wcfg)}
				})
				meter.attach(bed.System)
				flows := perRun[run]
				tr.do("controlplane.register", "controlplane", func() { err = bed.Register(flows) })
				if err != nil {
					return rs, err
				}
				var updates []*controlplane.UpdateStatus
				tr.do("controlplane.trigger", "controlplane", func() {
					for _, fl := range flows {
						var u *controlplane.UpdateStatus
						if u, err = bed.Trigger(fl.ID(), fl.New); err != nil {
							return
						}
						if u != nil {
							updates = append(updates, u)
						}
					}
				})
				if err != nil {
					return rs, fmt.Errorf("%s: trigger: %w", kind, err)
				}
				tr.do("sim.run", "sim", func() { bed.Eng.Run() })

				var sample []time.Duration
				if last, ok := gridSample(updates, f.multi); ok {
					sample = []time.Duration{last}
				}
				g.account(&rs, d, kind.String(), bed.Eng.Steps(), sample, hitBackstop(bed.System))
				rs.scheduled += bed.Eng.Scheduled()
				tr.observe(bed.System)
				tr.observeUpdates(updates)
			}
		}
		tr.addPlanStats(plans.Stats())
	}
	if auditEvery > 0 {
		meter.fill(&rs)
	}
	rs.digest = d.h.Sum64()
	return rs, nil
}

// gridSample is the figure code's per-trial measurement: the single
// flow's Completed-Sent, or the completion instant of the last flow of
// a multi-flow batch; not ok when any update is unconfirmed.
func gridSample(updates []*controlplane.UpdateStatus, multi bool) (time.Duration, bool) {
	if len(updates) == 0 {
		return 0, false
	}
	var last time.Duration
	for _, u := range updates {
		if !u.Done() {
			return 0, false
		}
		if u.Completed > last {
			last = u.Completed
		}
	}
	if !multi {
		return updates[0].Completed - updates[0].Sent, true
	}
	return last, last > 0
}

// measure runs fn as one timed repetition: wall time, the heap
// allocation count and the resident-set peak around it.
func measure(fn func() (repStats, error)) (repStats, error) {
	var m0, m1 runtime.MemStats
	resetPeakRSS()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	rs, err := fn()
	rs.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	rs.mallocs = m1.Mallocs - m0.Mallocs
	rs.peakRSSMB = peakRSSMB()
	return rs, err
}
