package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"p4update/internal/metrics"
)

// setup_s is the median over repeated executions of the workload's
// one-time preparation: at least setupRuns of them, and — so that a
// sub-millisecond preparation still yields a steady median — as many
// more as fit in the sizing's setupBudget, up to setupMaxRuns.
const (
	setupRuns    = 9
	setupMaxRuns = 199
)

// minReps is the fewest timed repetitions a run reports a median over,
// whatever its time budget.
const minReps = 3

// runResult is everything one run of one workload produced. The last
// line of the run's standard output carries correct, attempted, failed
// and the metric values; the rest is written to the run's detail file.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Seconds  int    `json:"seconds"`
	// Reps is the number of timed repetitions behind every wall-clock
	// median; TracedReps the number of traced repetitions.
	Reps       int   `json:"repetitions"`
	TracedReps int   `json:"traced_repetitions,omitempty"`
	RepWallS   value `json:"repetition_wall_s"`
	// Per-repetition simulation counts (identical across repetitions).
	Trials    int    `json:"trials"`
	Flows     uint64 `json:"flows"`
	Triggered uint64 `json:"updates_triggered"`
	Confirmed uint64 `json:"updates_confirmed"`
	Pending   uint64 `json:"updates_confirming_at_horizon"`
	Events    uint64 `json:"events"`
	// SimDigest is FNV-64 over every system's virtual samples, event
	// counts and soak report bytes of one repetition.
	SimDigest string `json:"sim_digest"`
	// HostSlowness is the calibration kernel's median duration over the
	// reference host's; the host-time metrics of an end-to-end run are
	// scaled by it to the reference host's speed.
	HostSlowness float64 `json:"host_slowness"`

	Correct   bool     `json:"correct"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Checks    []string `json:"failed_checks"`

	Metrics map[string]value `json:"metrics"`
	Host    hostStamp        `json:"host"`
}

func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// checkRep applies the correctness checks every repetition must pass and
// books its operations.
func (r *runResult) checkRep(what string, rs repStats, want uint64) {
	r.Attempted += rs.triggered - rs.pending
	r.Failed += rs.failed
	if rs.digest != want {
		r.fail("%s: sim_digest %016x differs from the first repetition's %016x", what, rs.digest, want)
	}
	if rs.backstops > 0 {
		r.fail("%s: %d trial(s) failed or ended on the MaxEvents backstop", what, rs.backstops)
	}
	if rs.failed > 0 {
		r.fail("%s: %d of %d updates failed", what, rs.failed, rs.triggered-rs.pending)
	}
	if rs.audited && rs.violations > 0 {
		r.fail("%s: %d audit violation(s)", what, rs.violations)
	}
}

// requireExactly fails the run unless it emitted every metric of defs
// with a finite value, and no other.
func (r *runResult) requireExactly(defs []metricDef) {
	for _, d := range defs {
		if v, ok := r.Metrics[d.name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.fail("metric %s has no finite value", d.name)
		}
	}
	for name := range r.Metrics {
		if _, ok := lookupMetric(defs, name); !ok {
			r.fail("metric %s is emitted but not declared", name)
		}
	}
}

func (r *runResult) describe(rs repStats) {
	r.Trials, r.Flows, r.Events = rs.trials, rs.flows, rs.events
	r.Triggered, r.Confirmed, r.Pending = rs.triggered, rs.confirmed, rs.pending
	r.SimDigest = fmt.Sprintf("%016x", rs.digest)
}

// repeatFor runs fn back to back — closed loop, one client — until
// budget has elapsed and at least minReps repetitions are in. The
// calibration kernel is sampled between repetitions.
func repeatFor(budget time.Duration, cal *calibrator, fn func() (repStats, error)) ([]repStats, error) {
	var reps []repStats
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < budget {
		cal.sample(2)
		rs, err := measure(fn)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rs)
	}
	return reps, nil
}

func wallSeconds(reps []repStats) []float64 {
	out := make([]float64, len(reps))
	for i, rs := range reps {
		out[i] = rs.wall.Seconds()
	}
	return out
}

// runEndToEnd measures one workload with nothing attached: no span, no
// profile, no counter read. Set-up is executed at least setupRuns times;
// the untimed audited pass and an untimed warm-up repetition precede the
// timed repetitions.
func runEndToEnd(sp spec, seed int64, seconds int, sz sizing) (*runResult, error) {
	res := &runResult{Workload: sp.name, Seed: seed, Seconds: seconds, Correct: true,
		Metrics: make(map[string]value), Host: stampHost()}
	var cal calibrator
	cal.sample(8)

	var w workload
	var setups []float64
	for spent := time.Duration(0); len(setups) < setupRuns || (spent < sz.setupBudget && len(setups) < setupMaxRuns); {
		start := time.Now()
		var err error
		if w, err = sp.prepare(seed, sz); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		el := time.Since(start)
		spent += el
		setups = append(setups, el.Seconds())
	}
	cal.sample(8)

	audited, err := w.audited()
	if err != nil {
		return nil, fmt.Errorf("%s: audited pass: %w", sp.name, err)
	}
	warm, err := w.rep()
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", sp.name, err)
	}
	res.describe(warm)
	res.checkRep("audited pass", audited, warm.digest)

	reps, err := repeatFor(time.Duration(seconds)*time.Second, &cal, w.rep)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	cal.sample(8)
	for i, rs := range reps {
		res.checkRep(fmt.Sprintf("repetition %d", i+1), rs, warm.digest)
	}
	res.Reps = len(reps)
	res.RepWallS = summarize(wallSeconds(reps), "s")
	res.HostSlowness = cal.slowness()

	// Host time, at the reference host's speed.
	slow := res.HostSlowness
	per := func(unit string, f func(rs repStats) float64) value {
		xs := make([]float64, len(reps))
		for i, rs := range reps {
			xs[i] = f(rs)
		}
		return summarize(xs, unit)
	}
	m := res.Metrics
	for i := range setups {
		setups[i] /= slow
	}
	m["setup_s"] = summarize(setups, "s")
	m["updates_per_s"] = per("1/s", func(rs repStats) float64 { return float64(rs.updates()) / rs.wall.Seconds() * slow })
	m["flows_per_s"] = per("1/s", func(rs repStats) float64 { return float64(rs.flows) / rs.wall.Seconds() * slow })
	m["wall_ns_per_event"] = per("ns", func(rs repStats) float64 { return float64(rs.wall) / float64(rs.events) / slow })
	m["trials_per_s"] = per("1/s", func(rs repStats) float64 { return float64(rs.trials) / rs.wall.Seconds() * slow })
	m["allocs_per_update"] = per(unitCount, func(rs repStats) float64 { return float64(rs.mallocs) / float64(rs.updates()) })
	m["peak_rss_mb"] = per("MB", func(rs repStats) float64 { return rs.peakRSSMB })

	// Virtual time, from the audited pass.
	cdf := metrics.NewCDF(audited.samples)
	m["sim_update_ms_p50"] = exact(simMs(cdf.Quantile(0.50)), unitSimMs)
	m["sim_update_ms_p99"] = exact(simMs(cdf.Quantile(0.99)), unitSimMs)
	m["events_per_update"] = exact(float64(audited.events)/float64(audited.updates()), unitCount)
	attempted := audited.triggered - audited.pending
	m["confirmed_update_pct"] = exact(100*float64(attempted-audited.failed)/float64(attempted), "%")
	m["availability_pct"] = exact(audited.availability, "%")

	res.requireExactly(endToEnd)
	return res, nil
}

// runTraced is the separate traced run: a few untraced repetitions for
// reference, then repetitions of the benchmark's own composition under
// spans, counter reads and a CPU profile, then the layer probes. None of
// its numbers enter the end-to-end metrics.
func runTraced(sp spec, seed int64, seconds int, sz sizing, ps probeSizing, outDir string) (*runResult, error) {
	res := &runResult{Workload: sp.name, Seed: seed, Seconds: seconds, Traced: true, Correct: true,
		Metrics: make(map[string]value), Host: stampHost()}
	w, err := sp.prepare(seed, sz)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
	}
	warm, err := w.rep()
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", sp.name, err)
	}
	res.describe(warm)
	budget := time.Duration(seconds) * time.Second
	var cal calibrator
	cal.sample(8)
	plain, err := repeatFor(budget/4, &cal, w.rep)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	res.Reps = len(plain)
	res.RepWallS = summarize(wallSeconds(plain), "s")

	tr := newTracer()
	var prof bytes.Buffer
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("%s: cpu profile: %w", sp.name, err)
	}
	// No calibration between traced repetitions: the kernel would show up
	// in the profile.
	traced, err := repeatFor(budget/3, nil, func() (rs repStats, err error) {
		tr.repetition(func() { rs, err = w.composed(tr) })
		return rs, err
	})
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&gc1)
	if err != nil {
		return nil, fmt.Errorf("%s: traced repetition: %w", sp.name, err)
	}
	res.TracedReps = len(traced)
	for i, rs := range traced {
		res.checkRep(fmt.Sprintf("traced repetition %d", i+1), rs, warm.digest)
		if rs.events != warm.events || rs.flows != warm.flows || rs.confirmed != warm.confirmed {
			res.fail("traced repetition %d: %d events, %d flows, %d updates; the untraced run had %d, %d, %d",
				i+1, rs.events, rs.flows, rs.confirmed, warm.events, warm.flows, warm.confirmed)
		}
	}

	m := res.Metrics
	n := float64(len(traced))

	// (a) Spans: self time per span name as a share of the traced wall.
	self, spanTotal := tr.selfTimes()
	var wallTotal time.Duration
	for _, rs := range traced {
		wallTotal += rs.wall
	}
	if gap := math.Abs(float64(spanTotal)/float64(wallTotal) - 1); gap > 0.02 {
		res.fail("span self times sum to %v, the traced repetitions took %v (%.1f%% apart)",
			time.Duration(spanTotal), wallTotal, 100*gap)
	}
	for _, s := range spanShares {
		m[s.metric] = exact(float64(self[s.span])/float64(spanTotal), unitRatio)
		delete(self, s.span)
	}
	for name := range self {
		res.fail("span %q has no share metric", name)
	}
	if err := tr.write(filepath.Join(outDir, "trace-"+sp.name+".json"), sp.name, seed); err != nil {
		return nil, err
	}

	// (b) CPU profile over the traced repetitions, folded by layer.
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	shares := foldCPU(p)
	var sum float64
	for _, l := range cpuLayers {
		m[l+".cpu_share"] = exact(shares[l], unitRatio)
		sum += shares[l]
	}
	if len(p.samples) > 0 && math.Abs(sum-1) > 0.01 {
		res.fail("cpu shares sum to %.3f", sum)
	}

	// (c) Counters, per traced repetition.
	c := tr.c
	div := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	count := func(name string, v uint64) { m[name] = exact(float64(v)/n, unitCount) }
	count("sim.events", c.events)
	m["sim.cancelled_ratio"] = exact(div(c.scheduled-c.events, c.scheduled), unitRatio)
	count("dataplane.uim_received", c.uimReceived)
	count("dataplane.unm_received", c.unmReceived)
	count("dataplane.resubmissions", c.resubmissions)
	count("dataplane.rules_applied", c.rulesApplied)
	count("dataplane.decode_errors", c.decodeErrors)
	count("dataplane.flow_slots", c.flowSlots)
	m["dataplane.heap_bytes_per_live_flow"] = exact(div(c.heapBytes, c.heapFlows), "B")
	m["plancache.hit_ratio"] = exact(div(c.planHits, c.planHits+c.planMisses), unitRatio)
	m["controlplane.uims_per_batch_frame"] = exact(div(c.batchedUIMs, c.batchFrames), unitRatio)
	count("controlplane.retriggers", c.retriggers)
	count("controlplane.probe_retries", c.probeRetries)
	count("soak.waves", c.waves)
	m["soak.skipped_busy_ratio"] = exact(div(c.skippedBusy, c.skippedBusy+c.skippedSame+c.triggered), unitRatio)
	count("faults.dropped", c.faultsDropped)
	count("faults.crashes", c.faultsCrashes)
	count("audit.sweeps", c.auditSweeps)
	count("trace.recorded", c.traceRecorded)
	count("trace.dropped", c.traceDropped)
	m["gc.cycles"] = exact(float64(gc1.NumGC-gc0.NumGC)/n, unitCount)
	m["gc.pause_ms"] = exact(float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6/n, "ms")
	tracedWall := summarize(wallSeconds(traced), "s")
	m["bench.trace_overhead_pct"] = exact(100*(tracedWall.Value/res.RepWallS.Value-1), "%")
	res.HostSlowness = cal.slowness()
	m["bench.host_slowness"] = exact(res.HostSlowness, unitRatio)

	// Layer probes.
	probes, err := runProbes(ps, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	for _, d := range perLayer {
		if v, ok := probes[d.name]; ok {
			m[d.name] = exact(v, d.unit)
		}
	}

	res.requireExactly(perLayer)
	return res, nil
}

func lookupMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
