// Package runner executes evaluation trials in parallel.
//
// The paper's evaluation grid — topology × system × seed — consists of
// independent trials: a trial's outputs depend on its own configuration
// and seed only, so trials shard across a worker pool. What they share
// is read-only: the grid's frozen topology with its path oracle, and
// the plan cache. Each worker keeps the simulation engine and fabric of
// its last BedTrial and resets them for its next one on the same
// topology (wiring.Recycle), so that storage belongs to one worker at a
// time. The pool guarantees deterministic merging: results are returned
// ordered by trial index, never by completion order, so a parallel
// run's merged output is byte-identical to a sequential run over the
// same trial list.
//
// A trial that panics or exceeds the per-trial timeout is recorded as a
// failed Result instead of killing the run.
package runner

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"p4update/internal/topo"
	"p4update/internal/trace"
	"p4update/internal/wiring"
)

// Metrics is the measured portion of one trial: wall-clock cost,
// virtual quiescence time and executed event count of the simulation,
// the update-time samples the trial contributes to its figure, and any
// named scalar metrics (Fig. 8 reports preparation-time ratios).
type Metrics struct {
	// WallClock is the host time the trial took (filled by the pool).
	WallClock time.Duration `json:"wall_clock_ns"`
	// VirtualTime is the simulation's quiescence instant.
	VirtualTime time.Duration `json:"virtual_ns,omitempty"`
	// Events is the number of simulation events executed.
	Events uint64 `json:"events,omitempty"`
	// EventsScheduled is the number of simulation events scheduled
	// (including cancelled timers); deterministic per seed.
	EventsScheduled uint64 `json:"events_scheduled,omitempty"`
	// Allocs and AllocBytes are the host heap allocations observed
	// during the trial (filled by the pool). They are host-side
	// profiling aids, not simulation outputs: with more than one worker
	// the runtime counters are shared, so concurrent trials contaminate
	// each other's deltas, and the runtime flushes allocation counts in
	// span-sized batches, so individual deltas are coarse (meaningful in
	// aggregate over many trials). Determinism comparisons must ignore
	// them, like WallClock.
	Allocs     uint64 `json:"allocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	// Samples are the trial's measured update times. An empty slice
	// marks a trial whose update did not complete (a failed run in the
	// figure's sense, distinct from a crashed trial).
	Samples []time.Duration `json:"samples_ns,omitempty"`
	// Values holds named scalar metrics (e.g. Fig. 8's "ratio").
	Values map[string]float64 `json:"values,omitempty"`
	// Extra holds per-system metric extras reported through the update
	// system's metrics hook (wiring.MetricsReporter) — e.g. Central's
	// dependency rounds — so the report schema stays stable as systems
	// are added.
	Extra map[string]float64 `json:"extra,omitempty"`
	// Report carries a structured per-trial operator report (e.g. the
	// soak scenario's SLO report) as pre-marshaled JSON, riding into the
	// JSON trial export verbatim; nil for trials without one. Trial
	// bodies marshal it themselves so it derives only from virtual-time
	// state and stays byte-identical across worker counts.
	Report json.RawMessage `json:"report,omitempty"`
	// Trace summarizes the trial's flight-recorder content (event counts
	// by kind/class and by node); nil when tracing was off. It sits next
	// to the alloc counters in the JSON trial report.
	Trace *trace.Summary `json:"trace,omitempty"`
	// TraceRec is the trial's recorder itself, for callers that export
	// the full event log (never serialized into reports).
	TraceRec *trace.Recorder `json:"-"`
}

// Trial is one cell of the evaluation grid.
type Trial struct {
	// Label names the trial for reports ("fig7a/run3").
	Label string `json:"label"`
	// System is the evaluated system's display name.
	System string `json:"system"`
	// Seed is the trial's simulation seed.
	Seed int64 `json:"seed"`
	// Run executes the trial and returns its measurements. The pool
	// fills Metrics.WallClock itself.
	Run func() (Metrics, error) `json:"-"`
	// onBed, set by BedTrial, is Run on a worker's bed: it builds the
	// trial's system from prev (nil = a fresh build) through
	// wiring.Recycle and returns the system for the worker's next trial.
	onBed func(prev *wiring.System) (Metrics, *wiring.System, error)
}

// BedTrial builds a Trial that wires a full system from the shared
// construction path — g is the (typically frozen, figure-shared)
// topology, cfg carries the system kind, seed and bed configuration —
// and hands it to body. VirtualTime and Events are captured from the
// engine after body returns. A trial whose engine the MaxEvents
// backstop stopped (sim.Engine.CutShort) fails: a trial ends by
// quiescing, and a backstop that fires marks a runaway.
//
// All trials of a grid share g read-only: freezing it (topo.Freeze)
// makes it refuse mutation, so its one path oracle is never flushed and
// serves every trial's concurrent queries; per-trial setup neither
// rebuilds the topology nor re-warms a private path cache.
//
// Run through a Pool, the trial is built on the worker's bed: the
// engine and network of the worker's previous BedTrial on g are reset
// rather than allocated anew. The system is the bed's for the body's
// duration only, so nothing the body returns may point into it.
func BedTrial(label, system string, g *topo.Topology, cfg wiring.Config,
	body func(*wiring.System) (Metrics, error)) Trial {
	onBed := func(prev *wiring.System) (Metrics, *wiring.System, error) {
		sys := wiring.Recycle(prev, g, cfg)
		m, err := body(sys)
		if err == nil && sys.Eng.CutShort() {
			err = fmt.Errorf("backstop: MaxEvents %d reached", sys.Eng.MaxEvents)
		}
		if extra := sys.ExtraMetrics(); len(extra) > 0 {
			if m.Extra == nil {
				m.Extra = extra
			} else {
				for k, v := range extra {
					if _, taken := m.Extra[k]; !taken {
						m.Extra[k] = v
					}
				}
			}
		}
		m.VirtualTime = sys.Eng.Now()
		m.Events = sys.Eng.Steps()
		m.EventsScheduled = sys.Eng.Scheduled()
		if sys.Trace != nil {
			m.Trace = sys.Trace.Summarize()
			m.TraceRec = sys.Trace
			// The recorder outlives the trial; its clock is the engine's,
			// which the worker's next trial resets.
			sys.Trace.Clock = nil
		}
		return m, sys, err
	}
	return Trial{
		Label:  label,
		System: system,
		Seed:   cfg.Seed,
		Run: func() (Metrics, error) {
			m, _, err := onBed(nil)
			return m, err
		},
		onBed: onBed,
	}
}

// Result is one trial's outcome.
type Result struct {
	// Index is the trial's position in the submitted list; results are
	// always merged in index order.
	Index  int    `json:"index"`
	Label  string `json:"label"`
	System string `json:"system"`
	Seed   int64  `json:"seed"`
	Metrics
	// Failed marks a trial that panicked, timed out, returned an error
	// or was stopped by its engine's MaxEvents backstop; Err carries the
	// message.
	Failed bool   `json:"failed,omitempty"`
	Err    string `json:"err,omitempty"`
}

// Pool runs trials across a fixed set of workers.
type Pool struct {
	// Workers is the concurrency; <= 0 means GOMAXPROCS.
	Workers int
	// Timeout bounds each trial's wall-clock execution (0 = unlimited).
	// A timed-out trial's goroutine is abandoned (the simulation cannot
	// be interrupted mid-event); its engine's MaxEvents backstop keeps
	// the leak bounded.
	Timeout time.Duration
}

// NumWorkers reports the effective worker count.
func (p *Pool) NumWorkers() int {
	if p == nil || p.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Workers
}

// Run executes all trials and returns their results ordered by trial
// index. It never returns early: failed trials are recorded in place.
func (p *Pool) Run(trials []Trial) []Result {
	results := make([]Result, len(trials))
	workers := p.NumWorkers()
	if workers > len(trials) {
		workers = len(trials)
	}
	if workers <= 1 {
		sc := newScratch()
		for i, t := range trials {
			results[i] = p.runOne(i, t, sc)
		}
		return results
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker reuses one scratch (outcome channel + timeout
			// timer) across all the trials it executes.
			sc := newScratch()
			for i := range jobs {
				results[i] = p.runOne(i, trials[i], sc)
			}
		}()
	}
	for i := range trials {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// outcome is one trial's raw return, passed from the execution
// goroutine to the supervising worker.
type outcome struct {
	m   Metrics
	bed *wiring.System
	err error
}

// scratch is per-worker reusable trial state: the outcome channel and
// the timeout timer survive across trials, so supervising a trial
// allocates nothing beyond the execution goroutine itself, and bed is
// the system of the worker's last BedTrial, which its next one recycles.
type scratch struct {
	done  chan outcome
	timer *time.Timer
	bed   *wiring.System
	// allocs is readAllocs' sample buffer.
	allocs [2]metrics.Sample
}

func newScratch() *scratch {
	sc := &scratch{done: make(chan outcome, 1)}
	sc.allocs[0].Name = "/gc/heap/allocs:objects"
	sc.allocs[1].Name = "/gc/heap/allocs:bytes"
	return sc
}

// runOne executes a single trial with panic recovery and the pool's
// per-trial timeout, reusing the worker's scratch.
func (p *Pool) runOne(index int, t Trial, sc *scratch) Result {
	res := Result{Index: index, Label: t.Label, System: t.System, Seed: t.Seed}
	start := time.Now()
	allocs0, bytes0 := sc.readAllocs()
	m, err := p.execute(t, sc)
	m.WallClock = time.Since(start)
	allocs1, bytes1 := sc.readAllocs()
	m.Allocs = allocs1 - allocs0
	m.AllocBytes = bytes1 - bytes0
	res.Metrics = m
	if err != nil {
		res.Failed = true
		res.Err = err.Error()
	}
	return res
}

// execute runs t on the worker's bed and keeps the bed t leaves behind;
// a trial that fails, panics or times out leaves none.
func (p *Pool) execute(t Trial, sc *scratch) (Metrics, error) {
	if t.Run == nil && t.onBed == nil {
		return Metrics{}, fmt.Errorf("runner: trial %q has no Run function", t.Label)
	}
	bed := sc.bed
	sc.bed = nil
	if p == nil || p.Timeout <= 0 {
		o := recoverRun(t, bed)
		sc.bed = o.bed
		return o.m, o.err
	}
	done := sc.done
	go func() { done <- recoverRun(t, bed) }()
	if sc.timer == nil {
		sc.timer = time.NewTimer(p.Timeout)
	} else {
		sc.timer.Reset(p.Timeout)
	}
	select {
	case o := <-done:
		if !sc.timer.Stop() {
			// The timer fired concurrently with the outcome; drain it so
			// the next trial's Reset starts from a clean channel.
			select {
			case <-sc.timer.C:
			default:
			}
		}
		sc.bed = o.bed
		return o.m, o.err
	case <-sc.timer.C:
		// The abandoned goroutine still owns sc.done and will write its
		// late outcome there, and it still owns the bed it runs on; hand
		// the worker a fresh channel and no bed, so neither a stale result
		// nor a live bed can reach a later trial.
		sc.done = make(chan outcome, 1)
		sc.timer = nil
		return Metrics{}, fmt.Errorf("runner: trial %q timed out after %v", t.Label, p.Timeout)
	}
}

// recoverRun runs t on bed (BedTrials) or alone, converting a panic into
// an error. The outcome carries the bed for the worker's next trial: the
// one t built or left alone, none when t failed.
func recoverRun(t Trial, bed *wiring.System) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o = outcome{err: fmt.Errorf("runner: trial %q panicked: %v", t.Label, r)}
		}
		if o.err != nil {
			o.bed = nil
		}
	}()
	if t.onBed != nil {
		o.m, o.bed, o.err = t.onBed(bed)
	} else {
		o.m, o.err = t.Run()
		o.bed = bed
	}
	return o
}

// readAllocs samples the runtime's cumulative heap-allocation counters
// (object count and bytes) without a stop-the-world pause.
func (sc *scratch) readAllocs() (objects, bytes uint64) {
	metrics.Read(sc.allocs[:])
	return sc.allocs[0].Value.Uint64(), sc.allocs[1].Value.Uint64()
}

// Failed counts the trials that crashed or timed out.
func Failed(results []Result) int {
	n := 0
	for _, r := range results {
		if r.Failed {
			n++
		}
	}
	return n
}
