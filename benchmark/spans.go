package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/soak"
	"p4update/internal/wiring"
)

// span is one timed call into a layer, recorded by the benchmark around
// the exported function it calls. Times are nanoseconds since the tracer
// was created; parent is -1 for a repetition's root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Rep     int    `json:"rep"`
}

// counters are read through exported accessors at span boundaries and
// summed over the traced repetitions.
type counters struct {
	events, scheduled                          uint64
	uimReceived, unmReceived, resubmissions    uint64
	rulesApplied, decodeErrors                 uint64
	flowSlots                                  uint64
	heapBytes, heapFlows                       uint64
	planHits, planMisses                       uint64
	batchFrames, batchedUIMs                   uint64
	retriggers, probeRetries                   uint64
	waves, skippedBusy, skippedSame, triggered uint64
	faultsDropped, faultsCrashes               uint64
	auditSweeps, traceRecorded, traceDropped   uint64
}

// tracer keeps spans in memory and writes them out when the run ends.
// Every method is a no-op on a nil tracer apart from running the
// function it was handed, so the untraced repetitions share the code
// path without a span or a counter being active.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	rep   int
	c     counters
	// heapDone marks the repetition's one heap measurement as taken.
	heapDone bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span; on a nil tracer it only runs fn.
func (t *tracer) do(name, layer string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Rep: t.rep})
	t.open = append(t.open, id)
	t.spans[id].StartNs = int64(time.Since(t.t0))
	fn()
	t.spans[id].EndNs = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// repetition runs fn inside the root span of the next repetition.
func (t *tracer) repetition(fn func()) {
	t.rep++
	t.heapDone = false
	t.do("bench.repetition", "bench", fn)
}

// heapPerFlow measures the live heap once per repetition, at a moment
// the caller knows how many flows the fabric holds. The collection it
// forces is charged to its own span.
func (t *tracer) heapPerFlow(live int) {
	if t == nil || t.heapDone || live <= 0 {
		return
	}
	t.heapDone = true
	t.do("bench.heap", "bench", func() {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		t.c.heapBytes += m.HeapAlloc
		t.c.heapFlows += uint64(live)
	})
}

// observe reads a finished bed's counters.
func (t *tracer) observe(sys *wiring.System) {
	if t == nil {
		return
	}
	t.c.events += sys.Eng.Steps()
	t.c.scheduled += sys.Eng.Scheduled()
	for _, sw := range sys.Net.Switches() {
		t.c.uimReceived += sw.Stats.UIMReceived
		t.c.unmReceived += sw.Stats.UNMReceived
		t.c.resubmissions += sw.Stats.Resubmissions
		t.c.rulesApplied += sw.Stats.RulesApplied
		t.c.decodeErrors += sw.Stats.DecodeErrors
	}
	t.c.flowSlots += uint64(sys.Net.NumFlowSlots())
	t.c.batchFrames += sys.Ctl.BatchFrames
	t.c.batchedUIMs += sys.Ctl.BatchedUIMs
	if sys.Aud != nil {
		t.c.auditSweeps += sys.Aud.Report().Sweeps
	}
	if sys.Trace != nil {
		t.c.traceRecorded += sys.Trace.Recorded()
		t.c.traceDropped += sys.Trace.Dropped()
	}
	if sys.Inj != nil {
		st := sys.Inj.Stats
		t.c.faultsDropped += st.Dropped + st.PartitionDrops
		t.c.faultsCrashes += st.Crashes
	}
}

// observeUpdates reads the recovery counts of a bed's tracked updates.
func (t *tracer) observeUpdates(updates []*controlplane.UpdateStatus) {
	if t == nil {
		return
	}
	for _, u := range updates {
		t.c.retriggers += uint64(u.Retriggers)
		t.c.probeRetries += uint64(u.ProbeRetries)
	}
}

// observeHarness reads the soak harness's bookkeeping. The harness
// forgets completed updates, so their recovery counts come from its
// report rather than from the controller's update table.
func (t *tracer) observeHarness(cn soak.Counters, rep *soak.Report) {
	if t == nil {
		return
	}
	t.c.waves += cn.Waves
	t.c.skippedBusy += cn.SkippedBusy
	t.c.skippedSame += cn.SkippedSame
	t.c.triggered += cn.Triggered
	t.c.retriggers += rep.Retriggers
	t.c.probeRetries += rep.ProbeRetries
}

func (t *tracer) addPlanStats(hits, misses uint64) {
	if t == nil {
		return
	}
	t.c.planHits += hits
	t.c.planMisses += misses
}

// selfTimes returns, per span name, the time spent in spans of that name
// minus the time their children cover, and the sum over all spans —
// which equals the summed duration of the root spans.
func (t *tracer) selfTimes() (byName map[string]int64, total int64) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	byName = make(map[string]int64)
	for _, s := range t.spans {
		self := s.EndNs - s.StartNs - child[s.ID]
		byName[s.Name] += self
		total += self
	}
	return byName, total
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Note     string `json:"note"`
		Spans    []span `json:"spans"`
	}{workload, seed, "spans recorded by the benchmark around calls into each layer; self time = duration minus children", t.spans}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
