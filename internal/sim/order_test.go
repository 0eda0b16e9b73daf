package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refEvent is one event of refQueue.
type refEvent struct {
	at       time.Duration
	seq      uint64
	fn       func()
	dead     bool
	executed bool
}

// refQueue is a trivially correct event queue: one slice kept sorted by
// (at, seq). It is the specification the engine's heap and delay lanes
// must reproduce event for event.
type refQueue struct {
	now          time.Duration
	q            []*refEvent
	seq          uint64
	steps, sched uint64
	live         int
}

func (r *refQueue) push(at time.Duration, fn func()) *refEvent {
	ev := &refEvent{at: at, seq: r.seq, fn: fn}
	r.seq++
	r.sched++
	r.live++
	i := sort.Search(len(r.q), func(i int) bool {
		q := r.q[i]
		return q.at > at || (q.at == at && q.seq > ev.seq)
	})
	r.q = append(r.q, nil)
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = ev
	return ev
}

func (r *refQueue) stop(ev *refEvent) {
	if !ev.dead && !ev.executed {
		ev.dead = true
		r.live--
	}
}

// front drops cancelled events and returns the first live one.
func (r *refQueue) front() *refEvent {
	for len(r.q) > 0 && r.q[0].dead {
		r.q = r.q[1:]
	}
	if len(r.q) == 0 {
		return nil
	}
	return r.q[0]
}

func (r *refQueue) step() bool {
	ev := r.front()
	if ev == nil {
		return false
	}
	r.q = r.q[1:]
	ev.executed = true
	r.live--
	r.now = ev.at
	r.steps++
	ev.fn()
	return true
}

// queueUnderTest is the surface the order script drives, implemented
// by the engine and by refQueue.
type queueUnderTest interface {
	now() time.Duration
	schedule(delay time.Duration, fn func()) (stop func())
	scheduleAt(at time.Duration, fn func()) (stop func())
	step() bool
	runUntil(deadline time.Duration)
	nextAt() (time.Duration, bool)
	pending() int
	steps() uint64
	scheduled() uint64
}

type refUnderTest struct{ r refQueue }

func (q *refUnderTest) now() time.Duration { return q.r.now }
func (q *refUnderTest) schedule(d time.Duration, fn func()) func() {
	ev := q.r.push(q.r.now+max(d, 0), fn)
	return func() { q.r.stop(ev) }
}
func (q *refUnderTest) scheduleAt(at time.Duration, fn func()) func() {
	ev := q.r.push(max(at, q.r.now), fn)
	return func() { q.r.stop(ev) }
}
func (q *refUnderTest) step() bool { return q.r.step() }
func (q *refUnderTest) runUntil(deadline time.Duration) {
	for ev := q.r.front(); ev != nil && ev.at <= deadline; ev = q.r.front() {
		q.r.step()
	}
	q.r.now = max(q.r.now, deadline)
}
func (q *refUnderTest) nextAt() (time.Duration, bool) {
	if ev := q.r.front(); ev != nil {
		return ev.at, true
	}
	return 0, false
}
func (q *refUnderTest) pending() int      { return q.r.live }
func (q *refUnderTest) steps() uint64     { return q.r.steps }
func (q *refUnderTest) scheduled() uint64 { return q.r.sched }

// engineUnderTest adapts the engine and tallies where each Stop found
// its live target and how often the heap crossed the lane gate.
type engineUnderTest struct {
	e                              *Engine
	stopHead, stopMiddle, stopHeap int
	gateCrossings                  int
	aboveGate                      bool
}

func (q *engineUnderTest) now() time.Duration { return q.e.Now() }
func (q *engineUnderTest) schedule(d time.Duration, fn func()) func() {
	t := q.e.Schedule(d, fn)
	q.noteGate()
	return func() { q.stop(t) }
}
func (q *engineUnderTest) scheduleAt(at time.Duration, fn func()) func() {
	t := q.e.ScheduleAt(at, fn)
	q.noteGate()
	return func() { q.stop(t) }
}
func (q *engineUnderTest) stop(t Timer) {
	if s := q.e.slots[t.slot]; s.gen == t.gen && s.live {
		switch q.where(t.slot) {
		case "heap":
			q.stopHeap++
		case "head":
			q.stopHead++
		default:
			q.stopMiddle++
		}
	}
	t.Stop()
}

// where reports whether slot sits in the heap, at a lane's head, or
// further down a lane.
func (q *engineUnderTest) where(slot int32) string {
	for _, it := range q.e.heap {
		if it.slot == slot {
			return "heap"
		}
	}
	for _, l := range q.e.lanes {
		if l.n > 0 && l.head == slot {
			return "head"
		}
	}
	return "middle"
}

func (q *engineUnderTest) noteGate() {
	if above := len(q.e.heap) >= laneGate; above != q.aboveGate {
		q.aboveGate = above
		q.gateCrossings++
	}
}
func (q *engineUnderTest) step() bool {
	ok := q.e.Step()
	q.noteGate()
	return ok
}
func (q *engineUnderTest) runUntil(deadline time.Duration) {
	q.e.RunUntil(deadline)
	q.noteGate()
}
func (q *engineUnderTest) nextAt() (time.Duration, bool) { return q.e.NextAt() }
func (q *engineUnderTest) pending() int                  { return q.e.Pending() }
func (q *engineUnderTest) steps() uint64                 { return q.e.Steps() }
func (q *engineUnderTest) scheduled() uint64             { return q.e.Scheduled() }

// collidingDelays returns n delays other than d that hash to d's lane.
func collidingDelays(d time.Duration, n int) []time.Duration {
	var out []time.Duration
	for c := d + 1; len(out) < n; c++ {
		if laneIndex(c) == laneIndex(d) {
			out = append(out, c)
		}
	}
	return out
}

// orderScript drives q with a random mix of scheduling, cancelling and
// running, and returns the log of everything observable: which event
// ran when, and the counters and NextAt after every operation. Two
// correct queues return the same log for the same seed.
func orderScript(q queueUnderTest, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	fixed := []time.Duration{100 * time.Microsecond, time.Millisecond, 50 * time.Microsecond, 500 * time.Microsecond, 0}
	fixed = append(fixed, collidingDelays(100*time.Microsecond, 2)...)
	fixed = append(fixed, collidingDelays(time.Millisecond, 2)...)
	for i := 0; i < 8; i++ {
		fixed = append(fixed, time.Duration(1+rng.Intn(100))*50*time.Microsecond)
	}
	var log []string
	var stops []func()
	id := 0
	delay := func() time.Duration {
		switch r := rng.Intn(10); {
		case r < 7:
			return fixed[rng.Intn(len(fixed))]
		case r < 9: // fresh, on a 50 µs grid so instants tie across queues
			return time.Duration(rng.Intn(200)) * 50 * time.Microsecond
		default:
			return time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
		}
	}
	var event func(n int) func()
	schedule := func() {
		n := id
		id++
		switch rng.Intn(8) {
		case 0: // absolute instant, up to 2 ms in the past (clamped)
			at := q.now() + time.Duration(rng.Intn(120)-40)*50*time.Microsecond
			stops = append(stops, q.scheduleAt(at, event(n)))
		case 1:
			stops = append(stops, q.schedule(-time.Duration(rng.Intn(1000)), event(n)))
		default:
			stops = append(stops, q.schedule(delay(), event(n)))
		}
	}
	stopOne := func() {
		if len(stops) > 0 {
			stops[rng.Intn(len(stops))]()
		}
	}
	event = func(n int) func() {
		return func() {
			log = append(log, fmt.Sprintf("run %d at %v", n, q.now()))
			switch r := rng.Intn(10); {
			case r < 3: // nested scheduling
				schedule()
			case r < 4:
				stopOne()
			}
		}
	}
	for phase := 0; phase < 6; phase++ {
		grow := phase%2 == 0
		for op := 0; op < 600; op++ {
			r := rng.Intn(100)
			switch {
			case grow && r < 70, !grow && r < 15:
				schedule()
			case r < 80:
				stopOne()
			case r < 95:
				q.step()
			default:
				q.runUntil(q.now() + time.Duration(rng.Int63n(int64(2*time.Millisecond))))
			}
			at, ok := q.nextAt()
			log = append(log, fmt.Sprintf("op pending=%d steps=%d scheduled=%d now=%v next=%v,%v",
				q.pending(), q.steps(), q.scheduled(), q.now(), at, ok))
		}
	}
	for q.step() {
	}
	log = append(log, fmt.Sprintf("end pending=%d steps=%d scheduled=%d now=%v", q.pending(), q.steps(), q.scheduled(), q.now()))
	return log
}

// TestEngineMatchesReferenceOrder drives the engine and refQueue with
// the same random scripts: fixed delays that fill lanes, delays that
// collide in a lane's hash, fresh delays, clamped ScheduleAt, nested
// scheduling, Stop on lane heads, lane middles and heap entries, and
// RunUntil deadlines between lane heads. Execution order, Pending,
// Steps, Scheduled and NextAt must match exactly.
func TestEngineMatchesReferenceOrder(t *testing.T) {
	var total engineUnderTest
	for seed := int64(1); seed <= 20; seed++ {
		eq := &engineUnderTest{e: New(1)}
		got := orderScript(eq, seed)
		want := orderScript(&refUnderTest{}, seed)
		for i := 0; i < min(len(got), len(want)); i++ {
			if got[i] != want[i] {
				t.Fatalf("seed %d: line %d: engine %q, reference %q", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine logged %d lines, reference %d", seed, len(got), len(want))
		}
		total.stopHead += eq.stopHead
		total.stopMiddle += eq.stopMiddle
		total.stopHeap += eq.stopHeap
		total.gateCrossings += eq.gateCrossings
	}
	t.Logf("Stop hit %d lane heads, %d lane middles, %d heap entries; heap crossed the lane gate %d times",
		total.stopHead, total.stopMiddle, total.stopHeap, total.gateCrossings)
	// The scripts must reach every path they are meant to cover.
	if total.stopHead == 0 || total.stopMiddle == 0 || total.stopHeap == 0 {
		t.Errorf("Stop coverage: %d lane heads, %d lane middles, %d heap entries; want each > 0",
			total.stopHead, total.stopMiddle, total.stopHeap)
	}
	if total.gateCrossings < 2 {
		t.Errorf("heap crossed the lane gate %d times, want both ways", total.gateCrossings)
	}
}

// dirtyEngine leaves e mid-run: events queued in the heap and in lanes,
// timers outstanding, the hooks and the backstop set, random draws
// taken. It returns the outstanding timers.
func dirtyEngine(t *testing.T, e *Engine, seed int64) []Timer {
	rng := rand.New(rand.NewSource(seed))
	var timers []Timer
	for i := 0; i < 3*laneGate; i++ {
		d := time.Duration(rng.Intn(4)) * 100 * time.Microsecond
		if i%3 == 0 {
			d = time.Duration(rng.Int63n(int64(time.Millisecond)))
		}
		timers = append(timers, e.Schedule(d, func() {}))
	}
	e.MaxEvents = laneGate
	e.Strict = true
	e.Rand().Int63()
	e.Run()
	if e.Pending() == 0 || len(e.laneHeap) == 0 {
		t.Fatalf("dirty engine has %d events queued, %d lanes in use; the test covers nothing",
			e.Pending(), len(e.laneHeap))
	}
	e.AfterStep = func() { t.Fatal("AfterStep survived Reset") }
	return timers
}

// TestResetMatchesNew resets an engine left mid-run and requires it to
// behave as New does: the same order-script log, the same random
// stream, and Stop on a timer from before the reset cancelling nothing.
func TestResetMatchesNew(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		e := New(seed + 100)
		dirtyEngine(t, e, seed)
		e.Reset(seed)
		if at, queued := e.NextAt(); queued || e.Now() != 0 || e.Pending() != 0 || e.Steps() != 0 || e.Scheduled() != 0 {
			t.Fatalf("seed %d: reset engine: next=%v,%v now=%v pending=%d steps=%d scheduled=%d",
				seed, at, queued, e.Now(), e.Pending(), e.Steps(), e.Scheduled())
		}
		got := orderScript(&engineUnderTest{e: e}, seed)
		want := orderScript(&engineUnderTest{e: New(seed)}, seed)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: a reset engine's order log differs from a new engine's", seed)
		}

		stale := dirtyEngine(t, e, seed)
		e.Reset(seed)
		fresh := New(seed)
		for i := 0; i < 100; i++ {
			if got, want := e.Rand().Int63(), fresh.Rand().Int63(); got != want {
				t.Fatalf("seed %d: draw %d after Reset = %d, New gives %d", seed, i, got, want)
			}
		}
		// Timers from before the reset name slots the new run reuses.
		ran := 0
		for range stale {
			e.Schedule(time.Millisecond, func() { ran++ })
		}
		for _, tm := range stale {
			tm.Stop()
		}
		e.Run()
		if ran != len(stale) {
			t.Fatalf("seed %d: %d of %d events ran; a stale Timer cancelled a new event", seed, ran, len(stale))
		}
	}
}
