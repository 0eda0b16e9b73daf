// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant are executed in scheduling order
// (FIFO), which makes every run with the same seed fully deterministic —
// a property the protocol property-tests rely on.
//
// The event queue is allocation-free in steady state: event payloads
// live in a pooled slot arena reused through a free list, and the
// queue holds value-typed {at, seq, slot} entries. Schedule, Step, and
// Timer.Stop therefore do zero heap allocations once the arena and the
// queue have grown to the simulation's high-water mark. The engine is
// single-threaded by contract, so the pool needs no locking.
//
// The queue is a 4-ary heap with delay lanes in front of it. A
// simulated network has a handful of fixed delays (a link's latency, a
// resubmission pass, a rule write), and the events pushed with one
// fixed delay are already in (at, seq) order, so a FIFO per delay
// keeps them sorted without a sift. Non-empty lanes are merged through
// a small heap of their head entries, and every pop takes the smaller
// of the heap's and the lanes' minimum. Which queue an event joins is a
// speed choice only: the execution order is (at, seq) either way.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"p4update/internal/trace"
)

// entry is one element of the event queue: a heap element, a lane
// element, or (with slot holding a lane index) a lane-heap element.
// The slot index points into Engine.slots, where the payload lives;
// keeping the queue free of pointers makes sifting cheap and
// allocation-free.
type entry struct {
	at   time.Duration
	seq  uint64
	slot int32
}

func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

const (
	// numLanes is the number of delay lanes; a delay maps to one lane
	// by hash. A burst-k8 trial pushes four hot delays (100 µs links
	// and resubmits, 1 ms installs, 50 µs register writes, 500 µs) and
	// ~65 per-switch control latencies of ~70 events each. 64 lanes
	// hold the hot four apart; 128 read within noise of 64 (alternated
	// 8 s runs, 2-core Xeon: wall_ns_per_event 315–329 vs 328–332 ns)
	// at twice the engine's lane table, and 16 lanes gave up a third
	// of the gain in a prototype.
	numLanes = 1 << laneBits
	laneBits = 6
	// laneGate is the heap size from which pushes may use a lane. Below
	// it a sift is shallow and the lanes buy nothing: gates of 32, 64
	// and 128 read the same on burst-k8, while a gate of 0 put
	// paper-grid's ~40-event trials on the lane path for 0.4 % more
	// allocs_per_update (each engine grows a lane heap) and no speed.
	laneGate = 64
	// laneMaxCredit caps a lane's credit (see lane): the number of
	// foreign pushes it takes to unseat an idle delay.
	laneMaxCredit = 16
)

// lane is a FIFO of events pushed with one delay, linked through their
// slots. For a fixed delay d an event's instant is now+d, now never
// decreases and seq always increases, so a lane is sorted by (at, seq)
// without a sift.
type lane struct {
	head, tail int32 // slots; valid while n > 0
	n          int32
	// credit is a saturating vote for delay: +1 for each push of it,
	// −1 for each push of another delay that hashes here. Another delay
	// claims the lane only once it is empty and the credit is spent, so
	// a delay that recurs keeps its lane against one-off delays and
	// rarer colliding ones.
	credit int32
	delay  time.Duration
}

// laneIndex maps a delay to its lane with the murmur3 finalizer, which
// keeps the round delays of a model (50 µs, 100 µs, 500 µs, 1 ms, …)
// apart where a plain multiplicative hash put 500 µs and 1 ms together.
func laneIndex(d time.Duration) int32 {
	x := uint64(d)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int32(x >> (64 - laneBits))
}

// eventSlot holds a scheduled event's payload. Slots are recycled via
// the engine's free list; gen disambiguates a recycled slot from the
// incarnation an outstanding Timer refers to.
//
// Exactly one queue entry (in the heap or in a lane) references a live
// or cancelled slot at any time: Timer.Stop only marks the slot dead,
// and the slot returns to the free list when its entry is discarded
// (peekLive) or executed (Step). This invariant is what lets queue
// entries omit a generation.
type eventSlot struct {
	fn   func()
	afn  func(any)
	arg  any
	gen  uint32
	live bool
	// next, at and seq link a lane's events (unused in the heap).
	next int32
	at   time.Duration
	seq  uint64
}

// Timer is a handle to a scheduled event that can be cancelled. The
// zero value is a valid no-op timer.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// Stop cancels the timer. It is safe to call on an already-fired or
// already-stopped timer (only the first call takes effect).
func (t Timer) Stop() {
	e := t.eng
	if e == nil {
		return
	}
	s := &e.slots[t.slot]
	if s.gen != t.gen || !s.live {
		return
	}
	s.live = false
	// Drop closure references now; the slot itself is reclaimed when
	// its queue entry surfaces.
	s.fn, s.afn, s.arg = nil, nil, nil
	e.live--
}

// Engine is a single-threaded discrete-event simulator.
//
// The zero value is not usable; construct with New, or Reset an engine
// to reuse its storage for a new run.
type Engine struct {
	now  time.Duration
	heap []entry
	// laneHeap orders the non-empty lanes by their head entries; an
	// element's slot field is the lane's index in lanes.
	laneHeap []entry
	lanes    [numLanes]lane
	slots    []eventSlot
	free     []int32
	seq      uint64
	// rng is seeded from seed on the first Rand call after New or Reset
	// (rngStale): trials that never draw skip seeding math/rand's
	// 607-word state, and a reset engine re-seeds its rng in place.
	rng      *rand.Rand
	rngStale bool
	seed     int64
	nsteps   uint64
	nsched   uint64
	// live counts queued events that are neither cancelled nor executed,
	// so Pending is O(1) instead of a heap scan.
	live int
	// cut records that the last Run or RunUntil stopped on MaxEvents.
	cut bool
	// MaxEvents bounds a run as a runaway-loop backstop (0 = unlimited).
	MaxEvents uint64
	// Strict makes scheduling into the past a panic instead of silently
	// clamping to now, so protocol bugs surface in tests.
	Strict bool
	// AfterStep, when set, runs after every executed event. It is the
	// observation hook of the continuous invariant auditor
	// (internal/audit): it must only read simulation state, never
	// schedule events or draw from the engine's random streams, so an
	// audited run stays step-for-step identical to an unaudited one.
	AfterStep func()
	// Trace is the trial's flight recorder (nil = tracing off). The
	// engine is its carrier, not a user: every protocol layer reaches
	// the recorder through its engine pointer, paying one nil check per
	// instrumentation site. Like AfterStep, recording is pure
	// observation, so a traced run is step-for-step identical to an
	// untraced one.
	Trace *trace.Recorder
}

// New returns an engine whose random streams are derived from seed.
func New(seed int64) *Engine {
	e := &Engine{}
	e.Reset(seed)
	return e
}

// Reset returns the engine to the state New(seed) builds while keeping
// its storage, so a harness running many short simulations allocates
// the queue once. Every queued event is dropped and every slot's
// generation bumped, so a Timer from before the reset is a no-op; the
// slot arena, the heap and the lane heap keep their capacity, and the
// freed slots are handed out in the order a new engine appends them.
// The random source is re-seeded in place on the next Rand call, which
// yields the stream of rand.New(rand.NewSource(seed)). MaxEvents,
// Strict, AfterStep and Trace are cleared.
func (e *Engine) Reset(seed int64) {
	e.free = e.free[:0]
	for i := len(e.slots) - 1; i >= 0; i-- {
		s := &e.slots[i]
		s.fn, s.afn, s.arg = nil, nil, nil
		s.gen++
		e.free = append(e.free, int32(i))
	}
	e.now = 0
	e.heap = e.heap[:0]
	e.laneHeap = e.laneHeap[:0]
	e.lanes = [numLanes]lane{}
	e.seq, e.nsteps, e.nsched, e.live = 0, 0, 0, 0
	e.cut = false
	e.seed, e.rngStale = seed, true
	e.MaxEvents, e.Strict = 0, false
	e.AfterStep, e.Trace = nil, nil
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand exposes the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand {
	if e.rngStale {
		if e.rng == nil {
			e.rng = rand.New(rand.NewSource(e.seed))
		} else {
			e.rng.Seed(e.seed)
		}
		e.rngStale = false
	}
	return e.rng
}

// Steps reports how many events have been executed so far.
func (e *Engine) Steps() uint64 { return e.nsteps }

// Scheduled reports how many events have been scheduled so far,
// including cancelled ones.
func (e *Engine) Scheduled() uint64 { return e.nsched }

// Schedule runs fn after delay of virtual time. A negative delay is
// treated as zero. The returned Timer may be used to cancel the event.
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	if delay < 0 {
		delay = 0
	}
	return e.push(e.now+delay, fn, nil, nil)
}

// ScheduleArg runs fn(arg) after delay of virtual time. It exists so
// hot paths can schedule a long-lived method value plus a pooled
// argument instead of allocating a fresh closure per event.
func (e *Engine) ScheduleArg(delay time.Duration, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: ScheduleArg with nil fn")
	}
	if delay < 0 {
		delay = 0
	}
	return e.push(e.now+delay, nil, fn, arg)
}

// ScheduleAt runs fn at absolute virtual instant at. A past instant is
// clamped to now, unless Strict is set, in which case it panics.
func (e *Engine) ScheduleAt(at time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	if at < e.now {
		e.mustNotRegress(at)
		at = e.now
	}
	return e.push(at, fn, nil, nil)
}

// ScheduleAtArg runs fn(arg) at absolute virtual instant at, with
// ScheduleAt's clamping and Strict rules: the absolute-time form of
// ScheduleArg, so a timer on a known instant needs no closure either.
func (e *Engine) ScheduleAtArg(at time.Duration, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: ScheduleAtArg with nil fn")
	}
	if at < e.now {
		e.mustNotRegress(at)
		at = e.now
	}
	return e.push(at, nil, fn, arg)
}

// mustNotRegress flags an attempt to schedule into the past. Under
// Strict it panics; otherwise the caller clamps to now, preserving the
// engine's historical lenient behaviour.
func (e *Engine) mustNotRegress(at time.Duration) {
	if e.Strict {
		panic(fmt.Sprintf("sim: ScheduleAt into the past: %v < now %v", at, e.now))
	}
}

// push allocates a slot (reusing the free list), stores the payload,
// and queues an entry: in the lane of its delay at-now when one takes
// it, else in the heap. Exactly one of fn/afn is non-nil.
func (e *Engine) push(at time.Duration, fn func(), afn func(any), arg any) Timer {
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, eventSlot{})
		slot = int32(len(e.slots) - 1)
	}
	s := &e.slots[slot]
	s.fn, s.afn, s.arg = fn, afn, arg
	s.live = true
	it := entry{at: at, seq: e.seq, slot: slot}
	if len(e.heap) < laneGate || !e.lanePush(at-e.now, it) {
		e.heap = heapPush(e.heap, it)
	}
	e.seq++
	e.nsched++
	e.live++
	return Timer{eng: e, slot: slot, gen: s.gen}
}

// lanePush appends it to the lane for delay d and reports whether the
// lane took it. A lane holds one delay at a time, which keeps it sorted.
func (e *Engine) lanePush(d time.Duration, it entry) bool {
	li := laneIndex(d)
	l := &e.lanes[li]
	if l.delay != d {
		if l.credit > 0 {
			l.credit--
			return false
		}
		if l.n > 0 {
			return false
		}
		l.delay = d
	}
	if l.credit < laneMaxCredit {
		l.credit++
	}
	if l.n == 0 {
		l.head = it.slot
		e.laneHeap = heapPush(e.laneHeap, entry{at: it.at, seq: it.seq, slot: li})
	} else {
		e.slots[l.tail].next = it.slot
	}
	l.tail = it.slot
	l.n++
	s := &e.slots[it.slot]
	s.at, s.seq = it.at, it.seq
	return true
}

// freeSlot returns a slot to the free list, bumping its generation so
// stale Timers become no-ops.
func (e *Engine) freeSlot(slot int32) {
	s := &e.slots[slot]
	s.fn, s.afn, s.arg = nil, nil, nil
	s.live = false
	s.gen++
	e.free = append(e.free, slot)
}

// peekLive discards cancelled events at the front of the queue (freeing
// their slots) and returns the first live one, with whether it heads a
// lane (else the heap). This is the single place dead events are
// skipped; Step, RunUntil and NextAt all go through it, so the
// MaxEvents backstop and the skip logic cannot diverge.
func (e *Engine) peekLive() (head entry, inLane, ok bool) {
	for {
		switch {
		case len(e.laneHeap) > 0 && (len(e.heap) == 0 || entryLess(e.laneHeap[0], e.heap[0])):
			top := e.laneHeap[0]
			head, inLane = entry{at: top.at, seq: top.seq, slot: e.lanes[top.slot].head}, true
		case len(e.heap) > 0:
			head, inLane = e.heap[0], false
		default:
			return entry{}, false, false
		}
		if e.slots[head.slot].live {
			return head, inLane, true
		}
		e.pop(inLane)
		e.freeSlot(head.slot)
	}
}

// pop removes the front entry peekLive returned.
func (e *Engine) pop(inLane bool) {
	if inLane {
		e.lanePop()
	} else {
		e.heap = heapPop(e.heap)
	}
}

// lanePop removes the head of the lane at the top of the lane heap.
func (e *Engine) lanePop() {
	li := e.laneHeap[0].slot
	l := &e.lanes[li]
	l.n--
	if l.n == 0 {
		e.laneHeap = heapPop(e.laneHeap)
		return
	}
	l.head = e.slots[l.head].next
	next := &e.slots[l.head]
	siftDown(e.laneHeap, entry{at: next.at, seq: next.seq, slot: li})
}

// Step executes the next pending event. It reports whether an event ran.
func (e *Engine) Step() bool {
	head, inLane, ok := e.peekLive()
	if !ok {
		return false
	}
	e.pop(inLane)
	if head.at < e.now {
		panic(fmt.Sprintf("sim: time ran backwards: %v < %v", head.at, e.now))
	}
	s := &e.slots[head.slot]
	fn, afn, arg := s.fn, s.afn, s.arg
	// Reclaim the slot before running so a late Timer.Stop is a no-op
	// and the slot is immediately reusable by events fn schedules.
	e.live--
	e.freeSlot(head.slot)
	e.now = head.at
	e.nsteps++
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
	if e.AfterStep != nil {
		e.AfterStep()
	}
	return true
}

// Run executes events until the queue drains or MaxEvents is hit.
// It returns the virtual time at which the simulation quiesced.
func (e *Engine) Run() time.Duration {
	for !e.capped() && e.Step() {
	}
	e.cut = e.live > 0
	return e.now
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// later stay queued; the clock is advanced to deadline if it quiesced
// early. When MaxEvents stops it with events due by deadline still
// queued, the clock stays at the last executed event, so the queue
// never holds an event in the past.
func (e *Engine) RunUntil(deadline time.Duration) time.Duration {
	for {
		head, _, ok := e.peekLive()
		if !ok || head.at > deadline {
			break
		}
		if e.capped() {
			e.cut = true
			return e.now
		}
		e.Step()
	}
	e.cut = false
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// capped reports whether the MaxEvents backstop has been reached.
func (e *Engine) capped() bool { return e.MaxEvents > 0 && e.nsteps >= e.MaxEvents }

// CutShort reports whether the last Run or RunUntil stopped on the
// MaxEvents backstop with events still due, rather than by quiescing or
// reaching its deadline. A backstop that fires is a runaway run.
func (e *Engine) CutShort() bool { return e.cut }

// NextAt reports the timestamp of the next live queued event, if any.
// It lets a real-time host (cmd/controllerd, cmd/switchd) sleep exactly
// until the next virtual deadline instead of polling.
func (e *Engine) NextAt() (time.Duration, bool) {
	head, _, ok := e.peekLive()
	return head.at, ok
}

// Pending reports the number of live queued events (cancelled timers
// excluded). It is O(1): the count is maintained incrementally by
// Schedule, Step, and Timer.Stop.
func (e *Engine) Pending() int { return e.live }

// heapPush inserts it into the 4-ary min-heap h.
func heapPush(h []entry, it entry) []entry {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// heapPop removes the minimum entry from the non-empty 4-ary min-heap h.
func heapPop(h []entry) []entry {
	n := len(h) - 1
	siftDown(h[:n], h[n])
	return h[:n]
}

// siftDown replaces the minimum of the 4-ary min-heap h with it and
// restores the heap property; on an empty h it does nothing.
func siftDown(h []entry, it entry) {
	n := len(h)
	if n == 0 {
		return
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			if entryLess(h[c], h[best]) {
				best = c
			}
		}
		if !entryLess(h[best], it) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = it
}
