// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant are executed in scheduling order
// (FIFO), which makes every run with the same seed fully deterministic —
// a property the protocol property-tests rely on.
//
// The event queue is allocation-free in steady state: event payloads
// live in a pooled slot arena reused through a free list, and the
// priority queue is a value-typed 4-ary heap of {at, seq, slot}
// entries. Schedule, Step, and Timer.Stop therefore do zero heap
// allocations once the arena has grown to the simulation's high-water
// mark. The engine is single-threaded by contract, so the pool needs no
// locking.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"p4update/internal/trace"
)

// entry is one element of the value-typed 4-ary event heap. The slot
// index points into Engine.slots, where the payload lives; keeping the
// heap free of pointers makes sifting cheap and allocation-free.
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

// eventSlot holds a scheduled event's payload. Slots are recycled via
// the engine's free list; gen disambiguates a recycled slot from the
// incarnation an outstanding Timer refers to.
//
// Exactly one heap entry references a live or cancelled slot at any
// time: Timer.Stop only marks the slot dead, and the slot returns to
// the free list when its heap entry is discarded (peekLive) or executed
// (Step). This invariant is what lets heap entries omit a generation.
type eventSlot struct {
	fn   func()
	afn  func(any)
	arg  any
	gen  uint32
	live bool
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
	// its heap entry surfaces.
	s.fn, s.afn, s.arg = nil, nil, nil
	e.live--
}

// Engine is a single-threaded discrete-event simulator.
//
// The zero value is not usable; construct with New.
type Engine struct {
	now    time.Duration
	heap   []entry
	slots  []eventSlot
	free   []int32
	seq    uint64
	rng    *rand.Rand
	nsteps uint64
	nsched uint64
	// live counts queued events that are neither cancelled nor executed,
	// so Pending is O(1) instead of a heap scan.
	live int
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
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand exposes the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

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

// mustNotRegress flags an attempt to schedule into the past. Under
// Strict it panics; otherwise the caller clamps to now, preserving the
// engine's historical lenient behaviour.
func (e *Engine) mustNotRegress(at time.Duration) {
	if e.Strict {
		panic(fmt.Sprintf("sim: ScheduleAt into the past: %v < now %v", at, e.now))
	}
}

// push allocates a slot (reusing the free list), stores the payload,
// and inserts a heap entry. Exactly one of fn/afn is non-nil.
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
	e.heapPush(entry{at: at, seq: e.seq, slot: slot})
	e.seq++
	e.nsched++
	e.live++
	return Timer{eng: e, slot: slot, gen: s.gen}
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

// peekLive discards cancelled events at the head of the heap (freeing
// their slots) and reports whether a live event remains. This is the
// single place dead events are skipped; Step and RunUntil both go
// through it, so the MaxEvents backstop and the skip logic cannot
// diverge.
func (e *Engine) peekLive() bool {
	for len(e.heap) > 0 {
		slot := e.heap[0].slot
		if e.slots[slot].live {
			return true
		}
		e.heapPop()
		e.freeSlot(slot)
	}
	return false
}

// Step executes the next pending event. It reports whether an event ran.
func (e *Engine) Step() bool {
	if !e.peekLive() {
		return false
	}
	head := e.heap[0]
	e.heapPop()
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
	for e.Step() {
		if e.MaxEvents > 0 && e.nsteps >= e.MaxEvents {
			break
		}
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// later stay queued; the clock is advanced to deadline if it quiesced early.
func (e *Engine) RunUntil(deadline time.Duration) time.Duration {
	for e.peekLive() {
		if e.heap[0].at > deadline {
			break
		}
		e.Step()
		if e.MaxEvents > 0 && e.nsteps >= e.MaxEvents {
			break
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// NextAt reports the timestamp of the next live queued event, if any.
// It lets a real-time host (cmd/controllerd, cmd/switchd) sleep exactly
// until the next virtual deadline instead of polling.
func (e *Engine) NextAt() (time.Duration, bool) {
	if !e.peekLive() {
		return 0, false
	}
	return e.heap[0].at, true
}

// Pending reports the number of live queued events (cancelled timers
// excluded). It is O(1): the count is maintained incrementally by
// Schedule, Step, and Timer.Stop.
func (e *Engine) Pending() int { return e.live }

// heapPush inserts it into the 4-ary min-heap.
func (e *Engine) heapPush(it entry) {
	e.heap = append(e.heap, it)
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(e.heap[i], e.heap[p]) {
			break
		}
		e.heap[i], e.heap[p] = e.heap[p], e.heap[i]
		i = p
	}
}

// heapPop removes the minimum entry from the 4-ary min-heap.
func (e *Engine) heapPop() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if entryLess(e.heap[c], e.heap[best]) {
				best = c
			}
		}
		if !entryLess(e.heap[best], e.heap[i]) {
			break
		}
		e.heap[i], e.heap[best] = e.heap[best], e.heap[i]
		i = best
	}
}
