package sim

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	end := e.Run()
	if end != 30*time.Millisecond {
		t.Fatalf("end time = %v, want 30ms", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", got)
	}
}

func TestFIFOWithinSameInstant(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d ran out of order (got %d)", i, v)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	var at []time.Duration
	e.Schedule(time.Millisecond, func() {
		at = append(at, e.Now())
		e.Schedule(2*time.Millisecond, func() {
			at = append(at, e.Now())
		})
	})
	e.Run()
	if len(at) != 2 || at[0] != time.Millisecond || at[1] != 3*time.Millisecond {
		t.Fatalf("timestamps = %v", at)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New(1)
	ran := false
	e.Schedule(5*time.Millisecond, func() {
		e.Schedule(-time.Second, func() { ran = true })
	})
	e.Run()
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("clock = %v, want 5ms", e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := New(1)
	ran := false
	tm := e.Schedule(time.Millisecond, func() { ran = true })
	tm.Stop()
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	var got []int
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(30*time.Millisecond, func() { got = append(got, 2) })
	e.RunUntil(20 * time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("ran %d events, want 1", len(got))
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("clock = %v, want 20ms", e.Now())
	}
	e.Run()
	if len(got) != 2 {
		t.Fatalf("ran %d events after Run, want 2", len(got))
	}
}

func TestMaxEventsBackstop(t *testing.T) {
	e := New(1)
	e.MaxEvents = 50
	var loop func()
	n := 0
	loop = func() {
		n++
		e.Schedule(time.Millisecond, loop)
	}
	e.Schedule(0, loop)
	e.Run()
	if n != 50 {
		t.Fatalf("executed %d events, want 50", n)
	}
	if !e.CutShort() {
		t.Fatal("a run stopped by the backstop does not report it")
	}
}

// TestCutShort: CutShort is true only after a Run or RunUntil that the
// MaxEvents backstop stopped with events still due — not after one that
// drained the queue on exactly the cap, nor after one that reached its
// deadline with later events queued, nor after Reset.
func TestCutShort(t *testing.T) {
	e := New(1)
	e.MaxEvents = 2
	e.Schedule(time.Millisecond, func() {})
	e.Schedule(2*time.Millisecond, func() {})
	e.Run()
	if e.CutShort() {
		t.Error("a run that drained on exactly the cap reports cut short")
	}
	e.MaxEvents = 3
	e.Schedule(time.Millisecond, func() {})
	e.Schedule(time.Second, func() {})
	if e.RunUntil(10 * time.Millisecond); e.CutShort() {
		t.Error("a RunUntil that reached its deadline reports cut short")
	}
	if e.RunUntil(2 * time.Second); !e.CutShort() {
		t.Error("a RunUntil stopped with an event due does not report cut short")
	}
	e.Reset(1)
	if e.CutShort() {
		t.Error("Reset keeps the cut-short mark")
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		e := New(seed)
		var trace []time.Duration
		for i := 0; i < 20; i++ {
			e.Schedule(time.Duration(e.Rand().Intn(100))*time.Millisecond, func() {
				trace = append(trace, e.Now())
				if e.Rand().Intn(2) == 0 {
					e.Schedule(time.Duration(e.Rand().Intn(10))*time.Millisecond, func() {
						trace = append(trace, e.Now())
					})
				}
			})
		}
		e.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New(7)
		last := time.Duration(-1)
		ok := true
		for _, d := range delays {
			e.Schedule(time.Duration(d)*time.Microsecond, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleAt(t *testing.T) {
	e := New(1)
	var at time.Duration
	e.Schedule(10*time.Millisecond, func() {
		e.ScheduleAt(5*time.Millisecond, func() { at = e.Now() }) // in the past: clamps
	})
	e.Run()
	if at != 10*time.Millisecond {
		t.Fatalf("past ScheduleAt ran at %v, want clamped to 10ms", at)
	}
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil fn")
		}
	}()
	New(1).Schedule(0, nil)
}

// TestRunUntilCancelledAtDeadline is a regression test for the old
// RunUntil, which popped dead head events in its own loop, bypassing
// the unified skip logic. Cancelled timers sitting exactly at and
// around the deadline must be discarded without executing, and live
// events past the deadline must stay queued.
func TestRunUntilCancelledAtDeadline(t *testing.T) {
	e := New(1)
	var got []int
	t1 := e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(15*time.Millisecond, func() { got = append(got, 2) })
	t3 := e.Schedule(20*time.Millisecond, func() { got = append(got, 3) }) // at the deadline
	t4 := e.Schedule(25*time.Millisecond, func() { got = append(got, 4) }) // past it
	e.Schedule(30*time.Millisecond, func() { got = append(got, 5) })
	t1.Stop()
	t3.Stop()
	t4.Stop()
	e.RunUntil(20 * time.Millisecond)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("ran %v, want [2]", got)
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("clock = %v, want 20ms", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if len(got) != 2 || got[1] != 5 {
		t.Fatalf("after Run got %v, want [2 5]", got)
	}
}

// TestRunUntilMaxEventsWithDeadHeads verifies the MaxEvents backstop is
// honoured even when cancelled events pepper the queue (the old code
// popped dead heads outside the backstop check).
func TestRunUntilMaxEventsWithDeadHeads(t *testing.T) {
	e := New(1)
	e.MaxEvents = 3
	n := 0
	for i := 0; i < 10; i++ {
		tm := e.Schedule(time.Duration(2*i)*time.Millisecond, func() { n++ })
		e.Schedule(time.Duration(2*i+1)*time.Millisecond, func() { n++ })
		tm.Stop()
	}
	e.RunUntil(time.Second)
	if n != 3 {
		t.Fatalf("executed %d events, want 3 (MaxEvents)", n)
	}
}

func TestStrictScheduleAtPanics(t *testing.T) {
	e := New(1)
	e.Strict = true
	var recovered any
	e.Schedule(10*time.Millisecond, func() {
		defer func() { recovered = recover() }()
		e.ScheduleAt(5*time.Millisecond, func() {})
	})
	e.Run()
	if recovered == nil {
		t.Fatal("Strict ScheduleAt into the past did not panic")
	}
	// Non-strict engines must keep the historical clamping behaviour.
	e2 := New(1)
	ran := false
	e2.Schedule(10*time.Millisecond, func() {
		e2.ScheduleAt(5*time.Millisecond, func() { ran = true })
	})
	e2.Run()
	if !ran {
		t.Fatal("lenient ScheduleAt did not clamp and run")
	}
}

// TestFIFOSurvivesSlotReuse drives schedule/cancel/reschedule churn so
// pooled slots are recycled mid-instant, then asserts same-instant FIFO
// order still follows scheduling order, not slot order.
func TestFIFOSurvivesSlotReuse(t *testing.T) {
	e := New(1)
	var got []int
	// Interleave doomed timers with live ones so the free list hands
	// out low-numbered slots to late schedules.
	var doomed []Timer
	for i := 0; i < 50; i++ {
		doomed = append(doomed, e.Schedule(5*time.Millisecond, func() { t.Fatal("cancelled event ran") }))
	}
	for _, tm := range doomed {
		tm.Stop()
	}
	for i := 0; i < 50; i++ {
		i := i
		e.Schedule(5*time.Millisecond, func() { got = append(got, i) })
		// Churn: schedule and immediately cancel between live events.
		e.Schedule(5*time.Millisecond, func() { t.Fatal("cancelled event ran") }).Stop()
	}
	// Second wave at the same instant, scheduled from inside an event.
	e.Schedule(time.Millisecond, func() {
		for i := 50; i < 100; i++ {
			i := i
			e.Schedule(4*time.Millisecond, func() { got = append(got, i) })
		}
	})
	e.Run()
	if len(got) != 100 {
		t.Fatalf("ran %d events, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d ran out of order (got %d)", i, v)
		}
	}
}

func TestScheduleArg(t *testing.T) {
	e := New(1)
	var got []int
	fn := func(a any) { got = append(got, *a.(*int)) }
	x, y := 1, 2
	e.Schedule(10*time.Millisecond, func() { got = append(got, 3) })
	e.ScheduleArg(time.Millisecond, fn, &x)
	tm := e.ScheduleArg(2*time.Millisecond, fn, &y)
	tm.Stop()
	e.ScheduleArg(5*time.Millisecond, fn, &y)
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

func TestScheduleAtArg(t *testing.T) {
	e := New(1)
	var got []time.Duration
	fn := func(a any) { got = append(got, a.(time.Duration), e.Now()) }
	e.Schedule(10*time.Millisecond, func() {
		e.ScheduleAtArg(5*time.Millisecond, fn, time.Duration(1))  // in the past: clamps
		e.ScheduleAtArg(12*time.Millisecond, fn, time.Duration(2)) // absolute, not now+12ms
	})
	e.Run()
	want := []time.Duration{1, 10 * time.Millisecond, 2, 12 * time.Millisecond}
	if !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	e.Strict = true
	defer func() {
		if recover() == nil {
			t.Fatal("Strict ScheduleAtArg into the past did not panic")
		}
	}()
	e.ScheduleAtArg(time.Millisecond, fn, nil)
}

// TestMaxEventsStopLeavesClockAtLastEvent: when the MaxEvents backstop
// stops RunUntil with events due before its deadline still queued, the
// clock stays at the last executed event; an engine at its cap runs
// nothing more; and lifting the cap resumes exactly where the run
// stopped. Advancing the clock to the deadline made the next Run panic
// "time ran backwards" on the first queued event.
func TestMaxEventsStopLeavesClockAtLastEvent(t *testing.T) {
	e := New(1)
	e.MaxEvents = 64
	n := 0
	var tick func()
	tick = func() {
		n++
		e.Schedule(time.Microsecond, tick)
	}
	e.Schedule(0, tick)
	if now := e.RunUntil(250 * time.Microsecond); now != 63*time.Microsecond || n != 64 {
		t.Fatalf("RunUntil under the cap: now %v after %d events, want 63µs after 64", now, n)
	}
	if now := e.Run(); now != 63*time.Microsecond || n != 64 {
		t.Fatalf("Run at the cap: now %v after %d events, want 63µs after 64", now, n)
	}
	e.MaxEvents = 0
	if now := e.RunUntil(250 * time.Microsecond); now != 250*time.Microsecond || n != 251 {
		t.Fatalf("RunUntil without the cap: now %v after %d events, want 250µs after 251", now, n)
	}
}

func TestScheduledCounter(t *testing.T) {
	e := New(1)
	tm := e.Schedule(time.Millisecond, func() {})
	e.Schedule(2*time.Millisecond, func() {})
	tm.Stop()
	e.Run()
	if got := e.Scheduled(); got != 2 {
		t.Fatalf("Scheduled = %d, want 2 (cancelled events count)", got)
	}
	if got := e.Steps(); got != 1 {
		t.Fatalf("Steps = %d, want 1", got)
	}
}

func TestPendingTracksCancelledTimers(t *testing.T) {
	e := New(1)
	t1 := e.Schedule(10*time.Millisecond, func() {})
	t2 := e.Schedule(20*time.Millisecond, func() {})
	e.Schedule(30*time.Millisecond, func() {})
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	t1.Stop()
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending after Stop = %d, want 2", got)
	}
	t1.Stop() // double-Stop must not double-count
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending after double Stop = %d, want 2", got)
	}
	if !e.Step() { // runs the 20ms event (10ms one is cancelled)
		t.Fatal("Step found no live event")
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("cancelled event executed: now = %v", e.Now())
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending after Step = %d, want 1", got)
	}
	t2.Stop() // stopping an already-fired timer is a no-op
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending after firing-then-Stop = %d, want 1", got)
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after Run = %d, want 0", got)
	}
	e.Schedule(time.Millisecond, func() {})
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending after re-Schedule = %d, want 1", got)
	}
}

// TestSteadyStateZeroAllocs makes the engine's zero-allocation claim a
// test on both queue paths: a warm engine holding burst-k8's depth and
// delay mix (most events in delay lanes), and one kept below the lane
// gate (every event in the heap).
func TestSteadyStateZeroAllocs(t *testing.T) {
	fn := func() {}
	delays := burstMix(1 << 12)
	for _, tc := range []struct {
		name    string
		pending int
		inLanes bool
	}{
		{"lanes", 2400, true},
		{"heap", laneGate / 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(1)
			for i := 0; i < tc.pending; i++ {
				e.Schedule(delays[i], fn)
			}
			i := 0
			cycle := func() {
				e.Step()
				e.Schedule(delays[i&(len(delays)-1)], fn)
				i++
			}
			for j := 0; j < 1<<15; j++ {
				cycle()
			}
			if allocs := testing.AllocsPerRun(10000, cycle); allocs != 0 {
				t.Errorf("Step+Schedule allocates %.2f/op, want 0", allocs)
			}
			if got := len(e.laneHeap) > 0; got != tc.inLanes {
				t.Errorf("lanes in use = %v, want %v", got, tc.inLanes)
			}
		})
	}
}
