package soak

import (
	"time"

	"p4update/internal/audit"
	"p4update/internal/faults"
)

// SLO accumulates the operator-grade service accounting for one trial:
//
//   - availability: the fraction of audited virtual time with zero
//     blackholes — each inter-sweep interval is charged unavailable when
//     its closing sweep records a new blackhole;
//   - per-episode recovery time: episode start → first post-episode
//     clean sweep (every invariant holding);
//   - retrigger budget burn: each update's §11 retrigger count is
//     charged to the latest storm episode overlapping its in-flight
//     window, or to ambient chaos when none does.
//
// The tracker is pure bookkeeping — it never touches the engine, so an
// attached tracker leaves the event sequence untouched.
type SLO struct {
	episodes []faults.Episode

	sweeps, dirtySweeps  uint64
	lastSweep            time.Duration
	audited, unavailable time.Duration

	blackholes, loops, overCap, regress uint64

	recovery    []time.Duration // per episode; -1 until recovered
	epDone      []uint64        // updates charged per episode
	epRetrig    []uint64
	totalRetrig uint64
}

func newSLO(eps []faults.Episode) *SLO {
	s := &SLO{episodes: eps}
	s.recovery = make([]time.Duration, len(eps))
	for i := range s.recovery {
		s.recovery[i] = -1
	}
	s.epDone = make([]uint64, len(eps))
	s.epRetrig = make([]uint64, len(eps))
	return s
}

// onSweep consumes one per-sweep delta from the auditor (the
// audit.Auditor.OnSweep seam).
func (s *SLO) onSweep(st audit.SweepStats) {
	dt := st.Time - s.lastSweep
	s.lastSweep = st.Time
	s.sweeps++
	s.audited += dt
	s.blackholes += st.Blackholes
	s.loops += st.Loops
	s.overCap += st.OverCapacity
	s.regress += st.VersionRegressions
	if st.Blackholes > 0 {
		s.unavailable += dt
	}
	if st.Total() > 0 {
		s.dirtySweeps++
		return
	}
	// A clean sweep recovers every episode that has already ended.
	for i := range s.episodes {
		if s.recovery[i] < 0 && s.episodes[i].End <= st.Time {
			s.recovery[i] = st.Time - s.episodes[i].Start
		}
	}
}

// chargeUpdate attributes one update's retrigger burn: the update was
// in flight over [sent, until] and retriggered `retriggers` times.
// Episodes are sorted by start, so the scan can stop at the first
// episode starting after the window; the latest overlapping episode
// wins the attribution (it is the one the operator was fighting when
// the update finally landed). An update that overlaps no episode counts
// in the total only.
func (s *SLO) chargeUpdate(sent, until time.Duration, retriggers int) {
	s.totalRetrig += uint64(retriggers)
	idx := -1
	for i := range s.episodes {
		ep := &s.episodes[i]
		if ep.Start > until {
			break
		}
		if ep.End > sent {
			idx = i
		}
	}
	if idx >= 0 {
		s.epDone[idx]++
		s.epRetrig[idx] += uint64(retriggers)
	}
}

// violationTotal sums the violations the tracker has seen.
func (s *SLO) violationTotal() uint64 {
	return s.blackholes + s.loops + s.overCap + s.regress
}

// availabilityPct computes the headline availability (100% when nothing
// was audited — no evidence of unavailability).
func (s *SLO) availabilityPct() float64 {
	if s.audited <= 0 {
		return 100
	}
	return 100 * (1 - float64(s.unavailable)/float64(s.audited))
}
