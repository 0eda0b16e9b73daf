// Package soak composes the streaming churn workload with the
// deterministic chaos harness into a long-running "fabric operator"
// scenario: Poisson flow arrivals and departures with continuous
// reroute waves, sustained while a compiled storm (faults.BuildStorm)
// fires recurring loss/reorder/corrupt bursts, switch crash/restore
// cycles, and controller partition windows, and while the invariant
// auditor sweeps at tight intervals.
//
// The harness is the fault-aware superset of the churn experiment's
// driver: with no injector attached it schedules the identical
// event sequence (the churn experiment delegates here and stays
// byte-identical), and with one attached it adds the operator behaviors
// that make faults and churn compose — teardown of a flow whose path
// crosses a crashed switch is re-deferred until the fabric heals,
// reroute trigger waves are postponed past controller partition windows
// instead of burning retrigger budget into a black hole, and every
// update's §11 retrigger burn is attributed to the storm episode that
// overlapped it. SLO accounting (availability, completion quantiles,
// per-episode recovery time) accumulates in an SLO tracker fed by the
// auditor's per-sweep deltas and is rendered as a JSON operator Report.
package soak

import (
	"fmt"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/faults"
	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/traffic"
	"p4update/internal/wiring"
)

// Options tunes one soak (or plain churn) trial.
type Options struct {
	// ArrivalRate is the flow arrival rate (flows per second of virtual
	// time); MeanLifetime the mean exponential flow lifetime. The
	// steady-state live population approaches ArrivalRate*MeanLifetime.
	ArrivalRate  float64
	MeanLifetime time.Duration
	// Duration is the admission window; the trial then drains for Drain
	// extra virtual time so in-flight updates and departures settle.
	Duration time.Duration
	Drain    time.Duration
	// RerouteEvery is the mean interval between link perturbations
	// (0 disables reroutes — pure arrival/departure churn).
	RerouteEvery time.Duration
	// EdgeOnly restricts flow endpoints to the topology's degree-minimal
	// edge layer (fat-tree edge switches).
	EdgeOnly bool
	// RetireGrace delays data-plane teardown of a departed flow after
	// its last update completes, letting stale cleanup frames drain
	// before the flow's slot is recycled. It is also the re-check period
	// for teardown deferred across a switch outage.
	RetireGrace time.Duration

	// Episodes is the storm timeline (faults.BuildStorm) used for SLO
	// attribution: retrigger burn is charged to the latest overlapping
	// episode and recovery time is measured per episode. Nil for pure
	// churn.
	Episodes []faults.Episode
	// MaxRetriggers is the per-update §11 recovery budget the wired
	// controller runs with; the report expresses retrigger burn as a
	// fraction of it.
	MaxRetriggers int
}

// Counters is the harness's event bookkeeping, exported for metric maps.
type Counters struct {
	Arrivals, Departures, Retired uint64
	Waves, Triggered, Completed   uint64
	SkippedBusy, SkippedSame      uint64
	TriggerErrs                   uint64
	// WavesDeferred counts reroute trigger scans postponed past a
	// controller partition window; RetireDeferrals counts teardown
	// re-deferrals because a switch on the flow's path was down.
	WavesDeferred   uint64
	RetireDeferrals uint64
	// ProbeRetries totals the budget-free confirmation re-probes of
	// fully applied updates (controlplane.UpdateStatus.ProbeRetries).
	ProbeRetries uint64
	PeakLive     int
}

// soakFlow is the harness's view of one live flow.
type soakFlow struct {
	id       packet.FlowID
	src, dst topo.NodeID
	updating bool
	departed bool
	path     []topo.NodeID

	// hops is the flow's place in the link index, one slot per hop of
	// path; it aliases inline unless path has more than inlineHops hops.
	hops   []hopSlot
	inline [inlineHops]hopSlot
}

// Harness drives one trial: it owns the live-flow table and the
// link→flows index, and schedules every arrival, departure, and reroute
// wave as events on the trial's own engine, so the trial stays
// byte-identical across runner worker counts.
type Harness struct {
	sys *wiring.System
	g   *topo.Topology
	w   *traffic.ChurnWorkload
	opt Options

	live      map[packet.FlowID]*soakFlow
	linkFlows linkIndex
	samples   []time.Duration
	inflight  map[packet.FlowID]*controlplane.UpdateStatus

	c   Counters
	slo *SLO

	scratch []*soakFlow // wave worklist sorted by FlowID, reused
}

// NewWorkload builds the seeded churn workload for one trial under opt.
func NewWorkload(g *topo.Topology, seed int64, opt Options) (*traffic.ChurnWorkload, error) {
	cand := g.Nodes()
	if opt.EdgeOnly {
		cand = topo.EdgeSwitches(g)
	}
	return traffic.NewChurnWorkload(g, seed, traffic.ChurnConfig{
		ArrivalRate:  opt.ArrivalRate,
		MeanLifetime: opt.MeanLifetime,
		Duration:     opt.Duration,
		RerouteEvery: opt.RerouteEvery,
		// Jitter is applied by the caller before wiring (control
		// latencies derive from link latencies); never here.
		LatencyJitter: 0,
		Candidates:    cand,
	})
}

// NewHarness wires a harness onto an already built system. It chains
// onto the controller's OnComplete hook (coordinators like ez-Segway
// wrap it at build time) and, when an auditor is attached, hangs the
// SLO tracker off its per-sweep deltas. Call Start, run the engine, then
// Finish.
func NewHarness(sys *wiring.System, g *topo.Topology, w *traffic.ChurnWorkload, opt Options) *Harness {
	h := &Harness{
		sys:       sys,
		g:         g,
		w:         w,
		opt:       opt,
		live:      make(map[packet.FlowID]*soakFlow),
		linkFlows: newLinkIndex(g),
		inflight:  make(map[packet.FlowID]*controlplane.UpdateStatus),
		slo:       newSLO(opt.Episodes, opt.MaxRetriggers),
	}
	prev := sys.Ctl.OnComplete
	sys.Ctl.OnComplete = func(u *controlplane.UpdateStatus) {
		if prev != nil {
			prev(u)
		}
		h.onUpdateComplete(u)
	}
	if sys.Aud != nil {
		sys.Aud.OnSweep = h.slo.onSweep
	}
	return h
}

// Start schedules the first arrival and reroute events.
func (h *Harness) Start() {
	h.scheduleNextArrival()
	h.scheduleNextReroute()
}

// Counters returns the harness's event bookkeeping.
func (h *Harness) Counters() Counters { return h.c }

// Samples returns the completed-update durations in completion order.
func (h *Harness) Samples() []time.Duration { return h.samples }

// LiveFlows returns the current live-flow population.
func (h *Harness) LiveFlows() int { return len(h.live) }

// pathDown reports whether any switch on path is currently crashed.
func (h *Harness) pathDown(path []topo.NodeID) bool {
	for _, n := range path {
		if h.sys.Net.Switch(n).Down() {
			return true
		}
	}
	return false
}

// retire tears the flow down everywhere: harness tables, controller
// Flow DB, and the data-plane interning slot (recycled for the next
// arrival). Callers only retire quiescent flows — either never updated,
// or RetireGrace after their last update completed. When a switch on
// the flow's path is down, its ASIC still holds the flow's committed
// rules but is unreachable — a real operator cannot reclaim the slot
// until the fabric heals — so teardown is re-deferred instead of
// silently dropping the flow's state mid-outage.
func (h *Harness) retire(f packet.FlowID) {
	cf, ok := h.live[f]
	if !ok {
		return
	}
	if h.sys.Inj != nil && h.pathDown(cf.path) {
		h.c.RetireDeferrals++
		grace := h.opt.RetireGrace
		if grace <= 0 {
			grace = time.Millisecond
		}
		h.sys.Eng.Schedule(grace, func() { h.retire(f) })
		return
	}
	h.linkFlows.remove(cf)
	delete(h.live, f)
	h.sys.Ctl.UnregisterFlow(f)
	h.sys.Net.RetireFlow(f)
	h.c.Retired++
}

// onArrival registers the flow along the current shortest path and
// schedules its departure and the next arrival.
func (h *Harness) onArrival(a traffic.ChurnArrival) {
	f := a.ID()
	path := h.g.ShortestPath(a.Src, a.Dst, topo.ByLatency)
	if err := h.sys.Ctl.RegisterFlowID(f, a.Src, a.Dst, path, 1); err != nil {
		panic(fmt.Sprintf("soak: register: %v", err))
	}
	cf := &soakFlow{id: f, src: a.Src, dst: a.Dst, path: path}
	h.live[f] = cf
	h.linkFlows.add(h.g, cf)
	h.c.Arrivals++
	if len(h.live) > h.c.PeakLive {
		h.c.PeakLive = len(h.live)
	}
	h.sys.Eng.ScheduleAt(a.At+a.Lifetime, func() { h.onDeparture(f) })
	h.scheduleNextArrival()
}

// onDeparture retires the flow immediately when it is quiescent, or
// defers teardown to update completion when a reroute is in flight.
// departed is set in both branches: a flow whose teardown is deferred
// across a switch outage stays in the live table until the fabric
// heals, and marking it keeps reroute waves from triggering fresh
// updates on a flow that is already gone (the teardown would then
// unregister the flow mid-update and wedge it forever).
func (h *Harness) onDeparture(f packet.FlowID) {
	cf, ok := h.live[f]
	if !ok {
		return
	}
	h.c.Departures++
	cf.departed = true
	if cf.updating {
		return
	}
	h.retire(f)
}

// onReroute applies the link perturbation and runs (or defers) the
// trigger scan for the affected flows.
func (h *Harness) onReroute(r traffic.ChurnReroute) {
	base := h.w.BaseLatency(r.Link)
	h.g.SetLinkLatency(r.Link, time.Duration(float64(base)*r.Factor))
	h.c.Waves++

	if h.deferWave(r.Link) {
		h.scheduleNextReroute()
		return
	}
	h.waveScan(r.Link)
	h.scheduleNextReroute()
}

// deferWave postpones the trigger scan for link past the end of any
// active controller partition window: triggering into a partition only
// burns §11 retrigger budget on UIMs a dead channel will drop. The
// latency perturbation itself stays applied — the physical event
// happened — only the controller's reaction waits, like an operator
// holding a config push during a management-plane outage.
func (h *Harness) deferWave(link topo.LinkID) bool {
	inj := h.sys.Inj
	if inj == nil {
		return false
	}
	until, active := inj.ActivePartitionEnd()
	if !active {
		return false
	}
	h.c.WavesDeferred++
	h.sys.Eng.ScheduleAt(until, func() {
		if h.deferWave(link) { // another window may have opened
			return
		}
		h.waveScan(link)
	})
	return true
}

// waveScan triggers one update per affected flow whose shortest path
// changed, batching the wave's UIMs per destination switch. Affected
// flows are visited in FlowID order so the trigger sequence is
// deterministic.
func (h *Harness) waveScan(link topo.LinkID) {
	h.scratch = h.linkFlows.worklist(h.scratch, link)

	h.sys.Ctl.BeginUIMBatch()
	for _, cf := range h.scratch {
		f := cf.id
		if cf.updating || cf.departed {
			h.c.SkippedBusy++
			continue
		}
		sp := h.g.ShortestPath(cf.src, cf.dst, topo.ByLatency)
		if samePath(sp, cf.path) {
			h.c.SkippedSame++
			continue
		}
		u, err := h.sys.Trigger(f, sp)
		if err != nil {
			h.c.TriggerErrs++
			continue
		}
		h.linkFlows.remove(cf)
		cf.path = sp
		cf.updating = true
		h.linkFlows.add(h.g, cf)
		h.c.Triggered++
		if u != nil {
			h.inflight[f] = u
		}
	}
	h.sys.Ctl.FlushUIMBatch()
}

// onUpdateComplete samples the update time, charges its retrigger burn
// to the overlapping storm episode, drops the per-update tracking
// record (the controller's updates map holds only in-flight work), and
// finishes a deferred departure after the retire grace.
func (h *Harness) onUpdateComplete(u *controlplane.UpdateStatus) {
	h.c.Completed++
	h.samples = append(h.samples, u.Completed-u.Sent)
	h.slo.chargeUpdate(u.Sent, u.Completed, u.Retriggers)
	h.c.ProbeRetries += uint64(u.ProbeRetries)
	delete(h.inflight, u.Flow)
	h.sys.Ctl.ForgetUpdate(u.Flow, u.Version)
	cf, ok := h.live[u.Flow]
	if !ok {
		return
	}
	cf.updating = false
	if cf.departed {
		h.sys.Eng.Schedule(h.opt.RetireGrace, func() { h.retire(u.Flow) })
	}
}

func (h *Harness) scheduleNextArrival() {
	a, ok := h.w.NextArrival(func(f packet.FlowID) bool {
		_, taken := h.live[f]
		return taken
	})
	if !ok {
		return
	}
	h.sys.Eng.ScheduleAt(a.At, func() { h.onArrival(a) })
}

func (h *Harness) scheduleNextReroute() {
	r, ok := h.w.NextReroute()
	if !ok {
		return
	}
	h.sys.Eng.ScheduleAt(r.At, func() { h.onReroute(r) })
}

func samePath(a, b []topo.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// crashOrphaned reports whether an update still in flight at trial end
// was doomed by a switch outage rather than stalled by the protocol: a
// node on its flow's current path is down right now, or was inside a
// crash episode at some instant of the update's lifetime [sent, now].
func (h *Harness) crashOrphaned(cf *soakFlow, sent, now time.Duration) bool {
	if h.pathDown(cf.path) {
		return true
	}
	for _, ep := range h.opt.Episodes {
		if ep.Class != faults.EpisodeCrash {
			continue
		}
		if ep.Start > now {
			break
		}
		if ep.End <= sent {
			continue
		}
		for _, n := range cf.path {
			if n == ep.Node {
				return true
			}
		}
	}
	return false
}
