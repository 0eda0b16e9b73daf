// Package audit is the continuous invariant auditor of the test bed: a
// read-only observer that, every N engine steps, walks the live per-flow
// forwarding state of a fabric and asserts the consistency properties
// P4Update claims to preserve through every update (§11, Alg. 1/2):
//
//   - no blackhole: tracing a flow from its ingress always reaches its
//     destination's local-delivery rule;
//   - no loop: the trace never revisits a node;
//   - no link over-capacity: the actual traced load on a link never
//     exceeds its capacity (only meaningful when the congestion gate is
//     on — unconstrained setups disable it via Config.NoCapacity);
//   - version monotonicity: a node's applied version for a flow never
//     decreases.
//
// The auditor hooks sim.Engine.AfterStep and only reads state — it
// never schedules events, mutates registers, or draws randomness — so
// an audited run is step-for-step identical to an unaudited one, and
// violations it records are attributable purely to the system under
// test. It audits all three evaluated systems through the same shared
// switch substrate, which is what turns the paper's §11 comparison into
// a reproducible experiment.
//
// Like the protocol it referees, the auditor does work where state
// changed: every flow slot's verdict (its violations and the link load
// its trace charged) is remembered together with the data plane's
// forwarding revision of the slot (dataplane.Network.FlowRev) and the
// fabric's outage revision (OutageRev). A sweep re-proves only the slots
// whose revision moved and re-reports the remembered verdict of the rest,
// so its cost follows rule commits, not live flows, and sweeping an
// unchanged fabric allocates nothing.
package audit

import (
	"fmt"
	"slices"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
)

// Kind classifies a violation.
type Kind uint8

// Violation kinds.
const (
	Blackhole Kind = iota
	Loop
	OverCapacity
	VersionRegress
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Blackhole:
		return "blackhole"
	case Loop:
		return "loop"
	case OverCapacity:
		return "over-capacity"
	case VersionRegress:
		return "version-regress"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Config tunes the auditor.
type Config struct {
	// Every is the sweep period in engine steps (<=0 means every step).
	Every int
	// NoCapacity disables the link-capacity invariant — required for
	// setups that never enforce capacity (Congestion off), where links
	// are legitimately overbooked.
	NoCapacity bool
}

// Report summarizes a trial's audit: its sweeps and the total
// violation counts per kind.
type Report struct {
	Sweeps uint64

	Blackholes         uint64
	Loops              uint64
	OverCapacity       uint64
	VersionRegressions uint64
}

// Total returns the summed violation count across kinds.
func (r *Report) Total() uint64 {
	return r.Blackholes + r.Loops + r.OverCapacity + r.VersionRegressions
}

// portRef identifies one directed link endpoint.
type portRef struct {
	node topo.NodeID
	port topo.PortID
}

// charge is the load one hop of a flow's trace put on a link.
type charge struct {
	link  portRef
	sizeK uint32
}

// slotVerdict is what the last audit of one flow slot established, and
// the revisions it was established at. The zero value is a slot never
// audited.
type slotVerdict struct {
	// flow is the slot's tenant when it was last seen live; the slot's
	// version history (lastVer) belongs to it.
	flow packet.FlowID
	// lastVer is the highest applied version seen per node for flow, the
	// memory of the monotonicity invariant, sorted by node. It is reset
	// when a different flow moves into the slot, never on vacancy.
	lastVer []nodeVersion
	// audited marks rev, outageRev and the fields below as describing
	// flow's current registers; it is cleared when the slot is vacated or
	// the Flow DB does not know the tenant.
	audited   bool
	rev       uint32
	outageRev uint32
	// regress counts the monotonicity violations, which depend on the
	// registers alone; traced is the trace's violation when traceBad (a
	// trace ends at its first) and charges the load it put on links,
	// which depend on the registers and on which switches are up.
	regress  int
	traced   Kind
	traceBad bool
	charges  []charge
}

// nodeVersion is the highest version a node was seen to apply.
type nodeVersion struct {
	node topo.NodeID
	ver  uint32
}

// Auditor holds the sweep state for one attached fabric. All scratch is
// reused across sweeps, so steady-state sweeping allocates only when a
// flow's trace outgrows its slot's charge list or its version history.
type Auditor struct {
	cfg Config
	net *dataplane.Network
	ctl *controlplane.Controller

	step   uint64
	sweeps uint64

	counts [numKinds]uint64

	// visited marks trace membership by generation, so loop detection
	// needs no per-flow clearing.
	visited []uint32
	visGen  uint32
	// load is the traced kbps per (node, egress port): the sum of every
	// audited slot's charges, kept across sweeps.
	load  [][]uint64
	slots []slotVerdict

	// OnSweep, when set, observes every completed sweep with its instant
	// and the violations newly recorded during it. Like the auditor it
	// must only read state — it is the seam SLO trackers hang off (e.g.
	// the soak harness's availability and recovery-time accounting). Set
	// it after Attach, before the run starts.
	OnSweep func(SweepStats)
}

// SweepStats describes one completed sweep: the virtual instant it ran
// and the violations newly recorded during it (deltas, not totals).
type SweepStats struct {
	Time               time.Duration
	Blackholes         uint64
	Loops              uint64
	OverCapacity       uint64
	VersionRegressions uint64
}

// Total sums the sweep's new violations across kinds.
func (s *SweepStats) Total() uint64 {
	return s.Blackholes + s.Loops + s.OverCapacity + s.VersionRegressions
}

// Attach installs a continuous auditor on the network's engine and
// returns it. The controller supplies flow endpoints (Flow DB).
func Attach(net *dataplane.Network, ctl *controlplane.Controller, cfg Config) *Auditor {
	if cfg.Every <= 0 {
		cfg.Every = 1
	}
	n := net.Topo.NumNodes()
	a := &Auditor{
		cfg:     cfg,
		net:     net,
		ctl:     ctl,
		visited: make([]uint32, n),
		load:    make([][]uint64, n),
	}
	for _, id := range net.Topo.Nodes() {
		a.load[id] = make([]uint64, net.Topo.Degree(id))
	}
	net.Eng.AfterStep = a.afterStep
	return a
}

// afterStep is the engine hook: it counts steps and sweeps every
// cfg.Every-th one.
func (a *Auditor) afterStep() {
	a.step++
	if a.step%uint64(a.cfg.Every) != 0 {
		return
	}
	a.Sweep()
}

// Report returns the audit summary accumulated so far.
func (a *Auditor) Report() Report {
	return Report{
		Sweeps:             a.sweeps,
		Blackholes:         a.counts[Blackhole],
		Loops:              a.counts[Loop],
		OverCapacity:       a.counts[OverCapacity],
		VersionRegressions: a.counts[VersionRegress],
	}
}

// Sweep audits the fabric's current state once. It is exported so tests
// (and one-shot audits) can drive it without the engine hook.
//
// Every live slot is reported on every sweep — a loop, blackhole or
// regression left in place counts once per sweep — but only a slot whose
// forwarding revision moved since its last audit has its registers read
// again, and only that or an outage change has it traced again. Flow
// endpoints are read from the Flow DB when a slot is re-audited, by the
// slot index the sweep walks: the Flow DB is indexed by the same
// data-plane slots, and a record answers only for the flow it was
// registered for. A flow must therefore leave the Flow DB and the
// fabric together (UnregisterFlow, then RetireFlow, as the harness
// does). Switch.TwoPhase and the topology's links are taken as fixed once
// sweeping has started.
func (a *Auditor) Sweep() {
	before := a.counts
	a.sweeps++

	nSlots := a.net.NumFlowSlots()
	if nSlots > len(a.slots) {
		a.slots = append(a.slots, make([]slotVerdict, nSlots-len(a.slots))...)
	}
	outage := a.net.OutageRev()
	for idx := range a.slots {
		s := &a.slots[idx]
		f, live := a.net.FlowAt(int32(idx))
		if !live {
			// A vacated slot carries no load and no violation; its tenant
			// and version history stay until a different flow moves in.
			a.forget(s)
			continue
		}
		if s.flow != f {
			s.flow, s.audited = f, false
			s.lastVer = s.lastVer[:0]
		}
		rev := a.net.FlowRev(int32(idx))
		if !s.audited || s.rev != rev || s.outageRev != outage {
			rec, ok := a.ctl.FlowAt(int32(idx), f)
			if !ok {
				a.forget(s)
				continue
			}
			if !s.audited || s.rev != rev {
				a.checkVersions(idx, s)
			}
			a.uncharge(s)
			s.traced, s.traceBad = a.traceFlow(idx, rec, s)
			s.audited, s.rev, s.outageRev = true, rev, outage
		}
		a.counts[VersionRegress] += uint64(s.regress)
		if s.traceBad {
			a.counts[s.traced]++
		}
	}
	if !a.cfg.NoCapacity {
		a.checkCapacity()
	}
	if a.OnSweep != nil {
		a.OnSweep(SweepStats{
			Time:               a.net.Eng.Now(),
			Blackholes:         a.counts[Blackhole] - before[Blackhole],
			Loops:              a.counts[Loop] - before[Loop],
			OverCapacity:       a.counts[OverCapacity] - before[OverCapacity],
			VersionRegressions: a.counts[VersionRegress] - before[VersionRegress],
		})
	}
}

// forget drops a slot's verdict: its load comes off the links and the
// next sweep that finds a tenant audits it from the registers (the
// findings are not read again before that audit replaces them).
func (a *Auditor) forget(s *slotVerdict) {
	a.uncharge(s)
	s.audited = false
}

// uncharge takes the load of the slot's last trace off the links.
func (a *Auditor) uncharge(s *slotVerdict) {
	for _, c := range s.charges {
		a.load[c.link.node][c.link.port] -= uint64(c.sizeK)
	}
	s.charges = s.charges[:0]
}

// traceFlow follows the flow's active forwarding state from its ingress,
// charging traced load to each crossed link (and to s, so it can be taken
// off again) and returning the kind of violation the trace ends in (a
// loop or a blackhole), if any. The walk forwards exactly like the data
// plane: on two-phase switches (§11 / PPCU) it carries the version tag a
// packet injected now would be stamped with at the ingress, and follows
// the retained previous rule wherever the tag predates the switch's
// current configuration — mid-update two-phase state is consistent for
// tagged packets and must not be reported as a blackhole. A trace that meets a crashed switch is
// abandoned without a report: a physical outage is not a protocol fault.
func (a *Auditor) traceFlow(idx int, rec *controlplane.FlowRecord, s *slotVerdict) (Kind, bool) {
	a.visGen++
	cur := rec.Src
	var tag uint32
	maxHops := a.net.Topo.NumNodes() + 1
	for hop := 0; hop <= maxHops; hop++ {
		if a.visited[cur] == a.visGen {
			return Loop, true
		}
		a.visited[cur] = a.visGen
		sw := a.net.Switch(cur)
		if sw.Down() {
			return 0, false
		}
		st := sw.FlowStateAt(idx)
		if st == nil || !st.HasRule {
			return Blackhole, true
		}
		out := st.EgressPort
		if sw.TwoPhase {
			if hop == 0 && tag == 0 {
				tag = st.NewVersion // ingress stamps host traffic
			}
			if tag != 0 && tag < st.NewVersion && st.PrevValid {
				out = st.PrevEgressPort // previous configuration's rule
			}
		}
		if out == dataplane.PortLocal {
			// Local delivery anywhere but the destination is a blackhole.
			return Blackhole, cur != rec.Dst
		}
		next, ok := a.net.Topo.NeighborAt(cur, out)
		if !ok {
			return Blackhole, true // the egress port has no link
		}
		if out >= 0 && int(out) < len(a.load[cur]) {
			a.load[cur][out] += uint64(st.FlowSizeK)
			s.charges = append(s.charges, charge{portRef{cur, out}, st.FlowSizeK})
		}
		cur = next
	}
	return Loop, true // the trace exceeded the hop bound
}

// checkCapacity compares the traced load on every loaded link, in
// ascending (node, port) order, against its capacity.
func (a *Auditor) checkCapacity() {
	for node, ports := range a.load {
		for port, kbps := range ports {
			if kbps == 0 {
				continue
			}
			c := a.net.Switch(topo.NodeID(node)).CapacityK(topo.PortID(port))
			if c != 0 && kbps > c {
				a.counts[OverCapacity]++
			}
		}
	}
}

// checkVersions asserts the flow's applied version never decreases on
// any node, counting the regressions in s. It visits the slot's
// holders, which come in ascending node order like s.lastVer, so the
// two merge in one pass.
func (a *Auditor) checkVersions(idx int, s *slotVerdict) {
	s.regress = 0
	i, j, m := int32(idx), 0, a.net.NumFlowHolders(int32(idx))
	if s.lastVer == nil {
		// Room for a reroute's worth of new holders: the slice is kept
		// for every later tenant of the slot.
		s.lastVer = make([]nodeVersion, 0, 2*m)
	}
	for k := 0; k < m; k++ {
		node, st := a.net.FlowHolder(i, k)
		if !st.HasRule {
			continue
		}
		for j < len(s.lastVer) && s.lastVer[j].node < node {
			j++
		}
		if j == len(s.lastVer) || s.lastVer[j].node != node {
			s.lastVer = slices.Insert(s.lastVer, j, nodeVersion{node: node})
		}
		if lv := &s.lastVer[j]; st.NewVersion < lv.ver {
			s.regress++
		} else {
			lv.ver = st.NewVersion
		}
	}
}
