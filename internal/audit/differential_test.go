package audit_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"p4update/internal/audit"
	"p4update/internal/controlplane"
	"p4update/internal/dataplane"
	"p4update/internal/faults"
	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/traffic"
	"p4update/internal/wiring"
)

// fullSweep is the auditor as it was before verdicts were remembered per
// slot: every sweep re-proves every live flow from the registers. It is
// kept here as the reference the incremental Sweep is held to, and reads
// the fabric through exported accessors only.
type fullSweep struct {
	net   *dataplane.Network
	ctl   *controlplane.Controller
	every uint64

	step, sweeps uint64
	counts       [4]uint64

	visited  []uint32
	visGen   uint32
	load     [][]uint64
	touched  [][2]int32
	lastVer  [][]uint32
	slotFlow []packet.FlowID
}

func newFullSweep(net *dataplane.Network, ctl *controlplane.Controller, every int) *fullSweep {
	n := net.Topo.NumNodes()
	r := &fullSweep{
		net: net, ctl: ctl, every: uint64(every),
		visited: make([]uint32, n),
		load:    make([][]uint64, n),
		lastVer: make([][]uint32, n),
	}
	for _, id := range net.Topo.Nodes() {
		r.load[id] = make([]uint64, net.Topo.Degree(id))
	}
	return r
}

// afterStep mirrors Auditor.afterStep; it reports whether it swept.
func (r *fullSweep) afterStep() bool {
	r.step++
	if r.step%r.every != 0 {
		return false
	}
	r.sweep()
	return true
}

func (r *fullSweep) sweep() {
	r.sweeps++
	for _, pr := range r.touched {
		r.load[pr[0]][pr[1]] = 0
	}
	r.touched = r.touched[:0]

	nSlots := r.net.NumFlowSlots()
	for idx := 0; idx < nSlots; idx++ {
		f, ok := r.net.FlowAt(int32(idx))
		if !ok {
			continue
		}
		if idx >= len(r.slotFlow) {
			r.slotFlow = append(r.slotFlow, make([]packet.FlowID, idx+1-len(r.slotFlow))...)
		}
		if r.slotFlow[idx] != f {
			r.slotFlow[idx] = f
			for _, lv := range r.lastVer {
				if idx < len(lv) {
					lv[idx] = 0
				}
			}
		}
		rec, ok := r.ctl.Flow(f)
		if !ok {
			continue
		}
		r.checkVersions(idx)
		r.traceFlow(idx, rec)
	}
	for _, pr := range r.touched {
		node, port := topo.NodeID(pr[0]), topo.PortID(pr[1])
		c := r.net.Switch(node).CapacityK(port)
		if c > 0 && r.load[node][port] > c {
			r.counts[audit.OverCapacity]++
		}
	}
}

func (r *fullSweep) traceFlow(idx int, rec *controlplane.FlowRecord) {
	r.visGen++
	cur := rec.Src
	var tag uint32
	maxHops := r.net.Topo.NumNodes() + 1
	for hop := 0; hop <= maxHops; hop++ {
		if r.visited[cur] == r.visGen {
			r.counts[audit.Loop]++
			return
		}
		r.visited[cur] = r.visGen
		sw := r.net.Switch(cur)
		if sw.Down() {
			return
		}
		st := sw.FlowStateAt(idx)
		if st == nil || !st.HasRule {
			r.counts[audit.Blackhole]++
			return
		}
		out := st.EgressPort
		if sw.TwoPhase {
			if hop == 0 && tag == 0 {
				tag = st.NewVersion
			}
			if tag != 0 && tag < st.NewVersion && st.PrevValid {
				out = st.PrevEgressPort
			}
		}
		if out == dataplane.PortLocal {
			if cur != rec.Dst {
				r.counts[audit.Blackhole]++
			}
			return
		}
		next, ok := r.net.Topo.NeighborAt(cur, out)
		if !ok {
			r.counts[audit.Blackhole]++
			return
		}
		if out >= 0 && int(out) < len(r.load[cur]) {
			if r.load[cur][out] == 0 {
				r.touched = append(r.touched, [2]int32{int32(cur), int32(out)})
			}
			r.load[cur][out] += uint64(st.FlowSizeK)
		}
		cur = next
	}
	r.counts[audit.Loop]++
}

func (r *fullSweep) checkVersions(idx int) {
	for _, sw := range r.net.Switches() {
		st := sw.FlowStateAt(idx)
		if st == nil || !st.HasRule {
			continue
		}
		lv := r.lastVer[sw.ID]
		if idx >= len(lv) {
			lv = append(lv, make([]uint32, idx+1-len(lv))...)
			r.lastVer[sw.ID] = lv
		}
		if st.NewVersion < lv[idx] {
			r.counts[audit.VersionRegress]++
		} else {
			lv[idx] = st.NewVersion
		}
	}
}

// writer mutates the fabric behind the protocol's back through the same
// exported calls the protocol uses, so the auditors see every kind of
// change — and every kind of violation — at a density no honest run
// produces.
type writer struct {
	rng   *rand.Rand
	net   *dataplane.Network
	ctl   *controlplane.Controller
	flows []traffic.FlowSpec
}

func (w *writer) act() {
	nodes := w.net.Topo.NumNodes()
	spec := w.flows[w.rng.Intn(len(w.flows))]
	f := spec.ID()
	sw := w.net.Switch(topo.NodeID(w.rng.Intn(nodes)))
	switch op := w.rng.Intn(20); {
	case op < 11: // commit the next version onto a random port
		port := dataplane.PortLocal
		if d := w.net.Topo.Degree(sw.ID); w.rng.Intn(6) > 0 {
			port = topo.PortID(w.rng.Intn(d))
		}
		var ver uint32 = 1
		if st, ok := sw.PeekState(f); ok {
			ver = st.NewVersion + 1
		}
		if w.rng.Intn(16) == 0 {
			f ^= 0x5a5a0000 // a flow the Flow DB has never heard of
		}
		sw.CommitState(f, dataplane.Commit{
			Port: port, Version: ver, SizeK: uint32(w.rng.Intn(60_000_000)),
		})
	case op < 13: // remove a rule the way §11 cleanup does
		sw.Receive(packet.Marshal(&packet.CLN{Flow: f, Version: 1 << 30}), topo.InvalidPort)
	case op < 15:
		sw.Crash()
	case op < 17:
		sw.Restore()
	case op < 19: // the flow leaves the fabric; later commits re-intern it
		w.net.RetireFlow(f)
	default: // the flow leaves fabric and Flow DB together, and returns
		w.ctl.UnregisterFlow(f)
		w.net.RetireFlow(f)
		if w.rng.Intn(2) == 0 {
			if err := w.ctl.RegisterFlowID(f, spec.Src, spec.Dst, spec.Old, spec.SizeK); err != nil {
				panic(err)
			}
		}
	}
}

// TestIncrementalSweepMatchesFullSweep hooks the auditor and the
// reference to one engine and holds every sweep's deltas and the final
// reports equal: five systems × three fault cells × two sweep periods ×
// three seeds on B4, two thirds of the trials with the writer above
// acting after every fourth step.
func TestIncrementalSweepMatchesFullSweep(t *testing.T) {
	g := topo.B4()
	g.Freeze()
	var sweeps uint64
	var total [4]uint64
	trial := 0
	for _, system := range wiring.Names() {
		for li, loss := range []float64{0, 0.05, 0.2} {
			for ei, every := range []int{1, 7} {
				for seed := int64(1); seed <= 3; seed++ {
					trial++
					name := fmt.Sprintf("%s/loss%.2f/every%d/seed%d", system, loss, every, seed)
					s, c := differentialTrial(t, g, name, system, loss, every, seed, (li+ei+int(seed))%3 != 0)
					sweeps += s
					for k := range total {
						total[k] += c[k]
					}
				}
			}
		}
	}
	var sum uint64
	for k, n := range total {
		if n == 0 {
			t.Errorf("the grid produced no %v violation", audit.Kind(k))
		}
		sum += n
	}
	if sum < 100_000 {
		t.Errorf("the grid produced %d violations, want >= 100000 for the comparison to mean something", sum)
	}
	t.Logf("%d trials, %d sweeps, violations by kind %v", trial, sweeps, total)
}

func differentialTrial(t *testing.T, g *topo.Topology, name, system string, loss float64, every int, seed int64, withWriter bool) (uint64, [4]uint64) {
	t.Helper()
	rates := faults.Rates{Drop: loss, Reorder: 0.1, ReorderBy: 2 * time.Millisecond}
	plan := &faults.Plan{Data: rates, Up: rates, Down: rates}
	for i := 0; i < 2; i++ {
		at := time.Duration(300+200*i) * time.Millisecond
		plan.Crashes = append(plan.Crashes, faults.Crash{
			Node: topo.NodeID((int(seed)*7 + 3*i + 1) % g.NumNodes()), At: at, Restore: at + 150*time.Millisecond,
		})
	}
	sys := wiring.New(g, wiring.Config{
		Seed: seed, System: system,
		BaseInstallDelay: time.Millisecond,
		CtrlProcDelay:    500 * time.Microsecond, CtrlQueueMean: 40 * time.Millisecond,
		WatchdogTimeout: 250 * time.Millisecond, ProbeTimeout: 250 * time.Millisecond,
		MaxRetriggers: 25, Faults: plan,
	})
	flows, err := traffic.ManyFlowWorkload(g, rand.New(rand.NewSource(seed)), 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if err := sys.Ctl.RegisterFlowID(f.ID(), f.Src, f.Dst, f.Old, f.SizeK); err != nil {
			t.Fatal(err)
		}
	}

	a := audit.Attach(sys.Net, sys.Ctl, audit.Config{Every: every})
	ref := newFullSweep(sys.Net, sys.Ctl, every)
	var got audit.SweepStats
	a.OnSweep = func(s audit.SweepStats) { got = s }
	w := &writer{rng: rand.New(rand.NewSource(seed ^ 0x77)), net: sys.Net, ctl: sys.Ctl, flows: flows}

	auditStep := sys.Eng.AfterStep
	var steps int
	mismatches := 0
	sys.Eng.AfterStep = func() {
		before := ref.counts
		auditStep()
		if ref.afterStep() {
			want := audit.SweepStats{
				Time:               sys.Eng.Now(),
				Blackholes:         ref.counts[audit.Blackhole] - before[audit.Blackhole],
				Loops:              ref.counts[audit.Loop] - before[audit.Loop],
				OverCapacity:       ref.counts[audit.OverCapacity] - before[audit.OverCapacity],
				VersionRegressions: ref.counts[audit.VersionRegress] - before[audit.VersionRegress],
			}
			if got != want && mismatches < 3 {
				mismatches++
				t.Errorf("%s: sweep deltas %+v, reference %+v", name, got, want)
			}
		}
		if steps++; withWriter && steps%4 == 0 {
			w.act()
		}
	}
	for _, f := range flows {
		if _, err := sys.Trigger(f.ID(), f.New); err != nil {
			t.Fatalf("%s: trigger: %v", name, err)
		}
	}
	sys.Eng.Run()

	rep := a.Report()
	want := audit.Report{
		Sweeps:     ref.sweeps,
		Blackholes: ref.counts[audit.Blackhole], Loops: ref.counts[audit.Loop],
		OverCapacity: ref.counts[audit.OverCapacity], VersionRegressions: ref.counts[audit.VersionRegress],
	}
	if rep != want {
		t.Errorf("%s: report %+v, reference %+v", name, rep, want)
	}
	return ref.sweeps, ref.counts
}
