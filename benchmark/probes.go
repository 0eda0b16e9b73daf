package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/core"
	"p4update/internal/dataplane"
	"p4update/internal/experiments"
	"p4update/internal/faults"
	"p4update/internal/packet"
	"p4update/internal/plancache"
	"p4update/internal/sim"
	"p4update/internal/topo"
	"p4update/internal/trace"
	"p4update/internal/traffic"
	"p4update/internal/transport"
	"p4update/internal/wiring"
)

// Layer probes time calls into one layer's exported functions in
// isolation: a fixed iteration count per batch, one warm-up batch, then
// the median of probeBatches timed batches. They are workload
// independent; the traced run of every workload reports them so a layer
// number and the end-to-end number it should move come from one process.

const probeBatches = 7

// probeSizing scales the probes: div divides every iteration count,
// fatK is the radix of the "large fabric" probes.
type probeSizing struct {
	div  int
	fatK int
}

var (
	fullProbes = probeSizing{div: 1, fatK: 16}
	toyProbes  = probeSizing{div: 200, fatK: 4}
)

func (p probeSizing) n(full int) int {
	if n := full / p.div; n > 1 {
		return n
	}
	return 2
}

// probeNs runs batch — n calls — once untimed and probeBatches times
// timed, and returns the median nanoseconds per call.
func probeNs(n int, batch func(n int)) float64 {
	batch(n)
	per := make([]float64, probeBatches)
	for i := range per {
		start := time.Now()
		batch(n)
		per[i] = float64(time.Since(start)) / float64(n)
	}
	return medianOf(per)
}

// probeAllocs returns heap allocations per call over one warm batch.
func probeAllocs(n int, batch func(n int)) float64 {
	batch(n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	batch(n)
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// Sinks keep the compiler from discarding a probed call's result.
var (
	sinkBytes   []byte
	sinkVerdict core.Verdict
	sinkPath    []topo.NodeID
	sinkPlan    *controlplane.Plan
	sinkSys     *wiring.System
)

// runProbes executes every layer probe and returns its metrics by name.
func runProbes(ps probeSizing, seed int64) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, p := range []func(probeSizing, int64, map[string]float64) error{
		probeSim, probePacket, probeCore, probeCommit, probeInstallRetire,
		probePlan, probeTopo, probeWiringAudit, probeTrace, probeTransport, probeRunner,
	} {
		if err := p(ps, seed, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func probeSim(ps probeSizing, seed int64, out map[string]float64) error {
	e := sim.New(seed)
	fn := func() {}
	// Bring the queue's slices to their steady-state capacity.
	for i := 0; i < 1024; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	e.Run()
	step := func(n int) {
		for i := 0; i < n; i++ {
			e.Schedule(time.Microsecond, fn)
			e.Step()
		}
	}
	out["sim.ns_per_event"] = probeNs(ps.n(1_000_000), step)
	out["sim.allocs_per_event"] = probeAllocs(ps.n(1_000_000), step)
	out["sim.ns_per_cancel"] = probeNs(ps.n(500_000), func(n int) {
		for i := 0; i < n; i++ {
			t := e.Schedule(time.Microsecond, fn)
			e.Schedule(2*time.Microsecond, fn)
			t.Stop()
			e.Step()
		}
	})
	return nil
}

func probePacket(ps probeSizing, _ int64, out map[string]float64) error {
	uim := &packet.UIM{Flow: 77, Version: 2, NewDistance: 3, EgressPort: 1, ChildPort: 2, FlowSizeK: 1000, Role: packet.RoleGateway}
	unm := &packet.UNM{Flow: 77, Vn: 2, Dn: 2, Vo: 1, Do: 4, Counter: 1}
	rawUIM, rawUNM := packet.Marshal(uim), packet.Marshal(unm)
	buf := make([]byte, 0, 64)
	n := ps.n(500_000)
	out["packet.ns_per_encode_uim"] = probeNs(n, func(n int) {
		for i := 0; i < n; i++ {
			buf = uim.SerializeTo(buf[:0])
		}
	})
	out["packet.ns_per_encode_unm"] = probeNs(n, func(n int) {
		for i := 0; i < n; i++ {
			buf = unm.SerializeTo(buf[:0])
		}
	})
	sinkBytes = buf
	var derr error
	// UIMs decode into fresh structs (switches retain them); UNMs take
	// the pooled path the switch pipeline uses.
	decodeUIM := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := packet.Decode(rawUIM); err != nil {
				derr = err
			}
		}
	}
	out["packet.ns_per_decode_uim"] = probeNs(n, decodeUIM)
	out["packet.allocs_per_decode"] = probeAllocs(n, decodeUIM)
	var pool packet.Pool
	out["packet.ns_per_decode_unm"] = probeNs(n, func(n int) {
		for i := 0; i < n; i++ {
			m, err := pool.Decode(rawUNM)
			if err != nil {
				derr = err
				continue
			}
			pool.Recycle(m)
		}
	})
	frame := &packet.Frame{Verb: packet.VerbMsg, Src: 3, Epoch: 1, Seq: 9, InPort: packet.NoPort, Payload: rawUIM}
	var back packet.Frame
	out["packet.ns_per_frame_roundtrip"] = probeNs(ps.n(500_000), func(n int) {
		for i := 0; i < n; i++ {
			buf = frame.SerializeTo(buf[:0])
			if err := back.DecodeFromBytes(buf); err != nil {
				derr = err
			}
		}
	})
	return derr
}

func probeCore(ps probeSizing, _ int64, out map[string]float64) error {
	// A node on version 1 holding the version-2 indication, notified by
	// its parent one hop closer to the egress: the apply branch of
	// Alg. 1, and the gateway apply branch of Alg. 2.
	st := &dataplane.FlowState{
		HasRule: true, NewVersion: 1, NewDistance: 6, OldDistance: dataplane.FreshDistance,
		LastType: packet.UpdateSingle,
		UIM:      &packet.UIM{Flow: 77, Version: 2, NewDistance: 3},
	}
	unm := &packet.UNM{Flow: 77, Vn: 2, Dn: 2, Vo: 1, Do: 4}
	n := ps.n(2_000_000)
	out["core.ns_per_verify_sl"] = probeNs(n, func(n int) {
		for i := 0; i < n; i++ {
			sinkVerdict = core.VerifySL(st, unm)
		}
	})
	if sinkVerdict.Decision != core.DecisionApply {
		return fmt.Errorf("probe core: VerifySL verdict %v, want apply", sinkVerdict.Decision)
	}
	out["core.ns_per_verify_dl"] = probeNs(n, func(n int) {
		for i := 0; i < n; i++ {
			sinkVerdict = core.VerifyDL(st, unm, false)
		}
	})
	if sinkVerdict.Decision != core.DecisionApply {
		return fmt.Errorf("probe core: VerifyDL verdict %v, want apply", sinkVerdict.Decision)
	}
	return nil
}

// probeCommit drives single-layer updates of one flow back and forth
// between the two rails of a ladder topology and divides the wall time
// by the rules the switches committed: the receive -> verify -> commit
// cost of one hop, with no install delay and nothing else running.
func probeCommit(ps probeSizing, seed int64, out map[string]float64) error {
	const rail = 6
	g := topo.New("ladder")
	src := g.AddNode("src", 0, 0)
	dst := g.AddNode("dst", 0, 0)
	rails := [2][]topo.NodeID{{src}, {src}}
	for r := range rails {
		for i := 0; i < rail; i++ {
			n := g.AddNode(fmt.Sprintf("r%d_%d", r, i), 0, 0)
			g.AddLink(rails[r][len(rails[r])-1], n, 100*time.Microsecond, 10000)
			rails[r] = append(rails[r], n)
		}
		g.AddLink(rails[r][len(rails[r])-1], dst, 100*time.Microsecond, 10000)
		rails[r] = append(rails[r], dst)
	}
	sys := wiring.New(g, wiring.Config{Seed: seed, System: "p4update-sl", MaxEvents: figureMaxEvents})
	const flow = packet.FlowID(77)
	if err := sys.Ctl.RegisterFlowID(flow, src, dst, rails[0], 1); err != nil {
		return err
	}
	side := 0
	var perr error
	update := func(n int) {
		for i := 0; i < n; i++ {
			side ^= 1
			u, err := sys.Trigger(flow, rails[side])
			if err != nil {
				perr = err
				return
			}
			sys.Eng.Run()
			if !u.Done() {
				perr = fmt.Errorf("probe commit: update to rail %d not confirmed", side)
				return
			}
			sys.Ctl.ForgetUpdate(flow, u.Version)
		}
	}
	applied := func() (n uint64) {
		for _, sw := range sys.Net.Switches() {
			n += sw.Stats.RulesApplied
		}
		return n
	}
	n := ps.n(2000)
	update(n)
	per := make([]float64, probeBatches)
	for i := range per {
		a0 := applied()
		start := time.Now()
		update(n)
		el := time.Since(start)
		if rules := applied() - a0; rules > 0 {
			per[i] = float64(el) / float64(rules)
		}
	}
	out["dataplane.ns_per_commit"] = medianOf(per)
	return perr
}

// probeInstallRetire cycles flows through a large fat-tree the way the
// churn harness does: RegisterFlowID on arrival, RetireFlow on
// departure, population held at its peak so slots and state blocks are
// recycled.
func probeInstallRetire(ps probeSizing, seed int64, out map[string]float64) error {
	g := topo.FatTree(ps.fatK)
	sys := wiring.New(g, wiring.Config{Seed: seed, System: "p4update"})
	edges := topo.EdgeSwitches(g)
	rng := rand.New(rand.NewSource(seed))
	type fl struct {
		id       packet.FlowID
		src, dst topo.NodeID
		path     []topo.NodeID
	}
	n := ps.n(4000)
	flows := make([]fl, 0, n)
	for len(flows) < n {
		s, d := edges[rng.Intn(len(edges))], edges[rng.Intn(len(edges))]
		if s == d {
			continue
		}
		id := packet.HashFlowSalt(uint16(s), uint16(d), uint16(len(flows)))
		flows = append(flows, fl{id, s, d, g.ShortestPath(s, d, topo.ByHops)})
	}
	var perr error
	cycle := func() (install, retire time.Duration) {
		start := time.Now()
		for _, f := range flows {
			if err := sys.Ctl.RegisterFlowID(f.id, f.src, f.dst, f.path, 1); err != nil {
				perr = err
			}
		}
		install = time.Since(start)
		for _, f := range flows {
			sys.Ctl.UnregisterFlow(f.id)
		}
		start = time.Now()
		for _, f := range flows {
			sys.Net.RetireFlow(f.id)
		}
		return install, time.Since(start)
	}
	cycle()
	ins, ret := make([]float64, probeBatches), make([]float64, probeBatches)
	for i := range ins {
		a, b := cycle()
		ins[i], ret[i] = float64(a)/float64(n), float64(b)/float64(n)
	}
	out["dataplane.ns_per_install"] = medianOf(ins)
	out["dataplane.ns_per_retire"] = medianOf(ret)
	out["dataplane.allocs_per_install_retire"] = probeAllocs(n, func(int) { cycle() })
	return perr
}

func probePlan(ps probeSizing, seed int64, out map[string]float64) error {
	g := topo.FatTree(8)
	g.Freeze()
	flows, err := traffic.ManyFlowWorkload(g, rand.New(rand.NewSource(seed)), 200, topo.EdgeSwitches(g))
	if err != nil {
		return err
	}
	var perr error
	cold := func(n int) {
		for i := 0; i < n; i++ {
			f := flows[i%len(flows)]
			if sinkPlan, err = controlplane.PreparePlan(g, f.ID(), f.Old, f.New, 2, f.SizeK, nil); err != nil {
				perr = err
			}
		}
	}
	out["controlplane.ns_per_plan_cold"] = probeNs(ps.n(30_000), cold)
	out["controlplane.allocs_per_plan_cold"] = probeAllocs(ps.n(30_000), cold)
	plans := plancache.New(g)
	out["controlplane.ns_per_plan_cached"] = probeNs(ps.n(100_000), func(n int) {
		for i := 0; i < n; i++ {
			f := flows[i%len(flows)]
			if sinkPlan, err = controlplane.PreparePlanCached(plans, g, f.ID(), f.Old, f.New, 2, f.SizeK, nil); err != nil {
				perr = err
			}
		}
	})
	return perr
}

// probeTopo times the private (unfrozen) path oracle the churn harness
// queries per arrival: first query of a pair (miss), repeat query (hit),
// and the incremental repair a link-latency change triggers on a warm
// oracle.
func probeTopo(ps probeSizing, seed int64, out map[string]float64) error {
	pairs := ps.n(800)
	hitRounds := 40
	repairs := ps.n(60)
	miss, hit, repair := make([]float64, probeBatches), make([]float64, probeBatches), make([]float64, probeBatches)
	for b := -1; b < probeBatches; b++ { // batch -1 is the warm-up
		g := topo.FatTree(ps.fatK)
		traffic.JitterLatencies(g, seed, 0.2)
		edges := topo.EdgeSwitches(g)
		rng := rand.New(rand.NewSource(seed))
		type pair struct{ s, d topo.NodeID }
		seen := make(map[pair]bool)
		var prs []pair
		for len(prs) < pairs && len(seen) < len(edges)*(len(edges)-1) {
			p := pair{edges[rng.Intn(len(edges))], edges[rng.Intn(len(edges))]}
			if p.s == p.d || seen[p] {
				continue
			}
			seen[p] = true
			prs = append(prs, p)
		}
		start := time.Now()
		for _, p := range prs {
			sinkPath = g.ShortestPath(p.s, p.d, topo.ByLatency)
		}
		m := time.Since(start)
		start = time.Now()
		for r := 0; r < hitRounds; r++ {
			for _, p := range prs {
				sinkPath = g.ShortestPath(p.s, p.d, topo.ByLatency)
			}
		}
		h := time.Since(start)
		links := g.Links()
		start = time.Now()
		for i := 0; i < repairs; i++ {
			l := links[rng.Intn(len(links))]
			g.SetLinkLatency(l.ID, time.Duration(float64(l.Latency)*(0.5+1.5*rng.Float64())))
		}
		r := time.Since(start)
		if b >= 0 {
			miss[b] = float64(m) / float64(len(prs))
			hit[b] = float64(h) / float64(hitRounds*len(prs))
			repair[b] = float64(r) / float64(repairs)
		}
	}
	out["topo.ns_per_query_miss"] = medianOf(miss)
	out["topo.ns_per_query_hit"] = medianOf(hit)
	out["topo.ns_per_repair"] = medianOf(repair)
	return nil
}

func probeWiringAudit(ps probeSizing, seed int64, out map[string]float64) error {
	w, err := prepareBurst(seed, fullSizing)
	if err != nil {
		return err
	}
	b := w.(*burst)
	build := func(n int) {
		for i := 0; i < n; i++ {
			sinkSys = wiring.New(b.g, b.config(i))
		}
	}
	out["wiring.ns_per_build_k8"] = probeNs(ps.n(100), build)
	out["wiring.allocs_per_build_k8"] = probeAllocs(ps.n(100), build)

	// One bed holding the burst workload's flows, auditor attached with a
	// period it never reaches, swept by hand.
	wcfg := b.config(0)
	wcfg.AuditEvery = 1 << 30
	bed := &experiments.Bed{Kind: p4u, System: wiring.New(b.g, wcfg)}
	if err := bed.Register(b.flows); err != nil {
		return err
	}
	sweeps := ps.n(100)
	out["audit.ns_per_sweep_flow"] = probeNs(sweeps, func(n int) {
		for i := 0; i < n; i++ {
			bed.Aud.Sweep()
		}
	}) / float64(len(b.flows))
	if rep := bed.Aud.Report(); rep.Total() != 0 {
		return fmt.Errorf("probe audit: %d violations on a freshly registered bed", rep.Total())
	}
	return nil
}

func probeTrace(ps probeSizing, _ int64, out map[string]float64) error {
	rec := trace.New(trace.Options{})
	var now time.Duration
	rec.Clock = func() time.Duration { return now }
	for i := 0; i < 2*trace.DefaultCap; i++ { // fill the ring: steady state overwrites
		rec.Send(1, uint8(packet.TypeUNM), 2, 77, 2)
	}
	out["trace.ns_per_record"] = probeNs(ps.n(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			now++
			rec.Send(1, uint8(packet.TypeUNM), 2, 77, uint32(i))
		}
	})
	return nil
}

// probeTransport sends sequenced frames between two endpoints of the
// in-memory loopback fabric and waits for each ack; every tenth frame's
// first transmission is dropped and recovered by the retransmit timer.
// In-memory loopback, no real link.
func probeTransport(ps probeSizing, _ int64, out map[string]float64) error {
	fab := transport.NewFabric()
	delivered := 0
	mk := func(self int32) *transport.Endpoint {
		ep := transport.NewEndpoint(transport.Config{
			Self: self, Epoch: 1, Lower: fab.Attach(self),
			Handler: func(int32, *packet.Frame) { delivered++ },
		})
		fab.Register(self, ep)
		return ep
	}
	a, _ := mk(0), mk(1)
	payload := packet.Marshal(&packet.UNM{Flow: 77, Vn: 2, Dn: 2, Vo: 1, Do: 4})
	var perr error
	sent := 0
	rtt := func(n int) {
		for i := 0; i < n; i++ {
			if sent%10 == 9 {
				fab.Use([]faults.Rule{faults.DropMatching(0, 1, packet.TypeInvalid, 1)})
			}
			sent++
			f := &packet.Frame{Verb: packet.VerbMsg, InPort: packet.NoPort, Payload: payload}
			if err := a.Send(1, f, fab.Now()); err != nil {
				perr = err
				return
			}
			fab.Flush()
			for a.InFlight() > 0 {
				fab.Advance(100 * time.Millisecond) // one RTO
			}
		}
	}
	out["transport.ns_per_frame_rtt"] = probeNs(ps.n(30_000), rtt)
	st := a.Stats()
	if delivered != sent || st.GaveUp != 0 {
		return fmt.Errorf("probe transport: %d of %d frames delivered, %d abandoned", delivered, sent, st.GaveUp)
	}
	out["transport.retransmit_ratio"] = float64(st.Retransmits) / float64(st.Sent)
	return perr
}

// probeRunner compares one paper-grid repetition on one worker with the
// same repetition on one worker per CPU.
func probeRunner(ps probeSizing, seed int64, out map[string]float64) error {
	sz := fullSizing
	if ps.div > 1 {
		sz = toySizing
	}
	w, err := prepareGrid(seed, sz)
	if err != nil {
		return err
	}
	g := w.(*grid)
	nproc := runtime.GOMAXPROCS(0)
	wall := func(workers int) (float64, error) {
		g.workers = workers
		per := make([]float64, 3)
		for i := range per {
			rs, err := measure(g.rep)
			if err != nil {
				return 0, err
			}
			per[i] = float64(rs.wall)
		}
		return medianOf(per), nil
	}
	one, err := wall(1)
	if err != nil {
		return err
	}
	many, err := wall(nproc)
	if err != nil {
		return err
	}
	out["runner.parallel_efficiency"] = one / (many * float64(nproc))
	return nil
}
