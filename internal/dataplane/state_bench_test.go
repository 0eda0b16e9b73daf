package dataplane

import (
	"fmt"
	"math/rand"
	"testing"

	"p4update/internal/packet"
	"p4update/internal/sim"
	"p4update/internal/topo"
)

// TestInstallRetireSteadyStateZeroAllocs: once a recycled population is
// warm, installing and retiring flows allocates nothing — slots come
// off the interner's free list, state blocks off the fabric slab's, and a
// slot whose holder set spilled keeps its spill capacity for the next
// tenant. Every flow is installed along two arcs of a 14-switch ring,
// an old path and a new one as a reroute leaves them, so holder sets
// are inline and spilled alike. (Arcs stay at 8 switches or fewer:
// topo.ValidatePath allocates for longer paths.)
func TestInstallRetireSteadyStateZeroAllocs(t *testing.T) {
	const nodes = 14
	net, _ := ringNet(nodes)
	rng := rand.New(rand.NewSource(1))
	arc := func() []topo.NodeID {
		start := rng.Intn(nodes)
		path := make([]topo.NodeID, 2+rng.Intn(7))
		for k := range path {
			path[k] = topo.NodeID((start + k) % nodes)
		}
		return path
	}
	type fl struct {
		id       packet.FlowID
		old, new []topo.NodeID
	}
	flows := make([]fl, 64)
	for i := range flows {
		flows[i] = fl{packet.FlowID(1000 + i), arc(), arc()}
	}
	install := func() {
		for _, f := range flows {
			net.InstallPath(f.id, f.old, 1, 1)
			net.InstallPath(f.id, f.new, 2, 1)
		}
	}
	retire := func() {
		for _, f := range flows {
			net.RetireFlow(f.id)
		}
	}
	cycle := func() { install(); retire() }
	install()
	spilled := 0
	for i := range net.flows.holders {
		if net.flows.holders[i].n > holderInline {
			spilled++
		}
	}
	if spilled == 0 {
		t.Fatal("no flow's holder set spilled")
	}
	retire()
	// The free list is LIFO, so consecutive cycles hand a slot to two
	// different flows in turn: warm both.
	cycle()
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("steady-state install/retire cycle allocates %.2f objects, want 0", avg)
	}
}

// BenchmarkInstallRetireK16 holds about 11k live flows between random
// edge switches of a fat-tree K=16 (320 switches), the churn-k16
// population the ledger's install/retire probe cycles, and per
// iteration retires the oldest flow and installs a new one along its
// shortest path, so slots and state blocks recycle.
func BenchmarkInstallRetireK16(b *testing.B) {
	const live = 11_000
	g := topo.FatTree(16)
	net := NewNetwork(sim.New(1), g)
	edges := topo.EdgeSwitches(g)
	rng := rand.New(rand.NewSource(1))
	paths := make([][]topo.NodeID, 0, 2*live)
	for len(paths) < cap(paths) {
		s, d := edges[rng.Intn(len(edges))], edges[rng.Intn(len(edges))]
		if s != d {
			paths = append(paths, g.ShortestPath(s, d, topo.ByHops))
		}
	}
	for i := 0; i < live; i++ {
		net.InstallPath(packet.FlowID(i), paths[i], 1, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.RetireFlow(packet.FlowID(i))
		f := i + live
		net.InstallPath(packet.FlowID(f), paths[f%len(paths)], 1, 1)
	}
}

// BenchmarkStateLookup resolves (switch, flow) to its state block, the
// lookup every handler call starts with: for one flow held by 1, 8 (a
// full set on most fabrics) and 12 switches, cycling over the holders
// with everything in L1; and, in b4-random, for random (holder, flow)
// pairs over 2,000 flows on B4, each installed along up to three
// shortest paths, which misses the cache the way a busy fabric does.
func BenchmarkStateLookup(b *testing.B) {
	for _, holders := range []int{1, 8, 12} {
		b.Run(fmt.Sprintf("holders=%d", holders), func(b *testing.B) {
			net, _ := ringNet(16)
			const f = packet.FlowID(7)
			sws := make([]*Switch, holders)
			for k := range sws {
				sws[k] = net.Switch(topo.NodeID(k))
				sws[k].State(f)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkState = sws[i%holders].State(f)
			}
		})
	}
	b.Run("b4-random", func(b *testing.B) {
		g := topo.B4()
		net := NewNetwork(sim.New(1), g)
		rng := rand.New(rand.NewSource(1))
		type pair struct {
			sw *Switch
			f  packet.FlowID
		}
		var pairs []pair
		for f := packet.FlowID(1); f <= 2000; f++ {
			s, d := topo.NodeID(rng.Intn(g.NumNodes())), topo.NodeID(rng.Intn(g.NumNodes()))
			if s == d {
				continue
			}
			for v, p := range g.KShortestPaths(s, d, 1+rng.Intn(3), topo.ByHops) {
				net.InstallPath(f, p, uint32(v+1), 1)
			}
			for _, sw := range net.Switches() {
				if _, ok := sw.PeekState(f); ok {
					pairs = append(pairs, pair{sw, f})
				}
			}
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			sinkState, _ = p.sw.PeekState(p.f)
		}
	})
}

var sinkState *FlowState
