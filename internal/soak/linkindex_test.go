package soak

import (
	"math/rand"
	"slices"
	"testing"

	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/traffic"
)

// randomSimplePath walks from a random node to random unvisited
// neighbours until it has want nodes or gets stuck.
func randomSimplePath(g *topo.Topology, rng *rand.Rand, want int) []topo.NodeID {
	path := []topo.NodeID{topo.NodeID(rng.Intn(g.NumNodes()))}
	for len(path) < want {
		var next []topo.NodeID
		for _, nb := range g.Neighbors(path[len(path)-1]) {
			if !slices.Contains(path, nb) {
				next = append(next, nb)
			}
		}
		if len(next) == 0 {
			break
		}
		path = append(path, next[rng.Intn(len(next))])
	}
	return path
}

// checkLinkIndex holds ix to the map reference: every link lists
// exactly the reference's flows, every stored position points back to
// its flow, every live flow's hops follow its path, and the sorted
// worklist of every link is the reference set in FlowID order.
func checkLinkIndex(t *testing.T, g *topo.Topology, ix linkIndex, ref map[topo.LinkID]map[packet.FlowID]bool, live map[packet.FlowID]*soakFlow) {
	t.Helper()
	var buf []*soakFlow
	for l := range ix {
		id := topo.LinkID(l)
		if len(ix[l]) != len(ref[id]) {
			t.Fatalf("link %d lists %d flows, reference %d", l, len(ix[l]), len(ref[id]))
		}
		for p, f := range ix[l] {
			if !ref[id][f.id] {
				t.Fatalf("link %d lists flow %d, not in the reference", l, f.id)
			}
			if !slices.Contains(f.hops, hopSlot{link: id, pos: int32(p)}) {
				t.Fatalf("flow %d sits at link %d position %d but records %v", f.id, l, p, f.hops)
			}
		}
		want := make([]packet.FlowID, 0, len(ref[id]))
		for f := range ref[id] {
			want = append(want, f)
		}
		slices.Sort(want)
		buf = ix.worklist(buf, id)
		for i, f := range buf {
			if f.id != want[i] {
				t.Fatalf("link %d worklist[%d] = flow %d, sorted reference %d", l, i, f.id, want[i])
			}
		}
	}
	for _, f := range live {
		if len(f.hops) != len(f.path)-1 {
			t.Fatalf("flow %d: %d hop slots for a %d-node path", f.id, len(f.hops), len(f.path))
		}
		for i, h := range f.hops {
			l, _ := g.LinkBetween(f.path[i], f.path[i+1])
			if h.link != l.ID || ix[h.link][h.pos] != f {
				t.Fatalf("flow %d hop %d: slot %v, path link %d", f.id, i, h, l.ID)
			}
		}
	}
}

// TestLinkIndexMatchesReference drives random arrivals, departures and
// reroutes through the intrusive link index on B4 and fat-tree K=4 and
// checks it against a map-of-sets reference after every operation.
// Random walks of up to inlineHops+5 nodes include paths past
// inlineHops hops, so the spilled hop slots are exercised too.
func TestLinkIndexMatchesReference(t *testing.T) {
	for _, g := range []*topo.Topology{topo.B4(), topo.FatTree(4)} {
		t.Run(g.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			ix := newLinkIndex(g)
			ref := make(map[topo.LinkID]map[packet.FlowID]bool)
			for l := 0; l < g.NumLinks(); l++ {
				ref[topo.LinkID(l)] = make(map[packet.FlowID]bool)
			}
			live := make(map[packet.FlowID]*soakFlow)
			var ids []packet.FlowID
			refAdd := func(f *soakFlow, add bool) {
				for i := 0; i+1 < len(f.path); i++ {
					l, _ := g.LinkBetween(f.path[i], f.path[i+1])
					if add {
						ref[l.ID][f.id] = true
					} else {
						delete(ref[l.ID], f.id)
					}
				}
			}
			spilled := 0
			setPath := func(f *soakFlow) {
				f.path = randomSimplePath(g, rng, 2+rng.Intn(inlineHops+4))
				if len(f.path)-1 > inlineHops {
					spilled++
				}
				ix.add(g, f)
				refAdd(f, true)
			}
			next := packet.FlowID(1)
			for op := 0; op < 3000; op++ {
				switch r := rng.Intn(10); {
				case r < 4 || len(ids) == 0: // arrival
					f := &soakFlow{id: next}
					next += packet.FlowID(1 + rng.Intn(3))
					live[f.id] = f
					ids = append(ids, f.id)
					setPath(f)
				case r < 7: // departure
					i := rng.Intn(len(ids))
					f := live[ids[i]]
					ix.remove(f)
					refAdd(f, false)
					delete(live, f.id)
					ids[i] = ids[len(ids)-1]
					ids = ids[:len(ids)-1]
				default: // reroute
					f := live[ids[rng.Intn(len(ids))]]
					ix.remove(f)
					refAdd(f, false)
					setPath(f)
				}
				checkLinkIndex(t, g, ix, ref, live)
			}
			if spilled == 0 {
				t.Fatalf("no path longer than %d hops: the spill path never ran", inlineHops)
			}
			for _, f := range live {
				ix.remove(f)
			}
			for l, fs := range ix {
				if len(fs) != 0 {
					t.Fatalf("link %d still lists %d flows after every flow left", l, len(fs))
				}
			}
		})
	}
}

// TestLinkIndexSteadyStateAllocatesNothing: once the link lists have
// grown to the live population, rerouting a flow whose path fits in its
// inline hop slots allocates nothing.
func TestLinkIndexSteadyStateAllocatesNothing(t *testing.T) {
	g := topo.FatTree(4)
	edges := topo.EdgeSwitches(g)
	ix := newLinkIndex(g)
	var flows []*soakFlow
	for i, s := range edges {
		f := &soakFlow{id: packet.FlowID(i), path: g.ShortestPath(s, edges[(i+3)%len(edges)], topo.ByLatency)}
		ix.add(g, f)
		flows = append(flows, f)
	}
	i := 0
	if a := testing.AllocsPerRun(200, func() {
		f := flows[i%len(flows)]
		i++
		ix.remove(f)
		ix.add(g, f)
	}); a != 0 {
		t.Fatalf("steady-state remove+add allocates %v times, want 0", a)
	}
}

// BenchmarkLinkIndex reroutes one of 11,000 flows per op on a jittered
// fat-tree K=16 — the churn-k16 live population — moving it to another
// flow's edge-to-edge shortest path: one remove and one add.
func BenchmarkLinkIndex(b *testing.B) {
	g := topo.FatTree(16)
	traffic.JitterLatencies(g, 1, 0.2)
	edges := topo.EdgeSwitches(g)
	rng := rand.New(rand.NewSource(1))
	const n = 11000
	ix := newLinkIndex(g)
	flows := make([]*soakFlow, n)
	paths := make([][]topo.NodeID, n)
	for i := range flows {
		s, d := edges[rng.Intn(len(edges))], edges[rng.Intn(len(edges))]
		for d == s {
			d = edges[rng.Intn(len(edges))]
		}
		paths[i] = g.ShortestPath(s, d, topo.ByLatency)
		flows[i] = &soakFlow{id: packet.FlowID(i), path: paths[i]}
		ix.add(g, flows[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := flows[rng.Intn(n)]
		ix.remove(f)
		f.path = paths[rng.Intn(n)]
		ix.add(g, f)
	}
}
