package topo

import (
	"math/rand"
	"testing"
	"time"
)

// jitterLatencies applies a deterministic per-link multiplicative
// jitter so shortest paths become unique (uniform fat-tree latencies
// are massively tied, and repaired tree paths are only guaranteed exact
// under unique optima — see repair.go).
func jitterLatencies(t *Topology, rng *rand.Rand) {
	for _, l := range t.Links() {
		f := 1 + 0.2*rng.Float64()
		t.SetLinkLatency(l.ID, time.Duration(float64(l.Latency)*f))
	}
}

// cloneWithLatencies rebuilds the topology via mk and copies the live
// instance's current per-link latencies in, before any oracle query —
// so every query against the clone is a cold full recompute.
func cloneWithLatencies(mk func() *Topology, live *Topology) *Topology {
	fresh := mk()
	for _, l := range live.Links() {
		fresh.SetLinkLatency(l.ID, l.Latency)
	}
	return fresh
}

// warm populates the live oracle's cache: every single-source sweep
// under both weights.
func warm(t *Topology) {
	for _, n := range t.Nodes() {
		t.Distances(n, ByLatency)
		t.Distances(n, ByHops)
	}
}

// compareAgainstFresh asserts that every query against the repaired
// live oracle matches a cold full recompute on an identical topology.
func compareAgainstFresh(t *testing.T, live, fresh *Topology) {
	t.Helper()
	nodes := live.Nodes()
	for _, w := range []Weight{ByLatency, ByHops} {
		for _, n := range nodes {
			got, want := live.Distances(n, w), fresh.Distances(n, w)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Distances(%d, %v)[%d] = %v, fresh recompute %v", n, w, i, got[i], want[i])
				}
			}
		}
	}
	// The Distances calls above left a tree per (source, weight) in both
	// oracles: hold the repaired parent pointers to the recomputed ones,
	// then the paths of all pairs walked out of them.
	lo, fo := live.Oracle(), fresh.Oracle()
	for _, w := range []Weight{ByLatency, ByHops} {
		for _, n := range nodes {
			got, want := lo.tree[distKey{n, w}].prev, fo.tree[distKey{n, w}].prev
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("tree(%d, %v): parent of %d is %d, fresh recompute %d", n, w, i, got[i], want[i])
				}
			}
		}
	}
	for _, s := range nodes {
		for _, d := range nodes {
			if s == d {
				continue
			}
			got, want := live.ShortestPath(s, d, ByLatency), fresh.ShortestPath(s, d, ByLatency)
			if !equalPath(got, want) {
				t.Fatalf("ShortestPath(%d,%d) = %v, fresh recompute %v", s, d, got, want)
			}
		}
	}
}

// TestRepairMatchesFullRecompute is the differential acceptance test
// for incremental oracle repair: a seeded sequence of single-link
// latency increases and decreases, after each of which every memoized
// query — distances, shortest-path-tree parents, the paths of all pairs
// — must equal a cold recompute on a topology built with the final
// latencies. It also holds the repair to being one: over
// the whole sequence the live oracle must not run a single new sweep.
//
// The late-trees case is the pattern streaming churn produces now that
// Centroid caches nothing: trees for half the sources are built, ~50
// perturbations are repaired into them, and only then are the other
// half's trees built, from the perturbed latencies. Both halves must
// answer like a cold recompute, with exactly one sweep per (source,
// weight) over the whole run.
func TestRepairMatchesFullRecompute(t *testing.T) {
	cases := []struct {
		name   string
		mk     func() *Topology
		jitter bool
	}{
		{"b4", B4, false},
		{"internet2", Internet2, false},
		{"fattree4", func() *Topology { return FatTree(4) }, true},
	}
	for _, tc := range cases {
		mk := tc.mk
		if tc.jitter {
			mk = func() *Topology {
				g := tc.mk()
				jitterLatencies(g, rand.New(rand.NewSource(42)))
				return g
			}
		}
		t.Run(tc.name, func(t *testing.T) {
			live := mk()
			base := baseLatencies(live)
			const rounds = 40
			warm(live)
			warmSweeps := live.Oracle().sweeps
			rng := rand.New(rand.NewSource(7))
			increases, decreases := 0, 0
			for round := 0; round < rounds; round++ {
				inc, dec := perturb(live, base, rng)
				increases, decreases = increases+inc, decreases+dec
				fresh := cloneWithLatencies(mk, live)
				compareAgainstFresh(t, live, fresh)
			}
			if increases == 0 || decreases == 0 {
				t.Fatalf("sequence not mixed: %d increases, %d decreases", increases, decreases)
			}
			if resweeps := live.Oracle().sweeps - warmSweeps; resweeps != 0 {
				t.Fatalf("%d re-sweeps over %d perturbations: repair must not drop a tree", resweeps, rounds)
			}
		})
		t.Run(tc.name+"-late-trees", func(t *testing.T) {
			live := mk()
			base := baseLatencies(live)
			nodes := live.Nodes()
			early, late := nodes[:len(nodes)/2], nodes[len(nodes)/2:]
			for _, n := range early {
				live.Distances(n, ByLatency)
				live.Distances(n, ByHops)
			}
			const rounds = 50
			rng := rand.New(rand.NewSource(11))
			increases, decreases := 0, 0
			for round := 0; round < rounds; round++ {
				inc, dec := perturb(live, base, rng)
				increases, decreases = increases+inc, decreases+dec
			}
			if increases == 0 || decreases == 0 {
				t.Fatalf("sequence not mixed: %d increases, %d decreases", increases, decreases)
			}
			for _, n := range late {
				live.Distances(n, ByLatency)
				live.Distances(n, ByHops)
			}
			compareAgainstFresh(t, live, cloneWithLatencies(mk, live))
			if sweeps, want := live.Oracle().sweeps, uint64(2*len(nodes)); sweeps != want {
				t.Fatalf("%d sweeps, want %d (one per source and weight, no re-sweep)", sweeps, want)
			}
		})
	}
}

// baseLatencies returns every link's current latency, by LinkID.
func baseLatencies(g *Topology) []time.Duration {
	base := make([]time.Duration, g.NumLinks())
	for _, l := range g.Links() {
		base[l.ID] = l.Latency
	}
	return base
}

// perturb sets one random link to a random factor in [0.5, 2) of its
// base latency and reports whether that was an increase or a decrease.
func perturb(g *Topology, base []time.Duration, rng *rand.Rand) (inc, dec int) {
	id := LinkID(rng.Intn(g.NumLinks()))
	lat := time.Duration(float64(base[id]) * (0.5 + 1.5*rng.Float64()))
	if was := g.Link(id).Latency; lat > was {
		inc = 1
	} else if lat < was {
		dec = 1
	}
	g.SetLinkLatency(id, lat)
	return inc, dec
}

// TestRepairNeverResweeps is the perf property behind the repair: no
// latency change — a decrease, an increase on a link some cached tree
// routes over, an increase on a link none does — drops a cached tree,
// runs a Dijkstra sweep or bumps the topology version, and the trees
// still answer like a cold recompute afterwards.
func TestRepairNeverResweeps(t *testing.T) {
	g := B4()
	// Sweep from a few sources only: with a tree from every node every
	// link is some tree's edge and the third case would not exist.
	for _, n := range g.Nodes()[:3] {
		g.Distances(n, ByLatency)
		g.Distances(n, ByHops)
	}
	o := g.Oracle()
	onTree := func(l Link) bool {
		for k, tr := range o.tree {
			if k.w == ByLatency && (tr.prev[l.A] == l.B || tr.prev[l.B] == l.A) {
				return true
			}
		}
		return false
	}
	var used, unused *Link
	for _, l := range g.Links() {
		l := l
		if onTree(l) {
			used = &l
		} else {
			unused = &l
		}
	}
	if used == nil || unused == nil {
		t.Fatalf("need a link on a cached tree and one on none: %v, %v", used, unused)
	}
	version, trees, sweeps := g.version, len(o.tree), o.sweeps
	for _, c := range []struct {
		name string
		id   LinkID
		lat  time.Duration
	}{
		{"increase on a tree edge", used.ID, used.Latency + 3*time.Millisecond},
		{"increase off every tree", unused.ID, unused.Latency + time.Millisecond},
		{"decrease", unused.ID, unused.Latency / 4},
	} {
		g.SetLinkLatency(c.id, c.lat)
		if len(o.tree) != trees || o.sweeps != sweeps {
			t.Fatalf("%s: %d trees, %d sweeps; want %d, %d (repair, not re-sweep)", c.name, len(o.tree), o.sweeps, trees, sweeps)
		}
		if g.version != version {
			t.Fatalf("%s: SetLinkLatency bumped the topology version: %d -> %d", c.name, version, g.version)
		}
		fresh := cloneWithLatencies(B4, g)
		for _, n := range g.Nodes()[:3] {
			fresh.Distances(n, ByLatency)
			got, want := o.tree[distKey{n, ByLatency}], fresh.Oracle().tree[distKey{n, ByLatency}]
			for i := range want.d {
				if got.d[i] != want.d[i] || got.prev[i] != want.prev[i] {
					t.Fatalf("%s: tree(%d) node %d = (%v, %d), fresh recompute (%v, %d)",
						c.name, n, i, got.d[i], got.prev[i], want.d[i], want.prev[i])
				}
			}
		}
	}
}

// TestSetLinkLatencyFrozenPanics pins the mutation guard.
func TestSetLinkLatencyFrozenPanics(t *testing.T) {
	g := B4()
	g.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("SetLinkLatency on a frozen topology did not panic")
		}
	}()
	g.SetLinkLatency(0, time.Millisecond)
}
