package traffic

import (
	"math/rand"
	"testing"
	"time"

	"p4update/internal/packet"
	"p4update/internal/topo"
)

// refChurnArrivals is the map-keyed salt generator NextArrival replaced:
// the reference the dense salt table must reproduce.
type refChurnArrivals struct {
	cfg   ChurnConfig
	rng   *rand.Rand
	nodes []topo.NodeID
	salts map[[2]topo.NodeID]uint16
	tArr  time.Duration
}

func (w *refChurnArrivals) next(taken func(packet.FlowID) bool) (ChurnArrival, bool) {
	dt := w.rng.ExpFloat64() / w.cfg.ArrivalRate
	w.tArr += time.Duration(dt * float64(time.Second))
	if w.tArr > w.cfg.Duration {
		return ChurnArrival{}, false
	}
	src := w.nodes[w.rng.Intn(len(w.nodes))]
	dst := w.nodes[w.rng.Intn(len(w.nodes))]
	for dst == src {
		dst = w.nodes[w.rng.Intn(len(w.nodes))]
	}
	key := [2]topo.NodeID{src, dst}
	salt := w.salts[key]
	for taken(packet.HashFlowSalt(uint16(src), uint16(dst), salt)) {
		salt++
	}
	w.salts[key] = salt + 1
	life := time.Duration(w.rng.ExpFloat64() * float64(w.cfg.MeanLifetime))
	if life <= 0 {
		life = time.Nanosecond
	}
	return ChurnArrival{At: w.tArr, Src: src, Dst: dst, Salt: salt, Lifetime: life}, true
}

// liveIDs is a taken oracle for one generator: the IDs whose arrivals
// have not yet departed, plus every fifth ID, so the salt-bump loop runs
// on a share of arrivals. hits counts the IDs it refused.
type liveIDs struct {
	until map[packet.FlowID]time.Duration
	hits  int
}

func (l *liveIDs) taken(at time.Duration) func(packet.FlowID) bool {
	return func(f packet.FlowID) bool {
		end, ok := l.until[f]
		if f%5 == 0 || (ok && end > at) {
			l.hits++
			return true
		}
		return false
	}
}

// TestChurnSaltsMatchMapReference draws the first 10,000 arrivals of a
// churn workload on fat-tree K=4 (edge switches and all switches) and
// B4, and checks each against the map-keyed reference generator fed the
// same seed and the same liveness answers.
func TestChurnSaltsMatchMapReference(t *testing.T) {
	const n = 10_000
	k4 := topo.FatTree(4)
	cases := []struct {
		name  string
		g     *topo.Topology
		nodes []topo.NodeID
	}{
		{"fattree4-edge", k4, topo.EdgeSwitches(k4)},
		{"fattree4-all", k4, nil},
		{"b4", topo.B4(), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ChurnConfig{
				ArrivalRate:  10_000,
				MeanLifetime: 300 * time.Millisecond,
				Duration:     time.Hour,
				Candidates:   tc.nodes,
			}
			const seed = 11
			w, err := NewChurnWorkload(tc.g, seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			nodes := tc.nodes
			if nodes == nil {
				nodes = tc.g.Nodes()
			}
			ref := &refChurnArrivals{cfg: cfg, rng: rand.New(rand.NewSource(seed)), nodes: nodes,
				salts: make(map[[2]topo.NodeID]uint16)}
			got := &liveIDs{until: map[packet.FlowID]time.Duration{}}
			want := &liveIDs{until: map[packet.FlowID]time.Duration{}}
			var at time.Duration
			for i := 0; i < n; i++ {
				a, ok := w.NextArrival(got.taken(at))
				r, rok := ref.next(want.taken(at))
				if !ok || !rok {
					t.Fatalf("arrival %d: generator ended (dense %v, reference %v)", i, ok, rok)
				}
				if a != r {
					t.Fatalf("arrival %d: dense table %+v, map reference %+v", i, a, r)
				}
				at = a.At
				got.until[a.ID()] = a.At + a.Lifetime
				want.until[r.ID()] = r.At + r.Lifetime
			}
			if got.hits < n/10 {
				t.Fatalf("only %d salts bumped: the taken path went unexercised", got.hits)
			}
		})
	}
}

// TestChurnRejectsDuplicateCandidates: a candidate's position stands for
// its node, so a node listed twice is refused.
func TestChurnRejectsDuplicateCandidates(t *testing.T) {
	g := topo.FatTree(4)
	_, err := NewChurnWorkload(g, 1, ChurnConfig{
		ArrivalRate: 1, MeanLifetime: time.Second, Duration: time.Second,
		Candidates: []topo.NodeID{0, 1, 0},
	})
	if err == nil {
		t.Fatal("duplicate candidate accepted")
	}
}
