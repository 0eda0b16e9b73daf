package traffic

import (
	"fmt"
	"math/rand"
	"time"

	"p4update/internal/packet"
	"p4update/internal/topo"
)

// ChurnConfig tunes a streaming churn workload.
type ChurnConfig struct {
	// ArrivalRate is the mean flow arrival rate in flows per second of
	// virtual time (Poisson process).
	ArrivalRate float64
	// MeanLifetime is the mean flow lifetime (exponential); steady-state
	// live population approaches ArrivalRate * MeanLifetime.
	MeanLifetime time.Duration
	// Duration is the admission window: no arrivals or reroute triggers
	// are generated past it.
	Duration time.Duration
	// RerouteEvery is the mean interval between single-link latency
	// perturbations (Poisson; 0 disables reroutes).
	RerouteEvery time.Duration
	// LatencyJitter is the one-time per-link multiplicative latency
	// jitter applied when the workload is created: each link's latency
	// is scaled by a seeded uniform factor in [1, 1+LatencyJitter].
	// Equal-cost topologies (fat-trees) need this so shortest paths are
	// unique and incremental oracle repair is path-exact (see
	// internal/topo/repair.go); 0 disables it.
	LatencyJitter float64
	// Candidates restricts flow endpoints (nil = all nodes); fat-tree
	// churn uses the edge switches.
	Candidates []topo.NodeID
}

// ChurnArrival is one flow arrival event.
type ChurnArrival struct {
	At       time.Duration
	Src, Dst topo.NodeID
	Salt     uint16
	Lifetime time.Duration
}

// ID returns the arrival's wire flow identifier.
func (a ChurnArrival) ID() packet.FlowID {
	return packet.HashFlowSalt(uint16(a.Src), uint16(a.Dst), a.Salt)
}

// ChurnReroute is one link perturbation event: the link's latency is
// set to Factor times its (post-jitter) base latency, forcing every
// flow whose shortest path changes to be rerouted.
type ChurnReroute struct {
	At     time.Duration
	Link   topo.LinkID
	Factor float64
}

// ChurnWorkload is a deterministic generator of Poisson flow
// arrivals/departures and continuous reroute triggers over virtual
// time. The two event streams draw from independent seeded RNGs, so
// consuming one stream never perturbs the other, and the whole
// workload is reproducible across worker counts (the harness drives
// both streams from engine events in a fixed order).
type ChurnWorkload struct {
	t   *topo.Topology
	cfg ChurnConfig

	arrivals *rand.Rand
	reroutes *rand.Rand
	nodes    []topo.NodeID
	// salts is the next salt per ordered candidate pair, indexed by the
	// two candidates' positions in nodes (src*len(nodes) + dst): 32 KB
	// for the 128 edge switches of a fat-tree K=16.
	salts []uint16
	tArr  time.Duration
	tRr   time.Duration
	base  []time.Duration // post-jitter per-link base latencies
}

// NewChurnWorkload validates cfg and seeds the generator, applying the
// configured latency jitter to t (which must be unfrozen when
// LatencyJitter > 0).
func NewChurnWorkload(t *topo.Topology, seed int64, cfg ChurnConfig) (*ChurnWorkload, error) {
	if cfg.ArrivalRate <= 0 {
		return nil, fmt.Errorf("traffic: churn needs a positive arrival rate, got %g", cfg.ArrivalRate)
	}
	if cfg.MeanLifetime <= 0 {
		return nil, fmt.Errorf("traffic: churn needs a positive mean lifetime, got %v", cfg.MeanLifetime)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("traffic: churn needs a positive duration, got %v", cfg.Duration)
	}
	nodes := cfg.Candidates
	if nodes == nil {
		nodes = t.Nodes()
	}
	if len(nodes) < 2 {
		return nil, fmt.Errorf("traffic: churn needs at least two candidate nodes")
	}
	// A candidate's position stands for the node (the salt table, the
	// src != dst redraw), so each node may be listed once.
	seen := make([]bool, t.NumNodes())
	for _, n := range nodes {
		if n < 0 || int(n) >= len(seen) || seen[n] {
			return nil, fmt.Errorf("traffic: churn candidate %d is not a node or is listed twice", n)
		}
		seen[n] = true
	}
	w := &ChurnWorkload{
		t:        t,
		cfg:      cfg,
		arrivals: rand.New(rand.NewSource(seed)),
		reroutes: rand.New(rand.NewSource(seed ^ 0x5DEECE66D)),
		nodes:    nodes,
		salts:    make([]uint16, len(nodes)*len(nodes)),
	}
	if cfg.LatencyJitter > 0 {
		JitterLatencies(t, seed, cfg.LatencyJitter)
	}
	w.base = make([]time.Duration, t.NumLinks())
	for _, l := range t.Links() {
		w.base[l.ID] = l.Latency
	}
	return w, nil
}

// JitterLatencies applies a one-time seeded multiplicative latency
// jitter to every link of t: each latency is scaled by an independent
// uniform factor in [1, 1+jitter). Equal-cost topologies (fat-trees)
// need it so shortest paths are unique and incremental oracle repair
// is path-exact (see internal/topo/repair.go). t must be unfrozen.
// Callers that wire control latencies off the topology should jitter
// before wiring; NewChurnWorkload applies the same function when
// ChurnConfig.LatencyJitter is set.
func JitterLatencies(t *topo.Topology, seed int64, jitter float64) {
	jrng := rand.New(rand.NewSource(seed ^ 0x9E3779B9))
	for _, l := range t.Links() {
		f := 1 + jitter*jrng.Float64()
		t.SetLinkLatency(l.ID, time.Duration(float64(l.Latency)*f))
	}
}

// BaseLatency returns the post-jitter base latency of link id, the
// reference point reroute factors multiply (so repeated perturbations
// of one link never drift).
func (w *ChurnWorkload) BaseLatency(id topo.LinkID) time.Duration { return w.base[id] }

// NextArrival returns the next flow arrival, or false once the
// admission window is exhausted. taken reports whether a candidate
// FlowID is currently in use (live in the fabric); colliding IDs are
// skipped by bumping the pair's salt, which keeps every live wire ID
// unique without the generator tracking historical flows.
func (w *ChurnWorkload) NextArrival(taken func(packet.FlowID) bool) (ChurnArrival, bool) {
	dt := w.arrivals.ExpFloat64() / w.cfg.ArrivalRate
	w.tArr += time.Duration(dt * float64(time.Second))
	if w.tArr > w.cfg.Duration {
		return ChurnArrival{}, false
	}
	n := len(w.nodes)
	si := w.arrivals.Intn(n)
	di := w.arrivals.Intn(n)
	for di == si {
		di = w.arrivals.Intn(n)
	}
	src, dst := w.nodes[si], w.nodes[di]
	next := &w.salts[si*n+di]
	salt := *next
	for taken != nil && taken(packet.HashFlowSalt(uint16(src), uint16(dst), salt)) {
		salt++
	}
	*next = salt + 1
	life := time.Duration(w.arrivals.ExpFloat64() * float64(w.cfg.MeanLifetime))
	if life <= 0 {
		life = time.Nanosecond
	}
	return ChurnArrival{At: w.tArr, Src: src, Dst: dst, Salt: salt, Lifetime: life}, true
}

// NextReroute returns the next link perturbation, or false once the
// admission window is exhausted (or reroutes are disabled). Factors
// are uniform in [0.5, 2.0) around the link's base latency.
func (w *ChurnWorkload) NextReroute() (ChurnReroute, bool) {
	if w.cfg.RerouteEvery <= 0 {
		return ChurnReroute{}, false
	}
	w.tRr += time.Duration(w.reroutes.ExpFloat64() * float64(w.cfg.RerouteEvery))
	if w.tRr > w.cfg.Duration {
		return ChurnReroute{}, false
	}
	id := topo.LinkID(w.reroutes.Intn(w.t.NumLinks()))
	f := 0.5 + 1.5*w.reroutes.Float64()
	return ChurnReroute{At: w.tRr, Link: id, Factor: f}, true
}
