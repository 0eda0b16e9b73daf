// Package traffic generates evaluation workloads: gravity-model traffic
// matrices (Roughan, CCR'05) and the multi-flow update scenario of the
// paper's §9.1 (every node picks a uniform-random destination, the old
// path is the shortest path, the new path the 2nd-shortest, and flow
// sizes are drawn from the gravity model scaled close to capacity, with
// rejection sampling until the configuration is feasible).
package traffic

import (
	"fmt"
	"math/rand"
	"sort"

	"p4update/internal/controlplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
)

// FlowSpec is one flow of a workload with its update intent.
type FlowSpec struct {
	Src, Dst topo.NodeID
	Old, New []topo.NodeID
	SizeK    uint32
	// Salt disambiguates multiple flows over the same (src, dst) pair
	// (the scale workload exceeds a small topology's pair count); 0
	// keeps the historical pair-hash identifier.
	Salt uint16
}

// ID returns the flow's wire identifier.
func (f FlowSpec) ID() packet.FlowID {
	return packet.HashFlowSalt(uint16(f.Src), uint16(f.Dst), f.Salt)
}

// GravityWeights draws one positive weight per node (exponential, mean 1).
func GravityWeights(t *topo.Topology, rng *rand.Rand) []float64 {
	w := make([]float64, t.NumNodes())
	for i := range w {
		w[i] = rng.ExpFloat64() + 0.05 // avoid degenerate zero weights
	}
	return w
}

func weightSum(w []float64) float64 {
	var sum float64
	for _, x := range w {
		sum += x
	}
	return sum
}

// gravityDemand returns the gravity-model demand fraction between src
// and dst: w_s * w_d / sum^2, so that all pairwise demands sum to ~1
// when sum is the weights' sum.
func gravityDemand(w []float64, sum float64, src, dst topo.NodeID) float64 {
	return w[src] * w[dst] / (sum * sum)
}

// Config tunes workload generation.
type Config struct {
	// Utilization is the target fraction of the bottleneck capacity the
	// generated traffic aims for ("close to the network's capacity").
	Utilization float64
	// MaxAttempts bounds the rejection sampling.
	MaxAttempts int
	// Candidates restricts sources/destinations (nil = all nodes); the
	// fat-tree scenario uses the edge switches.
	Candidates []topo.NodeID
}

// DefaultConfig mirrors the paper's multi-flow setup.
func DefaultConfig() Config {
	return Config{Utilization: 0.85, MaxAttempts: 400}
}

// MultiFlowWorkload builds the §9.1 multiple-flow scenario: one flow per
// candidate node to a uniform-random distinct destination, old = shortest
// path, new = 2nd-shortest path, gravity sizes scaled to the target
// utilization, resampled until both the old and the new configuration
// respect every link capacity.
func MultiFlowWorkload(t *topo.Topology, rng *rand.Rand, cfg Config) ([]FlowSpec, error) {
	nodes := cfg.Candidates
	if nodes == nil {
		nodes = t.Nodes()
	}
	if len(nodes) < 2 {
		return nil, fmt.Errorf("traffic: need at least two candidate nodes")
	}
	attempts := cfg.MaxAttempts
	if attempts <= 0 {
		attempts = 200
	}
	for a := 0; a < attempts; a++ {
		flows, ok := sampleWorkload(t, rng, cfg, nodes)
		if ok {
			return flows, nil
		}
	}
	return nil, fmt.Errorf("traffic: no feasible workload in %d attempts", attempts)
}

func sampleWorkload(t *topo.Topology, rng *rand.Rand, cfg Config, nodes []topo.NodeID) ([]FlowSpec, bool) {
	w := GravityWeights(t, rng)
	var flows []FlowSpec
	seenPair := map[[2]topo.NodeID]bool{}
	for _, src := range nodes {
		dst := nodes[rng.Intn(len(nodes))]
		for dst == src {
			dst = nodes[rng.Intn(len(nodes))]
		}
		if seenPair[[2]topo.NodeID{src, dst}] {
			continue // FlowIDs hash the pair; avoid duplicates
		}
		seenPair[[2]topo.NodeID{src, dst}] = true
		// Hop-count shortest paths, as in the paper's path selection; the
		// 2nd-shortest detour then often crosses links other flows vacate,
		// creating the inter-flow dependencies the scenario targets.
		paths := t.KShortestPaths(src, dst, 2, topo.ByHops)
		if len(paths) < 2 {
			return nil, false
		}
		flows = append(flows, FlowSpec{
			Src: src, Dst: dst, Old: paths[0], New: paths[1],
		})
	}
	// Scale gravity demands so the most loaded link of the old
	// configuration reaches the target utilization.
	demands := make([]float64, len(flows))
	loads := make([]float64, t.NumLinks()) // demand units per link, by LinkID
	wsum := weightSum(w)
	for i, f := range flows {
		demands[i] = gravityDemand(w, wsum, f.Src, f.Dst)
		for j := 0; j+1 < len(f.Old); j++ {
			l, _ := t.LinkBetween(f.Old[j], f.Old[j+1])
			loads[l.ID] += demands[i] / (l.Capacity * 1000)
		}
	}
	var maxLoadFrac float64
	for _, frac := range loads {
		if frac > maxLoadFrac {
			maxLoadFrac = frac
		}
	}
	if maxLoadFrac == 0 {
		return nil, false
	}
	scale := cfg.Utilization / maxLoadFrac
	for i := range flows {
		// addLoad normalized by capacities in kbps, so demand*scale is
		// already a kbps size.
		k := uint32(demands[i] * scale)
		if k == 0 {
			k = 1
		}
		flows[i].SizeK = k
	}
	// Feasibility: both configurations must respect every capacity, and
	// the transition must be performable by atomic per-flow moves in some
	// order (consistent migration can be impossible otherwise — the
	// 15-puzzle effect of §7.4; the paper regenerates such traffic).
	if !Feasible(t, flows, false) || !Feasible(t, flows, true) || !Transitionable(t, flows) {
		return nil, false
	}
	return flows, true
}

// ManyFlowWorkload builds the scale scenario: n simultaneous flow
// updates between uniform-random candidate pairs, old = shortest path,
// new = 2nd-shortest (hop count, as in the multi-flow scenario), unit
// flow sizes so link capacity never binds — the scale regime measures
// coordination cost across hundreds of concurrent updates, not
// congestion resolution. When n exceeds the number of distinct pairs,
// pairs repeat with an increasing Salt so every flow keeps a distinct
// wire ID. Path pairs are memoized per (src, dst), so on a frozen
// topology the whole workload costs two Dijkstra-backed queries per
// distinct pair — once per grid, not per trial.
func ManyFlowWorkload(t *topo.Topology, rng *rand.Rand, n int, candidates []topo.NodeID) ([]FlowSpec, error) {
	nodes := candidates
	if nodes == nil {
		nodes = t.Nodes()
	}
	if len(nodes) < 2 {
		return nil, fmt.Errorf("traffic: need at least two candidate nodes")
	}
	if n <= 0 {
		return nil, fmt.Errorf("traffic: need a positive flow count, got %d", n)
	}
	type pathPair struct {
		old, new []topo.NodeID
		ok       bool
	}
	memo := make(map[[2]topo.NodeID]pathPair)
	salts := make(map[[2]topo.NodeID]uint16)
	used := make(map[packet.FlowID]bool, n)
	flows := make([]FlowSpec, 0, n)
	maxAttempts := 50*n + 1000
	for attempts := 0; len(flows) < n; attempts++ {
		if attempts > maxAttempts {
			return nil, fmt.Errorf("traffic: only %d of %d flows in %d attempts (too few pairs with alternative paths in %s)",
				len(flows), n, maxAttempts, t.Name)
		}
		src := nodes[rng.Intn(len(nodes))]
		dst := nodes[rng.Intn(len(nodes))]
		if dst == src {
			continue
		}
		key := [2]topo.NodeID{src, dst}
		pp, seen := memo[key]
		if !seen {
			if paths := t.KShortestPaths(src, dst, 2, topo.ByHops); len(paths) >= 2 {
				pp = pathPair{old: paths[0], new: paths[1], ok: true}
			}
			memo[key] = pp
		}
		if !pp.ok {
			continue
		}
		salt := salts[key]
		id := packet.HashFlowSalt(uint16(src), uint16(dst), salt)
		for used[id] {
			// Skip over 32-bit hash collisions with already-issued IDs.
			salt++
			id = packet.HashFlowSalt(uint16(src), uint16(dst), salt)
		}
		salts[key] = salt + 1
		used[id] = true
		flows = append(flows, FlowSpec{
			Src: src, Dst: dst, Old: pp.old, New: pp.new, SizeK: 1, Salt: salt,
		})
	}
	return flows, nil
}

// Transitionable reports whether some sequential order of atomic per-flow
// moves migrates the old configuration to the new one without ever
// exceeding a link capacity. Greedy selection is sound here: moving a
// flow only releases capacity for the rest, so any greedily movable flow
// can be moved first.
func Transitionable(t *topo.Topology, flows []FlowSpec) bool {
	// Per link, by LinkID: the load it carries, and the flow (index+1)
	// whose old path was last marked on it — a flow re-marks its own old
	// path before it reads the marks, so they never need clearing.
	links := make([]struct {
		load  uint64
		oldOf int
	}, t.NumLinks())
	add := func(path []topo.NodeID, k uint32, sign int) {
		for i := 0; i+1 < len(path); i++ {
			l, _ := t.LinkBetween(path[i], path[i+1])
			if sign > 0 {
				links[l.ID].load += uint64(k)
			} else {
				links[l.ID].load -= uint64(k)
			}
		}
	}
	for _, f := range flows {
		add(f.Old, f.SizeK, +1)
	}
	moved := make([]bool, len(flows))
	remaining := len(flows)
	for remaining > 0 {
		progress := false
		for i, f := range flows {
			if moved[i] {
				continue
			}
			fits := true
			for j := 0; j+1 < len(f.Old); j++ {
				l, _ := t.LinkBetween(f.Old[j], f.Old[j+1])
				links[l.ID].oldOf = i + 1
			}
			for j := 0; j+1 < len(f.New); j++ {
				l, _ := t.LinkBetween(f.New[j], f.New[j+1])
				if links[l.ID].oldOf == i+1 {
					continue // capacity already held on shared links
				}
				if links[l.ID].load+uint64(f.SizeK) > uint64(l.Capacity*1000) {
					fits = false
					break
				}
			}
			if !fits {
				continue
			}
			add(f.Old, f.SizeK, -1)
			add(f.New, f.SizeK, +1)
			moved[i] = true
			remaining--
			progress = true
		}
		if !progress {
			return false
		}
	}
	return true
}

// SegmentedSingleFlow searches old/new path pairs (both drawn from the
// k-shortest sets of every node pair) for the combination whose dual-layer
// segmentation is richest in backward segments with interior nodes — the
// paper's single-flow scenario intentionally selects both paths "to
// traverse a long distance within the topology and to trigger
// segmentation" (§9.1). The search is deterministic; compute it once per
// topology and reuse the result across runs.
func SegmentedSingleFlow(t *topo.Topology, sizeK uint32) (FlowSpec, error) {
	bestScore := 0
	var spec FlowSpec
	oldPos := offPath(t)
	for _, s := range t.Nodes() {
		for _, d := range t.Nodes() {
			if d <= s {
				continue
			}
			paths := t.KShortestPaths(s, d, 30, topo.ByLatency)
			for i, old := range paths {
				markPath(oldPos, old)
				for j, nw := range paths {
					// Skip a new path too short to beat bestScore. With q
					// of its nodes on the old path (q ≥ 2: src and dst),
					// at most q−2 of the segments between them are
					// backward — the one ending at dst, which has the
					// largest old-path index, never is — and interiors
					// are off-path nodes, at most len(nw)−q. So score ≤
					// (q−2) + 2(len(nw)−q) ≤ 2·len(nw) − 4, and only a
					// strict improvement is kept.
					if i == j || 2*len(nw)-4 <= bestScore {
						continue
					}
					backward, interiors := controlplane.BackwardSegments(oldPos, nw)
					if score := backward + 2*interiors; score > bestScore {
						bestScore = score
						spec = FlowSpec{Src: s, Dst: d, Old: old, New: nw, SizeK: sizeK}
					}
				}
				unmarkPath(oldPos, old)
			}
		}
	}
	if bestScore == 0 {
		return SingleLongFlow(t, sizeK)
	}
	return spec, nil
}

// offPath returns the position array controlplane.BackwardSegments
// reads, one slot per node, with no path marked (-1 everywhere).
func offPath(t *topo.Topology) []int32 {
	pos := make([]int32, t.NumNodes())
	for i := range pos {
		pos[i] = -1
	}
	return pos
}

// markPath records every node's index on path in pos; unmarkPath puts
// the -1s back, so one array serves every old path of a search.
func markPath(pos []int32, path []topo.NodeID) {
	for i, n := range path {
		pos[n] = int32(i)
	}
}

func unmarkPath(pos []int32, path []topo.NodeID) {
	for _, n := range path {
		pos[n] = -1
	}
}

// Feasible reports whether the old (useNew=false) or new (useNew=true)
// configuration respects all link capacities.
func Feasible(t *topo.Topology, flows []FlowSpec, useNew bool) bool {
	loads := make([]uint64, t.NumLinks()) // by LinkID
	for _, f := range flows {
		path := f.Old
		if useNew {
			path = f.New
		}
		for i := 0; i+1 < len(path); i++ {
			l, _ := t.LinkBetween(path[i], path[i+1])
			loads[l.ID] += uint64(f.SizeK)
		}
	}
	for id, load := range loads {
		if load > uint64(t.Link(topo.LinkID(id)).Capacity*1000) {
			return false
		}
	}
	return true
}

// SingleLongFlow returns the paper's single-flow scenario: a flow between
// the latency-farthest node pair whose old and new paths "have been
// intentionally selected to traverse a long distance within the topology
// and to trigger segmentation" (§9.1). It walks the node pairs from the
// latency-farthest down, takes each pair's shortest path as the old path
// and its other k-shortest paths (k=40) as the candidates, and returns,
// for the first pair where any candidate has a backward segment, the
// candidate with the highest backward-segments-plus-interiors score
// (the earliest on a tie). If no pair has one, it falls back to the
// farthest pair with an alternative and its alternative with the most
// hops.
func SingleLongFlow(t *topo.Topology, sizeK uint32) (FlowSpec, error) {
	type pair struct {
		s, d topo.NodeID
		dist float64
	}
	var pairs []pair
	for _, s := range t.Nodes() {
		dist := t.Distances(s, topo.ByLatency)
		for d, v := range dist {
			if topo.NodeID(d) > s && v < 1e18 {
				pairs = append(pairs, pair{s, topo.NodeID(d), v})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].dist > pairs[j].dist })

	var fallback *FlowSpec
	oldPos := offPath(t)
	for _, pr := range pairs {
		paths := t.KShortestPaths(pr.s, pr.d, 40, topo.ByLatency)
		if len(paths) < 2 {
			continue
		}
		old := paths[0]
		if fallback == nil {
			longest := paths[1]
			for _, cand := range paths[1:] {
				if len(cand) > len(longest) {
					longest = cand
				}
			}
			fallback = &FlowSpec{Src: pr.s, Dst: pr.d, Old: old, New: longest, SizeK: sizeK}
		}
		// Prefer the candidate whose backward segments hold the most
		// interior nodes — those are the updates dual-layer verification
		// accelerates (interiors pre-install while the gateway waits).
		var best []topo.NodeID
		bestScore := 0
		markPath(oldPos, old)
		for _, cand := range paths[1:] {
			backward, interiors := controlplane.BackwardSegments(oldPos, cand)
			if score := backward + interiors; score > bestScore {
				bestScore = score
				best = cand
			}
		}
		unmarkPath(oldPos, old)
		if best != nil {
			return FlowSpec{Src: pr.s, Dst: pr.d, Old: old, New: best, SizeK: sizeK}, nil
		}
	}
	if fallback != nil {
		return *fallback, nil
	}
	return FlowSpec{}, fmt.Errorf("traffic: no alternative paths in %s", t.Name)
}
