package optoracle

import (
	"slices"
	"testing"

	"p4update/internal/controlplane"
	"p4update/internal/dataplane"
	"p4update/internal/sim"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

// TestScheduleFig1 checks the Fig. 1 update (v0-v4-v2-v7 to
// v0-v1-...-v7) by hand. Round 1 installs the fresh nodes v6, v5, v3, v1.
// Round 2 moves v4 (v5-v6-v7 is confirmed) and v0 (v1 leads to v2,
// which still delivers via v7). v2 must wait for round 3: before v4
// moves, v2's new hop v3 leads to v4, whose old hop is v2 — a loop.
func TestScheduleFig1(t *testing.T) {
	oldP, newP := topo.SyntheticPaths()
	got := Schedule(oldP, newP)
	want := [][]topo.NodeID{{6, 5, 3, 1}, {4, 0}, {2}}
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("schedule %v, want %v", got, want)
	}
	if len(Schedule(oldP, newP)) < 2 {
		t.Errorf("Fig. 1 needs at least two rounds (v2 waits on v4)")
	}
}

func TestScheduleUnchangedPathNeedsNoRounds(t *testing.T) {
	_, p := topo.SyntheticPaths()
	if got := Schedule(p, p); len(got) != 0 {
		t.Errorf("unchanged path scheduled %v, want no rounds", got)
	}
}

// TestScheduleRoundPrefixesStayConsistent replays every round prefix of
// the Fig. 1 schedule and of the schedules between B4's k-shortest
// paths, and walks the confirmed view from every node holding a rule:
// each walk must reach the egress without a loop or a rule-less node.
func TestScheduleRoundPrefixesStayConsistent(t *testing.T) {
	oldP, newP := topo.SyntheticPaths()
	pairs := [][2][]topo.NodeID{{oldP, newP}}
	g := topo.B4()
	for _, ends := range [][2]topo.NodeID{{0, 11}, {2, 9}, {5, 7}} {
		paths := g.KShortestPaths(ends[0], ends[1], 6, topo.ByLatency)
		for _, a := range paths {
			for _, b := range paths {
				pairs = append(pairs, [2][]topo.NodeID{a, b})
			}
		}
	}
	for _, p := range pairs {
		oldP, newP := p[0], p[1]
		batches := Schedule(oldP, newP)
		var moved []topo.NodeID
		for round := 0; round <= len(batches); round++ {
			if round > 0 {
				moved = append(moved, batches[round-1]...)
			}
			view := confirmedView(oldP, newP, moved)
			for n := range view {
				if !reachesEgress(view, n, newP[len(newP)-1]) {
					t.Fatalf("%v → %v after %d of %v: the walk from %d does not reach the egress (view %v)",
						oldP, newP, round, batches, n, view)
				}
			}
		}
		if got := len(moved); got != len(controlplane.ChangedNodes(oldP, newP)) {
			t.Errorf("%v → %v: schedule %v moves %d nodes, want every changed node", oldP, newP, batches, got)
		}
	}
}

// confirmedView is the next hop of every node holding a rule: the moved
// nodes' new one, every other node's old one, the egress itself.
func confirmedView(oldP, newP, moved []topo.NodeID) map[topo.NodeID]topo.NodeID {
	view := map[topo.NodeID]topo.NodeID{}
	for i, n := range oldP {
		view[n] = oldP[min(i+1, len(oldP)-1)]
	}
	for i, n := range newP {
		if slices.Contains(moved, n) || i == len(newP)-1 {
			view[n] = newP[min(i+1, len(newP)-1)]
		}
	}
	return view
}

func reachesEgress(view map[topo.NodeID]topo.NodeID, from, egress topo.NodeID) bool {
	seen := map[topo.NodeID]bool{}
	for cur := from; !seen[cur]; {
		seen[cur] = true
		nxt, ok := view[cur]
		if !ok {
			return false
		}
		if nxt == cur {
			return cur == egress
		}
		cur = nxt
	}
	return false
}

// TestExecutorSendsScheduledRounds runs the Fig. 1 update fault-free
// through the executor: it completes having sent exactly the schedule,
// batch for batch.
func TestExecutorSendsScheduledRounds(t *testing.T) {
	eng := sim.New(1)
	eng.MaxEvents = 1_000_000
	eng.Trace = trace.New(trace.Options{})
	net := dataplane.NewNetwork(eng, topo.Synthetic())
	net.SetHandler(&controlplane.Agent{Apply: trace.CodeApplyOracle})
	controlplane.UseCentroidControl(net)
	ctl := controlplane.NewController(net)
	co := NewCoordinator(ctl)
	oldP, newP := topo.SyntheticPaths()
	f, err := ctl.RegisterFlow(oldP[0], oldP[len(oldP)-1], oldP, 1000)
	if err != nil {
		t.Fatal(err)
	}
	u, err := co.TriggerUpdate(f, newP)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !u.Done() {
		t.Fatal("oracle execution did not complete")
	}
	want := Schedule(oldP, newP)
	if int(co.Rounds) != len(want) {
		t.Errorf("executor sent %d rounds, schedule has %d", co.Rounds, len(want))
	}
	var sizes []int
	for _, e := range eng.Trace.Events() {
		if e.Kind == trace.KindRound {
			sizes = append(sizes, int(e.A))
		}
	}
	for i, b := range want {
		if i >= len(sizes) || sizes[i] != len(b) {
			t.Fatalf("round sizes %v, want the schedule's %v", sizes, want)
		}
	}
}
