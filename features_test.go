package p4update_test

import (
	"testing"
	"time"

	"p4update"
	"p4update/internal/dataplane"
	"p4update/internal/faults"
	"p4update/internal/packet"
)

func TestFacadeFailureRecovery(t *testing.T) {
	g := p4update.Synthetic()
	net := p4update.NewNetwork(g,
		p4update.WithSeed(9),
		p4update.WithFailureRecovery(400*time.Millisecond, 3),
	)
	// Drop the first UNM on the 6->5 link.
	inj := faults.Attach(net.Fabric(), faults.Plan{Rules: []faults.Rule{
		faults.DropMatching(6, 5, packet.TypeUNM, 1),
	}})
	oldP, newP := p4update.SyntheticPaths()
	f, _ := net.AddFlow(0, 7, oldP, 1.0)
	u, err := net.UpdateFlow(f, newP)
	if err != nil {
		t.Fatal(err)
	}
	net.Run()
	if inj.RuleHits(0) != 1 {
		t.Fatal("drop not exercised")
	}
	if !u.Done() {
		t.Fatal("update did not recover")
	}
	if u.Retriggers == 0 {
		t.Error("no re-trigger recorded")
	}
}

// TestFacadeRecoversLostProbe: with failure recovery on, a lost
// confirmation probe is re-injected and the update completes.
func TestFacadeRecoversLostProbe(t *testing.T) {
	g := p4update.Synthetic()
	net := p4update.NewNetwork(g,
		p4update.WithSeed(9),
		p4update.WithFailureRecovery(400*time.Millisecond, 3),
	)
	oldP, newP := p4update.SyntheticPaths()
	// Drop the first data frame — the probe — on the new path's first hop.
	inj := faults.Attach(net.Fabric(), faults.Plan{Rules: []faults.Rule{
		faults.DropMatching(newP[0], newP[1], packet.TypeData, 1),
	}})
	f, _ := net.AddFlow(0, 7, oldP, 1.0)
	u, err := net.UpdateFlow(f, newP)
	if err != nil {
		t.Fatal(err)
	}
	net.Run()
	if inj.RuleHits(0) != 1 {
		t.Fatal("drop not exercised")
	}
	if !u.Done() {
		t.Fatal("lost probe never re-injected")
	}
	if u.ProbeRetries != 1 || u.Retriggers != 0 {
		t.Errorf("%d probe retries and %d retriggers, want 1 and 0", u.ProbeRetries, u.Retriggers)
	}
}

// TestFacadeTreeUpdateRecoversLostUIM: a destination-tree update whose
// UIM to Seattle is lost is re-sent by §11 recovery, as a path update
// is, and completes after one retrigger.
func TestFacadeTreeUpdateRecoversLostUIM(t *testing.T) {
	g := p4update.Internet2()
	net := p4update.NewNetwork(g,
		p4update.WithSeed(5),
		p4update.WithInstallDelay(func() time.Duration { return 2 * time.Millisecond }),
		p4update.WithFailureRecovery(250*time.Millisecond, 5),
	)
	node := func(name string) p4update.NodeID {
		n, ok := g.NodeByName(name)
		if !ok {
			t.Fatalf("no node %s", name)
		}
		return n
	}
	root := node("Chicago")
	base := p4update.ShortestPathTree(g, root)
	f, err := net.AddDestinationTree(root, base, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The destination-routing example's change: three west-coast sites
	// leave their shortest branches.
	next := p4update.Tree{}
	for n, p := range base {
		next[n] = p
	}
	next[node("Seattle")] = node("SaltLake")
	next[node("SaltLake")] = node("Denver")
	next[node("Denver")] = node("KansasCity")
	inj := faults.Attach(net.Fabric(), faults.Plan{Rules: []faults.Rule{
		faults.DropMatching(dataplane.NodeController, node("Seattle"), packet.TypeUIM, 1),
	}})
	u, err := net.UpdateDestinationTree(f, next)
	if err != nil {
		t.Fatal(err)
	}
	net.Run()
	if inj.RuleHits(0) != 1 {
		t.Fatal("drop not exercised")
	}
	if !u.Done() || u.Retriggers != 1 {
		t.Errorf("done=%v after %d retriggers, want done after 1", u.Done(), u.Retriggers)
	}
}

func TestFacadeTwoPhaseCommit(t *testing.T) {
	g := p4update.Synthetic()
	net := p4update.NewNetwork(g,
		p4update.WithSeed(10),
		p4update.WithTwoPhaseCommit(),
		p4update.WithSystem("p4update-sl"),
		p4update.WithInstallDelay(func() time.Duration { return 30 * time.Millisecond }),
	)
	oldP, newP := p4update.SyntheticPaths()
	f, _ := net.AddFlow(0, 7, oldP, 1.0)

	// Observe packet paths via per-switch taps.
	visited := map[uint32][]p4update.NodeID{}
	for _, id := range g.Nodes() {
		sw := net.Switch(id)
		sw.DataTap = func(s *p4update.Switch, d *p4update.DataPacket, _ p4update.PortID) {
			if !d.Probe {
				visited[d.Seq] = append(visited[d.Seq], s.ID)
			}
		}
	}
	seq := uint32(0)
	var inject func()
	inject = func() {
		seq++
		_ = net.SendPacket(f, seq)
		if net.Now() < 600*time.Millisecond {
			net.Schedule(5*time.Millisecond, inject)
		}
	}
	net.Schedule(0, inject)
	net.Schedule(40*time.Millisecond, func() {
		if _, err := net.UpdateFlow(f, newP); err != nil {
			t.Error(err)
		}
	})
	net.Run()

	eq := func(a, b []p4update.NodeID) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for s, path := range visited {
		if !eq(path, oldP) && !eq(path, newP) {
			t.Fatalf("packet %d took a mixed path under 2PC: %v", s, path)
		}
	}
	if u, ok := net.Status(f, 2); !ok || !u.Done() {
		t.Fatal("update did not complete")
	}
}

func TestFacadeDestinationTree(t *testing.T) {
	g := p4update.B4()
	net := p4update.NewNetwork(g, p4update.WithSeed(11))
	root, _ := g.NodeByName("Virginia")
	base := p4update.ShortestPathTree(g, root)
	f, err := net.AddDestinationTree(root, base, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Every node reaches the root.
	for _, n := range g.Nodes() {
		if _, delivered := net.Forwarding(f, n); !delivered {
			t.Fatalf("node %d cannot reach the destination", n)
		}
	}
	// Baselines refuse destination trees.
	ez := p4update.NewNetwork(p4update.B4(), p4update.WithSystem("ez-segway"))
	if _, err := ez.UpdateDestinationTree(1, nil); err == nil {
		t.Error("ez-Segway strategy accepted a tree update")
	}
}

func TestFacadeEZSegwayQueuedUpdate(t *testing.T) {
	// Under "ez-segway" a second update of a flow still in flight is
	// returned immediately as a non-nil status in the Queued state and is
	// launched (and completed) once the first update finishes.
	g := p4update.Synthetic()
	net := p4update.NewNetwork(g,
		p4update.WithSeed(13),
		p4update.WithSystem("ez-segway"),
	)
	oldP, newP := p4update.SyntheticPaths()
	f, _ := net.AddFlow(0, 7, oldP, 1.0)
	u1, err := net.UpdateFlow(f, newP)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := net.UpdateFlow(f, oldP)
	if err != nil {
		t.Fatal(err)
	}
	if u2 == nil {
		t.Fatal("deferred ez-Segway update returned nil status")
	}
	if !u2.Queued {
		t.Fatal("second update not in the Queued state")
	}
	net.Run()
	if !u1.Done() || !u2.Done() {
		t.Fatalf("updates did not complete: u1=%v u2=%v", u1.Done(), u2.Done())
	}
	if u2.Queued {
		t.Error("completed update still marked Queued")
	}
}

func TestFacadeChainedDualLayer(t *testing.T) {
	g := p4update.Synthetic()
	net := p4update.NewNetwork(g,
		p4update.WithSeed(12),
		p4update.WithSystem("p4update-dl"),
		p4update.WithChainedDualLayer(),
	)
	oldP, newP := p4update.SyntheticPaths()
	f, _ := net.AddFlow(0, 7, oldP, 1.0)
	if _, err := net.UpdateFlow(f, newP); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if _, err := net.UpdateFlow(f, oldP); err != nil {
		t.Fatal(err)
	}
	net.Run()
	u, ok := net.Status(f, 3)
	if !ok || !u.Done() {
		t.Fatal("chained DL update did not complete via the facade")
	}
}

// TestAblationDualLayerBeatsSingleLayer is the §7.5 ablation: on the
// segmented Fig-1 update (old 0,4,2,7 → new 0..7) under exponential
// 100 ms straggler install delays, forcing the dual-layer update type
// completes faster on average over seeds 1–10 than forcing the single
// layer, whose backward segment waits for the whole path.
func TestAblationDualLayerBeatsSingleLayer(t *testing.T) {
	oldP := []p4update.NodeID{0, 4, 2, 7}
	newP := []p4update.NodeID{0, 1, 2, 3, 4, 5, 6, 7}
	mean := func(system string) time.Duration {
		const runs = 10
		var total time.Duration
		for seed := int64(1); seed <= runs; seed++ {
			net := p4update.NewNetwork(p4update.Synthetic(),
				p4update.WithSeed(seed),
				p4update.WithSystem(system),
			)
			eng := net.Fabric().Eng
			net.Fabric().SetInstallDelay(func() time.Duration {
				return time.Duration(eng.Rand().ExpFloat64() * float64(100*time.Millisecond))
			})
			f, err := net.AddFlow(0, 7, oldP, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			u, err := net.UpdateFlow(f, newP)
			if err != nil {
				t.Fatal(err)
			}
			net.Run()
			if !u.Done() {
				t.Fatalf("%s seed %d: update did not complete", system, seed)
			}
			total += u.Completed - u.Sent
		}
		return total / runs
	}
	dl, sl := mean("p4update-dl"), mean("p4update-sl")
	t.Logf("segmented update, mean completion: DL %v, SL %v", dl, sl)
	if dl >= sl {
		t.Errorf("dual layer (%v) not faster than single layer (%v) on the segmented update", dl, sl)
	}
}
