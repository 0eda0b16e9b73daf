package experiments

import (
	"math/rand"
	"testing"

	"p4update/internal/controlplane"
	"p4update/internal/plancache"
	"p4update/internal/topo"
	"p4update/internal/traffic"
	"p4update/internal/wiring"
)

// BenchmarkBurstTrial runs one burst trial per op, as the burst-k8
// workload of the repository benchmark does: a fresh P4Update bed on a
// frozen fat-tree K=8 (wiring.New), 500 flows registered on their old
// paths and all rerouted at once through a warm plan cache, simulated to
// quiescence. Run it with -benchmem: allocs/op over 500 is the
// workload's allocs_per_update, without the ledger's 24 s run.
func BenchmarkBurstTrial(b *testing.B) {
	const flows = 500
	g := topo.FatTree(8)
	g.Freeze()
	specs, err := traffic.ManyFlowWorkload(g, rand.New(rand.NewSource(1)), flows, topo.EdgeSwitches(g))
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultBedConfig()
	cfg.FatTreeControl = true
	wcfg := cfg.WiringConfig(KindP4Update, 1)
	wcfg.Plans = plancache.New(g)
	updates := make([]*controlplane.UpdateStatus, 0, flows)
	trial := func() {
		bed := &Bed{Kind: KindP4Update, System: wiring.New(g, wcfg)}
		if err := bed.Register(specs); err != nil {
			b.Fatal(err)
		}
		updates = updates[:0]
		for _, f := range specs {
			u, err := bed.Trigger(f.ID(), f.New)
			if err != nil {
				b.Fatal(err)
			}
			updates = append(updates, u)
		}
		bed.Eng.Run()
		for _, u := range updates {
			if !u.Done() {
				b.Fatalf("update of flow %d did not complete", u.Flow)
			}
		}
	}
	trial() // warms the plan cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trial()
	}
	b.ReportMetric(float64(b.N*flows)/b.Elapsed().Seconds(), "updates/s")
}
