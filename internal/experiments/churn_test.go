package experiments

import (
	"testing"
	"time"

	"p4update/internal/runner"
	"p4update/internal/topo"
	"p4update/internal/wiring"
)

// smokeChurnOpts is a fast configuration exercising every harness path:
// arrivals, departures (mean lifetime below the window), reroute waves,
// deferred retirement, and UIM batching.
func smokeChurnOpts() ChurnOpts {
	return ChurnOpts{
		ArrivalRate:   800,
		MeanLifetime:  300 * time.Millisecond,
		Duration:      500 * time.Millisecond,
		Drain:         300 * time.Millisecond,
		RerouteEvery:  25 * time.Millisecond,
		LatencyJitter: 0.2,
		EdgeOnly:      true,
		RetireGrace:   20 * time.Millisecond,
	}
}

func churnValues(t *testing.T, r runner.Result) map[string]float64 {
	t.Helper()
	if r.Failed {
		t.Fatalf("trial %s failed: %s", r.Label, r.Err)
	}
	return r.Values
}

func TestChurnSmoke(t *testing.T) {
	res, err := RunChurn(func() *topo.Topology { return topo.FatTree(4) },
		"fattree4", 1, 1, smokeChurnOpts(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v := churnValues(t, res.Trials[0])
	if v["arrivals"] == 0 {
		t.Fatal("no arrivals")
	}
	if v["updates_completed"] == 0 {
		t.Fatal("no completed updates — reroute waves never triggered")
	}
	if v["trigger_errors"] != 0 {
		t.Fatalf("%v trigger errors", v["trigger_errors"])
	}
	// Conservation: every arrived flow is either retired or still live.
	if got, want := v["retired"]+v["end_live"], v["arrivals"]; got != want {
		t.Fatalf("flow conservation broken: retired+end_live=%v, arrivals=%v", got, want)
	}
	// Slot recycling bounds the interning table by peak live flows, not
	// historical arrivals.
	if v["flow_slots"] > v["peak_live"] {
		t.Fatalf("flow slots %v exceed peak live %v — recycling broken", v["flow_slots"], v["peak_live"])
	}
	if v["arrivals"] > v["peak_live"]*1.5 && v["flow_slots"] >= v["arrivals"] {
		t.Fatalf("slots track historical flows (%v slots for %v arrivals)", v["flow_slots"], v["arrivals"])
	}
	// Waves batch their UIMs: multi-update waves must produce batch frames.
	if v["updates_triggered"] > 50 && v["batch_frames"] == 0 {
		t.Fatalf("no UIM batch frames despite %v triggered updates", v["updates_triggered"])
	}
	if v["updates_completed"] > 0 && v["update_p99_ms"] < v["update_p50_ms"] {
		t.Fatalf("p99 %v below p50 %v", v["update_p99_ms"], v["update_p50_ms"])
	}
}

// TestChurnAuditSmoke reruns the smoke scenario with the continuous
// invariant auditor attached (which forces sequential execution) and
// requires a clean audit: slot recycling must never leave the auditor
// a stale flow view or a false version regression.
func TestChurnAuditSmoke(t *testing.T) {
	co := smokeChurnOpts()
	g := topo.FatTree(4)
	bed := DefaultBedConfig()
	cfg := bed.WiringConfig(KindP4Update, 1)
	cfg.AuditEvery = 200
	trial := runner.BedTrial("churn/audit", KindP4Update.String(), g, cfg,
		func(sys *wiring.System) (runner.Metrics, error) {
			return runChurnTrial(sys, g, cfg.Seed, co)
		})
	res := (&runner.Pool{Workers: 1}).Run([]runner.Trial{trial})
	v := churnValues(t, res[0])
	if v["updates_completed"] == 0 {
		t.Fatal("audited churn run completed no updates")
	}
}
