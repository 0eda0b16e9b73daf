package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"p4update/internal/dataplane"
	"p4update/internal/faults"
	"p4update/internal/packet"
	"p4update/internal/sim"
	"p4update/internal/topo"
	"p4update/internal/trace"
	"p4update/internal/traffic"
	"p4update/internal/wiring"
)

// bedLog records which engine each BedTrial body ran on, so a test can
// see which trials shared a bed.
type bedLog struct{ engs []*sim.Engine }

func (l *bedLog) body(f func(*wiring.System) (Metrics, error)) func(*wiring.System) (Metrics, error) {
	return func(sys *wiring.System) (Metrics, error) {
		l.engs = append(l.engs, sys.Eng)
		return f(sys)
	}
}

// launch registers and triggers flows, runs the engine, and returns the
// update times of the updates that completed.
func launch(sys *wiring.System, flows []traffic.FlowSpec) ([]time.Duration, error) {
	return launchThen(sys, flows, func() { sys.Eng.Run() })
}

// launchThen is launch with run in place of running the engine to
// quiescence.
func launchThen(sys *wiring.System, flows []traffic.FlowSpec, run func()) ([]time.Duration, error) {
	var samples []time.Duration
	for _, f := range flows {
		if err := sys.Ctl.RegisterFlowID(f.ID(), f.Src, f.Dst, f.Old, f.SizeK); err != nil {
			return nil, err
		}
	}
	var launched []func() (time.Duration, bool)
	for _, f := range flows {
		u, err := sys.Trigger(f.ID(), f.New)
		if err != nil {
			return nil, err
		}
		if u != nil {
			launched = append(launched, func() (time.Duration, bool) { return u.Completed - u.Sent, u.Done() })
		}
	}
	run()
	for _, done := range launched {
		if d, ok := done(); ok {
			samples = append(samples, d)
		}
	}
	return samples, nil
}

// dirtyTrials are trials that leave a bed in every state the grids
// leave one in — all systems and variants, congestion, two-phase
// forwarding, sampled control latencies, install-delay samplers, faults
// with crash cycles under the auditor, a run cut short with work parked
// and events queued — plus a body that reaches into the fabric and sets
// every per-switch knob, and bodies that panic, fail, or run into the
// MaxEvents backstop.
func dirtyTrials(g *topo.Topology, flows []traffic.FlowSpec, log *bedLog) []Trial {
	var trials []Trial
	add := func(label string, cfg wiring.Config, body func(*wiring.System) (Metrics, error)) {
		if cfg.MaxEvents == 0 {
			cfg.MaxEvents = 2_000_000
		}
		trials = append(trials, BedTrial(label, "dirty", g, cfg, log.body(body)))
	}
	run := func(sys *wiring.System) (Metrics, error) {
		s, err := launch(sys, flows)
		return Metrics{Samples: s}, err
	}
	add("panics", wiring.Config{Seed: 1}, func(sys *wiring.System) (Metrics, error) {
		if _, err := launch(sys, flows[:1]); err != nil {
			return Metrics{}, err
		}
		panic("dirty trial panics")
	})
	for i, name := range wiring.AllNames() {
		add(name, wiring.Config{
			Seed: int64(10 + i), System: name, Congestion: true,
			NodeDelayMean: 20 * time.Millisecond, CtrlQueueMean: 5 * time.Millisecond,
			FatTreeControl: i%2 == 0, TwoPhase: i%3 == 0, Trace: &trace.Options{},
		}, run)
	}
	add("fails", wiring.Config{Seed: 2}, func(sys *wiring.System) (Metrics, error) {
		if _, err := launch(sys, flows); err != nil {
			return Metrics{}, err
		}
		return Metrics{}, errors.New("dirty trial fails")
	})
	add("backstop", wiring.Config{Seed: 5, MaxEvents: 60}, run)
	n := g.NumNodes()
	add("faults", wiring.Config{
		Seed: 3, Congestion: true, AuditEvery: 1, BaseInstallDelay: time.Millisecond,
		WatchdogTimeout: 50 * time.Millisecond, ProbeTimeout: 50 * time.Millisecond, MaxRetriggers: 25,
		Faults: &faults.Plan{
			Data: faults.Rates{Drop: 0.1, Reorder: 0.1, ReorderBy: 2 * time.Millisecond},
			Crashes: []faults.Crash{
				{Node: 1, At: 5 * time.Millisecond, Restore: 20 * time.Millisecond},
				{Node: topo.NodeID(n - 2), At: 10 * time.Millisecond, Restore: 400 * time.Millisecond},
			},
		},
	}, run)
	add("cut-short", wiring.Config{
		Seed: 4, System: "ez-segway", Congestion: true,
		Faults: &faults.Plan{
			Data:    faults.Rates{Drop: 0.2},
			Crashes: []faults.Crash{{Node: 2, At: time.Microsecond, Restore: time.Hour}},
		},
	}, func(sys *wiring.System) (Metrics, error) {
		// The body stops the run itself after 60 events: a trial the
		// MaxEvents backstop stops fails, and a failed trial's bed is
		// dropped, not recycled.
		cut := func() {
			for i := 0; i < 60 && sys.Eng.Step(); i++ {
			}
		}
		if _, err := launchThen(sys, flows, cut); err != nil {
			return Metrics{}, err
		}
		if sys.Eng.Pending() == 0 {
			return Metrics{}, errors.New("cut-short trial left no events queued")
		}
		net := sys.Net
		for _, f := range flows[:2] {
			net.RetireFlow(f.ID())
		}
		net.OnDeliver = func(node topo.NodeID, _ *packet.Data) { net.Switch(node).Stats.TTLDrops += 100 }
		for _, sw := range net.Switches() {
			for p := topo.PortID(0); int(p) < g.Degree(sw.ID); p++ {
				sw.StageReservation(0xbad, p, 7, 9)
				sw.ParkOnCapacity(p, &packet.UIM{Flow: 0xbad, Version: 9}, topo.InvalidPort)
				sw.MarkHighWaiting(p, 0xbad)
			}
			sw.ParkOnUIM(&packet.UNM{Flow: 0xbad, Vn: 9}, 0)
			sw.FRMEnabled = true
			sw.TwoPhase = true
			sw.DataTap = func(sw *dataplane.Switch, _ *packet.Data, _ topo.PortID) { sw.Stats.DecodeErrors++ }
			sw.Stats.RulesCleaned += 1000
		}
		net.Switch(3).Crash()
		net.Switch(4).Crash()
		net.Switch(4).Restore()
		return Metrics{}, nil
	})
	return trials
}

// probeTrial is the trial that must not notice what ran on its bed
// before: congestion-controlled updates under the auditor with the
// recorder on, then a crash cycle of every switch (whose epochs the
// trace records) and data packets tagged with the old version and for
// an unknown flow. Its report carries every switch's Stats and
// reservations.
func probeTrial(g *topo.Topology, flows []traffic.FlowSpec, log *bedLog) Trial {
	cfg := wiring.Config{Seed: 99, Congestion: true, AuditEvery: 1, MaxEvents: 2_000_000, Trace: &trace.Options{}}
	return BedTrial("probe", "probe", g, cfg, log.body(func(sys *wiring.System) (Metrics, error) {
		samples, err := launch(sys, flows)
		if err != nil {
			return Metrics{}, err
		}
		for _, sw := range sys.Net.Switches() {
			sw.Crash()
			sw.Restore()
		}
		for _, f := range flows {
			sys.Net.Switch(f.Src).InjectData(&packet.Data{Flow: f.ID(), TTL: 32, Tag: 1})
		}
		sys.Net.Switch(flows[0].Src).InjectData(&packet.Data{Flow: 0xfeed, TTL: 32})
		sys.Eng.Run()

		type port struct {
			Stats    dataplane.Stats
			Reserved []uint64
		}
		var sws []port
		for _, sw := range sys.Net.Switches() {
			p := port{Stats: sw.Stats}
			for i := 0; i < g.Degree(sw.ID); i++ {
				p.Reserved = append(p.Reserved, sw.ReservedK(topo.PortID(i)))
			}
			sws = append(sws, p)
		}
		raw, err := json.Marshal(struct {
			Switches []port
			Audit    any
			Slots    int
		}{sws, sys.Aud.Report(), sys.Net.NumFlowSlots()})
		return Metrics{Samples: samples, Report: raw}, err
	}))
}

// TestRecycledBedMatchesFreshBed runs the probe trial on a fresh bed and
// on a worker's bed after the dirty trials, and requires identical
// outputs: samples, virtual time, executed and scheduled events, every
// switch's Stats and reservations, the audit report and the full trace.
func TestRecycledBedMatchesFreshBed(t *testing.T) {
	g := topo.B4()
	g.Freeze()
	flows, err := traffic.MultiFlowWorkload(g, rand.New(rand.NewSource(7)), traffic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var freshLog, log bedLog
	fresh := (&Pool{Workers: 1}).Run([]Trial{probeTrial(g, flows, &freshLog)})[0]
	trials := append(dirtyTrials(g, flows, &log), probeTrial(g, flows, &log))
	results := (&Pool{Workers: 1}).Run(trials)
	recycled := results[len(results)-1]

	for i, r := range results[:len(results)-1] {
		wantFail := r.Label == "panics" || r.Label == "fails" || r.Label == "backstop"
		if r.Failed != wantFail {
			t.Fatalf("dirty trial %s: failed=%v (%s)", r.Label, r.Failed, r.Err)
		}
		if r.Label == "backstop" && r.Err != "backstop: MaxEvents 60 reached" {
			t.Errorf("backstop trial's error = %q", r.Err)
		}
		// A failed trial's bed is dropped, any other one is reused.
		if reused := log.engs[i+1] == log.engs[i]; reused == wantFail {
			t.Errorf("trial after %s: bed reused=%v", r.Label, reused)
		}
	}
	if fresh.Failed || recycled.Failed {
		t.Fatalf("probe failed: fresh %q, recycled %q", fresh.Err, recycled.Err)
	}
	if len(fresh.Samples) != len(flows) {
		t.Fatalf("fresh probe completed %d of %d updates", len(fresh.Samples), len(flows))
	}
	jsonl := func(r Result) string {
		var b bytes.Buffer
		if err := r.TraceRec.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if recycled.TraceRec.Clock != nil {
		t.Error("the returned recorder still reads the bed's clock")
	}
	if got, want := jsonl(recycled), jsonl(fresh); got != want {
		t.Errorf("recycled probe's trace differs from the fresh probe's:\n%s\nvs\n%s", got, want)
	}
	strip := func(r Result) Result {
		r.Index, r.WallClock, r.Allocs, r.AllocBytes, r.TraceRec = 0, 0, 0, 0, nil
		return r
	}
	if got, want := strip(recycled), strip(fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("recycled probe:\n%s\nfresh probe:\n%s", describe(got), describe(want))
	}
}

func describe(r Result) string {
	return fmt.Sprintf("virtual=%v events=%d scheduled=%d samples=%v\nreport=%s\ntrace=%+v",
		r.VirtualTime, r.Events, r.EventsScheduled, r.Samples, r.Report, r.Trace)
}

// TestTimedOutTrialKeepsItsBed: a trial that times out keeps running on
// its bed in the abandoned goroutine, so the worker's next trial must
// get a fresh one, and the trial after that the worker's new bed. The
// abandoned trial resumes while the next one runs, so under -race any
// sharing of a bed between them is reported.
func TestTimedOutTrialKeepsItsBed(t *testing.T) {
	g := topo.Synthetic()
	g.Freeze()
	oldP, newP := topo.SyntheticPaths()
	flow := []traffic.FlowSpec{{Src: oldP[0], Dst: oldP[len(oldP)-1], Old: oldP, New: newP, SizeK: 1000}}
	engs := make(chan *sim.Engine, 4)
	resume, stuckDone := make(chan struct{}), make(chan struct{})
	trial := func(label string) Trial {
		return BedTrial(label, "test", g, wiring.Config{Seed: 1, MaxEvents: 1_000_000},
			func(sys *wiring.System) (Metrics, error) {
				engs <- sys.Eng
				switch label {
				case "stuck":
					<-resume
					defer close(stuckDone)
				case "after":
					close(resume)
				}
				s, err := launch(sys, flow)
				return Metrics{Samples: s}, err
			})
	}
	results := (&Pool{Workers: 1, Timeout: 500 * time.Millisecond}).Run([]Trial{
		trial("first"), trial("stuck"), trial("after"), trial("last"),
	})
	<-stuckDone
	first, stuck, after, last := <-engs, <-engs, <-engs, <-engs
	if !results[1].Failed || results[0].Failed || results[2].Failed || results[3].Failed {
		t.Fatalf("want only the stuck trial to fail: %+v", results)
	}
	if stuck != first {
		t.Error("the stuck trial did not reuse the first trial's bed")
	}
	if after == stuck {
		t.Error("the trial after a timeout reused the bed the timed-out trial still runs on")
	}
	if last != after {
		t.Error("the worker did not keep the bed of the trial after the timeout")
	}
}
