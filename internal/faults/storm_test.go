package faults

import (
	"reflect"
	"testing"
	"time"

	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
)

// injectAt schedules a single data frame of flow f at virtual instant at.
func injectAt(net *dataplane.Network, f packet.FlowID, at time.Duration, seq uint32) {
	net.Eng.ScheduleAt(at, func() {
		net.Switch(0).InjectData(&packet.Data{Flow: f, Seq: seq, TTL: 8})
	})
}

func TestBurstWindowAppliesRates(t *testing.T) {
	net := lineNet(t, 1)
	f := packet.FlowID(7)
	net.InstallPath(f, []topo.NodeID{0, 1}, 1, 500)
	inj := Attach(net, Plan{Seed: 1, Bursts: []Burst{{
		From: 10 * time.Millisecond, Until: 20 * time.Millisecond,
		Data: Rates{Drop: 1},
	}}})
	var delivered int
	net.OnDeliver = func(topo.NodeID, *packet.Data) { delivered++ }
	injectAt(net, f, 0, 1)                   // before the burst
	injectAt(net, f, 12*time.Millisecond, 2) // inside: dropped
	injectAt(net, f, 19*time.Millisecond, 3) // inside: dropped
	injectAt(net, f, 25*time.Millisecond, 4) // after: half-open window over
	net.Eng.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2 (only frames outside the burst)", delivered)
	}
	if inj.Stats.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", inj.Stats.Dropped)
	}
}

func TestBurstMergesKindWiseWithAmbient(t *testing.T) {
	// Ambient corrupts everything; a pure-drop burst must not mask it.
	net := lineNet(t, 1)
	f := packet.FlowID(7)
	net.InstallPath(f, []topo.NodeID{0, 1}, 1, 500)
	inj := Attach(net, Plan{Seed: 1,
		Data:   Rates{Corrupt: 1},
		Bursts: []Burst{{From: 0, Until: time.Second, Data: Rates{Drop: 1}}},
	})
	var delivered int
	net.OnDeliver = func(topo.NodeID, *packet.Data) { delivered++ }
	injectAt(net, f, time.Millisecond, 1)
	net.Eng.Run()
	if delivered != 0 {
		t.Fatalf("delivered %d, want 0", delivered)
	}
	if inj.Stats.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1 (burst drop rate in force)", inj.Stats.Dropped)
	}
}

// A zero-rate burst must leave a trial byte-identical to the burst-free
// plan: the segment timeline reproduces the ambient rates exactly and
// the draw sequence is a pure function of the frame sequence.
func TestZeroRateBurstIsTransparent(t *testing.T) {
	run := func(bursts []Burst) (int, Stats) {
		net := lineNet(t, 1)
		f := packet.FlowID(7)
		net.InstallPath(f, []topo.NodeID{0, 1}, 1, 500)
		inj := Attach(net, Plan{Seed: 99, Data: Rates{Drop: 0.4}, Bursts: bursts})
		var delivered int
		net.OnDeliver = func(topo.NodeID, *packet.Data) { delivered++ }
		for i := 0; i < 200; i++ {
			injectAt(net, f, time.Duration(i)*time.Millisecond, uint32(i))
		}
		net.Eng.Run()
		return delivered, inj.Stats
	}
	d1, s1 := run(nil)
	d2, s2 := run([]Burst{{From: 50 * time.Millisecond, Until: 150 * time.Millisecond}})
	if d1 != d2 || s1 != s2 {
		t.Fatalf("zero-rate burst perturbed the trial: delivered %d vs %d, stats %+v vs %+v", d1, d2, s1, s2)
	}
}

func TestActivePartitionEnd(t *testing.T) {
	net := lineNet(t, 1)
	inj := Attach(net, Plan{Seed: 1, Partitions: []Partition{
		{Node: AnyNode, From: 10 * time.Millisecond, Until: 30 * time.Millisecond},
		{Node: AnyNode, From: 20 * time.Millisecond, Until: 50 * time.Millisecond},
	}})
	check := func(at time.Duration, wantEnd time.Duration, wantActive bool) {
		net.Eng.ScheduleAt(at, func() {
			end, active := inj.ActivePartitionEnd()
			if active != wantActive || (active && end != wantEnd) {
				t.Errorf("at %v: ActivePartitionEnd = (%v, %v), want (%v, %v)",
					at, end, active, wantEnd, wantActive)
			}
		})
	}
	check(5*time.Millisecond, 0, false)
	check(15*time.Millisecond, 30*time.Millisecond, true)
	check(25*time.Millisecond, 50*time.Millisecond, true) // overlap: latest Until wins
	check(40*time.Millisecond, 50*time.Millisecond, true)
	check(60*time.Millisecond, 0, false)
	net.Eng.Run()
}

func TestBuildStormDeterministic(t *testing.T) {
	g := topo.B4()
	profile, ok := LookupStorm("squall")
	if !ok {
		t.Fatal("squall profile missing")
	}
	p1, e1 := BuildStorm(g, 42, 10*time.Second, profile)
	p2, e2 := BuildStorm(g, 42, 10*time.Second, profile)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(e1, e2) {
		t.Fatal("same (seed, horizon, profile) compiled to different storms")
	}
	_, e3 := BuildStorm(g, 43, 10*time.Second, profile)
	if reflect.DeepEqual(e1, e3) {
		t.Fatal("different seeds produced the identical episode schedule")
	}
}

func TestBuildStormEpisodesWellFormed(t *testing.T) {
	g := topo.B4()
	horizon := 60 * time.Second
	for _, profile := range StormProfiles() {
		plan, eps := BuildStorm(g, 7, horizon, profile)
		classes := map[EpisodeClass]int{}
		var last time.Duration
		for _, ep := range eps {
			if ep.Start < last {
				t.Fatalf("%s: episodes not sorted by start", profile.Name)
			}
			last = ep.Start
			if ep.End <= ep.Start || ep.End >= horizon {
				t.Errorf("%s: episode %v spans [%v, %v), want inside (start, horizon)",
					profile.Name, ep.Class, ep.Start, ep.End)
			}
			classes[ep.Class]++
			if ep.Class == EpisodeCrash && (ep.Node < 0 || int(ep.Node) >= g.NumNodes()) {
				t.Errorf("%s: crash episode names unknown node %d", profile.Name, ep.Node)
			}
		}
		if profile.CrashEvery > 0 && classes[EpisodeCrash] == 0 {
			t.Errorf("%s: no crash episodes over %v", profile.Name, horizon)
		}
		if profile.PartitionEvery > 0 && classes[EpisodePartition] == 0 {
			t.Errorf("%s: no partition episodes over %v", profile.Name, horizon)
		}
		if len(plan.Crashes) != classes[EpisodeCrash] ||
			len(plan.Partitions) != classes[EpisodePartition] ||
			len(plan.Bursts) != classes[EpisodeLossBurst]+classes[EpisodeCorruptBurst] {
			t.Errorf("%s: plan entries disagree with episode counts", profile.Name)
		}
	}
}

func TestStormProfileLookup(t *testing.T) {
	for _, name := range StormNames() {
		if p, ok := LookupStorm(name); !ok || p.Name != name {
			t.Errorf("LookupStorm(%q) = (%q, %v)", name, p.Name, ok)
		}
	}
	if _, ok := LookupStorm("tsunami"); ok {
		t.Error("LookupStorm accepted an unknown profile")
	}
}
