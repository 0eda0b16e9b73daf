package controlplane_test

import (
	"testing"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/dataplane"
	"p4update/internal/faults"
	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/trace"
	"p4update/internal/wiring"
)

// controllerUIMs counts the UIMs the controller sent, per target node.
func controllerUIMs(rec *trace.Recorder) map[topo.NodeID]int {
	sent := map[topo.NodeID]int{}
	for _, e := range rec.Events() {
		if e.Kind == trace.KindSend && e.Node == trace.NodeController && e.Class == uint8(packet.TypeUIM) {
			sent[topo.NodeID(int32(e.A))]++
		}
	}
	return sent
}

// TestResendRepeatsOnlyTheUnackedNode drops one acknowledgement of the
// Fig. 1 update under PPCU and the opt-oracle. The round stalls on that
// node until the completion watchdog fires Resend, which must re-send
// that node's instruction and no other; its re-ack completes the round
// and the update.
func TestResendRepeatsOnlyTheUnackedNode(t *testing.T) {
	for _, tc := range []struct {
		system string
		drop   topo.NodeID // a node of the first round
		rounds int
	}{
		{"ppcu", 3, 2},
		{"opt-oracle", 6, 3},
	} {
		t.Run(tc.system, func(t *testing.T) {
			sys := wiring.New(topo.Synthetic(), wiring.Config{
				Seed: 1, System: tc.system, MaxEvents: 1_000_000,
				ProbeTimeout: 500 * time.Millisecond, MaxRetriggers: 3,
				Faults: &faults.Plan{Rules: []faults.Rule{
					faults.DropMatching(tc.drop, dataplane.NodeController, packet.TypeUFM, 1),
				}},
				Trace: &trace.Options{},
			})
			oldP, newP := topo.SyntheticPaths()
			f, err := sys.Ctl.RegisterFlow(oldP[0], oldP[len(oldP)-1], oldP, 1000)
			if err != nil {
				t.Fatal(err)
			}
			u, err := sys.Trigger(f, newP)
			if err != nil {
				t.Fatal(err)
			}
			sys.Eng.Run()
			if sys.Inj.RuleHits(0) != 1 {
				t.Fatal("the acknowledgement was not dropped")
			}
			if !u.Done() || u.Retriggers != 1 {
				t.Fatalf("done=%v after %d retriggers, want done after 1", u.Done(), u.Retriggers)
			}
			for n, got := range controllerUIMs(sys.Trace) {
				want := 1
				if n == tc.drop {
					want = 2
				}
				if got != want {
					t.Errorf("node %d got %d instructions, want %d", n, got, want)
				}
			}
			if got := sys.Trace.Summarize().ByClass["round"]; got != uint64(tc.rounds) {
				t.Errorf("%d rounds sent, want %d", got, tc.rounds)
			}
		})
	}
}

// TestCentralHasNoResend: Central has no loss recovery (NoResend). With
// the completion watchdog and a retrigger budget armed, one dropped
// acknowledgement wedges its update: nothing is charged or re-sent, and
// the engine still quiesces.
func TestCentralHasNoResend(t *testing.T) {
	sys := wiring.New(topo.Synthetic(), wiring.Config{
		Seed: 1, System: "central", MaxEvents: 1_000_000,
		ProbeTimeout: 500 * time.Millisecond, MaxRetriggers: 3,
		Faults: &faults.Plan{Rules: []faults.Rule{
			faults.DropMatching(6, dataplane.NodeController, packet.TypeUFM, 1),
		}},
	})
	oldP, newP := topo.SyntheticPaths()
	f, err := sys.Ctl.RegisterFlow(oldP[0], oldP[len(oldP)-1], oldP, 1000)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sys.Trigger(f, newP)
	if err != nil {
		t.Fatal(err)
	}
	sys.Eng.Run()
	if sys.Eng.CutShort() {
		t.Fatal("the engine never quiesced")
	}
	if sys.Inj.RuleHits(0) != 1 {
		t.Fatal("the acknowledgement was not dropped")
	}
	if u.Done() || u.Retriggers != 0 {
		t.Errorf("done=%v after %d retriggers, want a wedged update and none", u.Done(), u.Retriggers)
	}
}

// TestBlockedRunsResumeInBlockOrder: f1 and f2 both move onto X-B,
// which f3 fills. Under Central's capacity filter each installs B, then
// blocks on X's move, in the order they started; the one with the
// larger flow ID starts first, so ascending-ID order cannot pass by
// luck. f3 leaving X-B frees room for both, and the acknowledgement of
// f3's move at X must re-advance them at that instant, in block order.
func TestBlockedRunsResumeInBlockOrder(t *testing.T) {
	g := topo.New("fan")
	node := func(name string) topo.NodeID { return g.AddNode(name, 0, 0) }
	s1, s2, s3, x := node("S1"), node("S2"), node("S3"), node("X")
	a, b, c, d, tt := node("A"), node("B"), node("C"), node("D"), node("T")
	for _, s := range []topo.NodeID{s1, s2, s3} {
		g.AddLink(s, x, time.Millisecond, 1000)
	}
	for _, m := range []topo.NodeID{a, b, c, d} {
		g.AddLink(x, m, time.Millisecond, 10)
		g.AddLink(m, tt, time.Millisecond, 1000)
	}
	sys := wiring.New(g, wiring.Config{
		Seed: 1, System: "central", Congestion: true, MaxEvents: 1_000_000,
		Trace: &trace.Options{},
	})
	reg := func(path []topo.NodeID, sizeK uint32) packet.FlowID {
		f, err := sys.Ctl.RegisterFlow(path[0], path[len(path)-1], path, sizeK)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f1 := reg([]topo.NodeID{s1, x, a, tt}, 4000)
	f2 := reg([]topo.NodeID{s2, x, d, tt}, 4000)
	f3 := reg([]topo.NodeID{s3, x, b, tt}, 7000)
	var us []*controlplane.UpdateStatus
	trigger := func(at time.Duration, f packet.FlowID, path []topo.NodeID) {
		sys.Eng.Schedule(at, func() {
			u, err := sys.Trigger(f, path)
			if err != nil {
				t.Error(err)
			}
			us = append(us, u)
		})
	}
	first, second := f1, f2
	if first < second {
		first, second = second, first
	}
	onto := map[packet.FlowID][]topo.NodeID{f1: {s1, x, b, tt}, f2: {s2, x, b, tt}}
	trigger(0, first, onto[first])
	trigger(20*time.Millisecond, second, onto[second])
	trigger(150*time.Millisecond, f3, []topo.NodeID{s3, x, c, tt})
	sys.Eng.Run()
	for _, u := range us {
		if !u.Done() {
			t.Fatalf("flow %d did not complete", u.Flow)
		}
	}
	if r, cp := sys.Net.Switch(x).ReservedK(g.PortTo(x, b)), sys.Net.Switch(x).CapacityK(g.PortTo(x, b)); r > cp {
		t.Errorf("X-B reserves %d of %d kbps", r, cp)
	}

	var ackAt time.Duration
	var resumed []trace.Event // the second round of f1 and f2
	rounds := map[uint32]int{}
	for _, e := range sys.Trace.Events() {
		switch {
		case e.Kind == trace.KindRecv && e.Node == trace.NodeController && e.Class == uint8(packet.TypeUFM) &&
			e.Flow == uint32(f3) && topo.NodeID(int32(e.A)) == x:
			ackAt = e.At
		case e.Kind == trace.KindRound && e.Flow != uint32(f3):
			if rounds[e.Flow]++; rounds[e.Flow] == 2 {
				resumed = append(resumed, e)
			}
		}
	}
	if len(resumed) != 2 {
		t.Fatalf("rounds per flow %v, want two each for f1 and f2", rounds)
	}
	if resumed[0].Flow != uint32(first) || resumed[1].Flow != uint32(second) {
		t.Errorf("resumed flows %d then %d, want %d then %d", resumed[0].Flow, resumed[1].Flow, first, second)
	}
	for _, e := range resumed {
		if e.At != ackAt {
			t.Errorf("flow %d resumed at %v, want at f3's acknowledgement from X (%v)", e.Flow, e.At, ackAt)
		}
	}
}
