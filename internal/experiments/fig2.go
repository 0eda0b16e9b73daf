package experiments

import (
	"fmt"
	"strings"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/dataplane"
	"p4update/internal/ezsegway"
	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/trace"
	"p4update/internal/wiring"
)

// Fig2Result reproduces the paper's Fig. 2 for one system: packet traces
// at v1 and at the egress v4 while configuration (c) deploys before the
// delayed configuration (b).
type Fig2Result struct {
	System SystemKind
	// V1 and V4 are the sequence numbers received at v1 and at v4, in
	// arrival order.
	V1, V4 []uint32
	// Window is the gray area of the figure: from deploying (c) until
	// the missing (b) messages are sent.
	WindowStart, WindowEnd time.Duration
	// Sent counts injected packets, DupAtV1 duplicate receptions at v1
	// (looped packets), LostAtV4 sequence numbers never delivered.
	Sent     int
	DupAtV1  int
	LostAtV4 int
}

// String summarizes the trace in the terms the paper uses.
func (r *Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s sent=%d  received@v4=%d  lost@v4=%d  looped(dup)@v1=%d\n",
		r.System, r.Sent, len(uniqueSeqs(r.V4)), r.LostAtV4, r.DupAtV1)
	return b.String()
}

func uniqueSeqs(seqs []uint32) map[uint32]int {
	m := map[uint32]int{}
	for _, s := range seqs {
		m[s]++
	}
	return m
}

// Fig2Opts runs the inconsistent-update scenario of §4.1 on the given
// system (P4Update or ez-Segway): data packets at 125 pps with TTL 64
// from v0 to v4; configuration (c) deploys at 200 ms, configuration (b)'s
// delayed messages arrive at 600 ms. An optional flight recorder is
// attached to the trial (nil tr runs untraced) and returned alongside
// the result so callers can export the event log.
func Fig2Opts(kind SystemKind, seed int64, tr *trace.Options) (*Fig2Result, *trace.Recorder, error) {
	g, _, _, _ := topo.Fig2Scenario()
	cfg := DefaultBedConfig()
	wcfg := cfg.WiringConfig(kind, seed)
	wcfg.Trace = tr
	b := &Bed{Kind: kind, System: wiring.New(g, wcfg)}

	pathA := []topo.NodeID{0, 1, 2, 3, 4}
	pathB := []topo.NodeID{0, 1, 2, 4}
	pathC := []topo.NodeID{0, 3, 1, 2, 4}
	f, err := b.Ctl.RegisterFlow(0, 4, pathA, 1000)
	if err != nil {
		return nil, nil, err
	}
	rec, _ := b.Ctl.Flow(f)

	res := &Fig2Result{
		System:      kind,
		WindowStart: 200 * time.Millisecond,
		WindowEnd:   600 * time.Millisecond,
	}
	// Observation taps.
	b.Net.Switch(1).DataTap = func(sw *dataplane.Switch, d *packet.Data, _ topo.PortID) {
		res.V1 = append(res.V1, d.Seq)
	}
	b.Net.OnDeliver = func(node topo.NodeID, d *packet.Data) {
		if node == 4 {
			res.V4 = append(res.V4, d.Seq)
		}
	}

	// Prepare both configurations the way an oblivious controller would:
	// (b) against (a), then (c) against the *believed-deployed* (b).
	var sendB, sendC func()
	switch kind {
	case KindEZSegway:
		planB, err := ezsegway.PreparePlan(g, f, pathA, pathB, 2, rec.SizeK, 0)
		if err != nil {
			return nil, nil, err
		}
		planC, err := ezsegway.PreparePlan(g, f, pathB, pathC, 3, rec.SizeK, 0)
		if err != nil {
			return nil, nil, err
		}
		sendC = func() { sendAll(b.Net, planC.Targets, planC.Msgs) }
		sendB = func() { sendAll(b.Net, planB.Targets, planB.Msgs) }
	case KindP4Update:
		sl := packet.UpdateSingle
		planB, err := controlplane.PreparePlan(g, f, pathA, pathB, 2, rec.SizeK, &sl)
		if err != nil {
			return nil, nil, err
		}
		planC, err := controlplane.PreparePlan(g, f, pathB, pathC, 3, rec.SizeK, &sl)
		if err != nil {
			return nil, nil, err
		}
		sendC = func() { sendPlan(b.Net, planC) }
		sendB = func() { sendPlan(b.Net, planB) }
	default:
		return nil, nil, fmt.Errorf("fig2 compares P4Update and ez-Segway only")
	}

	b.Eng.Schedule(res.WindowStart, sendC)
	b.Eng.Schedule(res.WindowEnd, sendB)

	// 125 pps source at v0 for 1.2 s.
	const pps = 125
	interval := time.Second / pps
	seq := uint32(0)
	var inject func()
	inject = func() {
		seq++
		res.Sent++
		b.Net.Switch(0).InjectData(&packet.Data{Flow: f, Seq: seq, TTL: 64})
		if b.Eng.Now() < 1200*time.Millisecond {
			b.Eng.Schedule(interval, inject)
		}
	}
	b.Eng.Schedule(100*time.Millisecond, inject)

	b.Eng.Run()

	for _, n := range uniqueSeqs(res.V1) {
		if n > 1 {
			res.DupAtV1 += n - 1
		}
	}
	got := uniqueSeqs(res.V4)
	for s := uint32(1); s <= seq; s++ {
		if got[s] == 0 {
			res.LostAtV4++
		}
	}
	return res, b.Trace, nil
}

// sendAll pushes one prepared configuration's messages to their target
// switches.
func sendAll(net *dataplane.Network, targets []topo.NodeID, msgs []packet.Message) {
	for i, m := range msgs {
		net.SendToSwitch(targets[i], m, 0)
	}
}

// sendPlan pushes a P4Update plan's indications to their target switches.
func sendPlan(net *dataplane.Network, p *controlplane.Plan) {
	for i := range p.UIMs {
		net.SendToSwitch(p.Targets[i], &p.UIMs[i], 0)
	}
}
