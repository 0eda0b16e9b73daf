package dataplane

import (
	"slices"
	"testing"
	"time"

	"p4update/internal/packet"
	"p4update/internal/topo"
)

// recorder is a Handler that keeps what it is handed: resubmitted
// messages as their frames, with the switch and port they came back on,
// and staged commits by their indication and commit instant.
type recorder struct {
	frames   []string
	nodes    []topo.NodeID
	inPorts  []topo.PortID
	commits  []packet.UIM
	commitAt []time.Duration
}

func (r *recorder) HandleUIM(*Switch, *packet.UIM) {}

func (r *recorder) HandleUNM(*Switch, *packet.UNM, topo.PortID) {}

func (r *recorder) Resubmit(sw *Switch, m packet.Message, inPort topo.PortID) {
	r.frames = append(r.frames, string(packet.Marshal(m)))
	r.nodes = append(r.nodes, sw.ID)
	r.inPorts = append(r.inPorts, inPort)
}

func (r *recorder) CommitStaged(sw *Switch, c *StagedCommit) {
	r.commits = append(r.commits, c.UIM)
	r.commitAt = append(r.commitAt, sw.Network().Eng.Now())
}

// TestParkedMessageIsACopy: a message parked on an indication is a copy —
// the pool-owned original is recycled as soon as dispatch returns —
// handed back to the handler's Resubmit in parking order on its arrival
// port, whatever its type, and its record goes back to the slab.
func TestParkedMessageIsACopy(t *testing.T) {
	net, _ := lineNet(t, 1)
	rec := &recorder{}
	net.SetHandler(rec)
	sw := net.Switch(1)
	unm := &packet.UNM{Flow: 3, Vn: 2, Dn: 4}
	uim := &packet.UIM{Flow: 3, Version: 3, NewDistance: 1, EgressPort: 1}
	ezn := &packet.EZN{Flow: 3, Version: 4}
	want := []string{string(packet.Marshal(unm)), string(packet.Marshal(uim)), string(packet.Marshal(ezn))}
	sw.ParkOnUIM(unm, 0)
	sw.ParkOnUIM(uim, 1)
	sw.ParkOnUIM(ezn, 2)
	*unm, *uim, *ezn = packet.UNM{}, packet.UIM{}, packet.EZN{} // the originals are recycled
	free := len(net.parks.free)
	sw.WakeUIMWaiters(3)
	net.Eng.Run()
	if !slices.Equal(rec.frames, want) || !slices.Equal(rec.inPorts, []topo.PortID{0, 1, 2}) {
		t.Fatalf("resubmitted %q on ports %v, want %q on [0 1 2]", rec.frames, rec.inPorts, want)
	}
	if got := len(net.parks.free) - free; got != 3 {
		t.Errorf("%d parked records recycled, want 3", got)
	}
	if sw.Stats.Resubmissions != 3 {
		t.Errorf("resubmissions = %d, want 3", sw.Stats.Resubmissions)
	}
}

// TestCrashDropsParkedWork: a crash discards messages parked on
// indications and on capacity alike, returning every record to the slab.
func TestCrashDropsParkedWork(t *testing.T) {
	net, g := lineNet(t, 1)
	rec := &recorder{}
	net.SetHandler(rec)
	sw := net.Switch(1)
	m := &packet.UNM{Flow: 3, Vn: 2}
	sw.ParkOnUIM(m, 0)
	sw.ParkOnCapacity(g.PortTo(1, 2), m, 0)
	sw.ParkOnCapacity(g.PortTo(1, 2), &packet.UIM{Flow: 3, Version: 2}, topo.InvalidPort)
	sw.Crash()
	if n := len(net.parks.free); n != 8 {
		t.Errorf("%d of the slab's 8 records free after the crash, want all", n)
	}
	sw.Restore()
	sw.WakeUIMWaiters(3)
	sw.Release(g.PortTo(1, 2), 0)
	net.Eng.Run()
	if len(rec.frames) != 0 {
		t.Errorf("parked messages survived the crash: %q", rec.frames)
	}
}

// TestStagedCommitHoldsItsIndication: a staged commit keeps the
// indication it was staged with, whatever the caller does with its own
// copy, and reaches the handler after the install delay.
func TestStagedCommitHoldsItsIndication(t *testing.T) {
	net, _ := lineNet(t, 1)
	rec := &recorder{}
	net.SetHandler(rec)
	sw := net.Switch(1)
	sw.InstallDelay = func() time.Duration { return 5 * time.Millisecond }
	uim := packet.UIM{Flow: 3, Version: 2, NewDistance: 1}
	c := sw.StageCommit()
	*c = StagedCommit{Flow: 3, UIM: uim}
	sw.Apply(true, c)
	uim.Version = 9
	net.Eng.RunUntil(4 * time.Millisecond)
	if len(rec.commits) != 0 {
		t.Fatal("committed before the install delay elapsed")
	}
	net.Eng.Run()
	if want := []packet.UIM{{Flow: 3, Version: 2, NewDistance: 1}}; !slices.Equal(rec.commits, want) {
		t.Fatalf("committed %+v, want %+v", rec.commits, want)
	}
}

// TestStagedCommitDiesWithItsIncarnation: a commit staged before a crash
// belongs to the dead incarnation and never reaches the handler, with or
// without a fault injector attached; one staged after the restore does.
func TestStagedCommitDiesWithItsIncarnation(t *testing.T) {
	net, _ := lineNet(t, 1)
	rec := &recorder{}
	net.SetHandler(rec)
	sw := net.Switch(1)
	c := sw.StageCommit()
	*c = StagedCommit{Flow: 3, UIM: packet.UIM{Flow: 3, Version: 2}}
	sw.Apply(true, c)
	sw.Crash()
	sw.Restore()
	c = sw.StageCommit()
	*c = StagedCommit{Flow: 3, UIM: packet.UIM{Flow: 3, Version: 3}}
	sw.Apply(true, c)
	net.Eng.Run()
	if want := []packet.UIM{{Flow: 3, Version: 3}}; !slices.Equal(rec.commits, want) {
		t.Fatalf("committed %+v, want only the post-restore %+v", rec.commits, want)
	}
	if n := len(net.commits.free); n != 8 {
		t.Errorf("%d of the slab's 8 commit records free, want all", n)
	}
}

// TestCloneGroup: the group keeps insertion order and ignores repeats,
// spills past its inline ports without losing any, and Reset empties it.
func TestCloneGroup(t *testing.T) {
	var g CloneGroup
	for _, p := range []topo.PortID{4, 2, 4, 7, 2, 9} {
		g.Add(p)
	}
	if want := []topo.PortID{4, 2, 7, 9}; !slices.Equal(g.Ports(), want) {
		t.Fatalf("Ports() = %v, want %v", g.Ports(), want)
	}
	g.Reset()
	if len(g.Ports()) != 0 {
		t.Fatalf("Ports() = %v after Reset, want empty", g.Ports())
	}
	g.Add(5)
	g.Add(5)
	if want := []topo.PortID{5}; !slices.Equal(g.Ports(), want) {
		t.Fatalf("Ports() = %v, want %v", g.Ports(), want)
	}
}

// TestEveryFixedFrameTravelsInline: every fixed-layout message fits a
// delivery record's inline space, so only batches and envelopes need a
// frame buffer.
func TestEveryFixedFrameTravelsInline(t *testing.T) {
	for _, m := range []packet.Message{
		&packet.Data{}, &packet.FRM{}, &packet.UIM{}, &packet.UNM{}, &packet.UFM{},
		&packet.CLN{}, &packet.EZI{}, &packet.EZN{},
	} {
		if n := len(packet.Marshal(m)); n > inlineFrame {
			t.Errorf("%v frame is %d bytes, more than the %d a delivery holds inline", m.Type(), n, inlineFrame)
		}
	}
}
