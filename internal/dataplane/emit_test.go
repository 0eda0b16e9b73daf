package dataplane

import (
	"slices"
	"testing"
	"time"

	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

// seamCall is what one seam of emit saw, plus how many Send events the
// flight recorder held at that moment (the stage order, observed).
type seamCall struct {
	class    FaultClass
	from, to topo.NodeID
	inPort   topo.PortID
	buf      *byte // base of the frame's backing array
	traced   uint64
}

// pipelineProbe sits on both seams of a Network: it is the fault
// injector (returning a fixed action) and the transport (owning every
// party except remote).
type pipelineProbe struct {
	rec       *trace.Recorder
	act       FaultAction
	remote    topo.NodeID
	inspected []seamCall
	forwarded []seamCall
}

// noParty is a remote that matches nobody: the whole fabric is local.
const noParty topo.NodeID = -2

func (p *pipelineProbe) sends() uint64 {
	var n uint64
	for _, ev := range p.rec.Events() {
		if ev.Kind == trace.KindSend {
			n++
		}
	}
	return n
}

func (p *pipelineProbe) Inspect(class FaultClass, from, to topo.NodeID, raw []byte) ([]byte, FaultAction) {
	p.inspected = append(p.inspected, seamCall{class: class, from: from, to: to, buf: &raw[0], traced: p.sends()})
	return raw, p.act
}

func (p *pipelineProbe) Local(party topo.NodeID) bool { return party != p.remote }

func (p *pipelineProbe) Forward(from, to topo.NodeID, inPort topo.PortID, raw []byte) {
	p.forwarded = append(p.forwarded, seamCall{from: from, to: to, inPort: inPort, buf: &raw[0], traced: p.sends()})
}

// arrivals logs when (and on which port) frames reach their receiver.
type arrivals struct {
	net *Network
	at  []time.Duration
	in  []topo.PortID
}

func (a *arrivals) HandleUIM(*Switch, *packet.UIM) {
	a.at = append(a.at, a.net.Eng.Now())
	a.in = append(a.in, topo.InvalidPort)
}

func (a *arrivals) HandleUNM(_ *Switch, _ *packet.UNM, inPort topo.PortID) {
	a.at = append(a.at, a.net.Eng.Now())
	a.in = append(a.in, inPort)
}

func (a *arrivals) Resubmit(*Switch, packet.Message, topo.PortID) {}

func (a *arrivals) CommitStaged(*Switch, *StagedCommit) {}

// TestEmitStageOrder pins the one transmission path, one row per frame
// class: crashed sender -> record -> route -> inject -> schedule.
func TestEmitStageOrder(t *testing.T) {
	const ctlLatency = 3 * time.Millisecond
	rows := []struct {
		name     string
		class    FaultClass
		from, to topo.NodeID
		crash    bool // the sender is a switch, which can be down
		msgType  packet.MsgType
		delay    time.Duration
		inPort   func(g *topo.Topology) topo.PortID
		send     func(n *Network, g *topo.Topology)
	}{
		{
			name: "data", class: FaultData, from: 1, to: 2, crash: true,
			msgType: packet.TypeUNM, delay: time.Millisecond,
			inPort: func(g *topo.Topology) topo.PortID { return g.PortTo(2, 1) },
			send: func(n *Network, g *topo.Topology) {
				n.SendPort(1, g.PortTo(1, 2), &packet.UNM{Flow: 7, Vn: 2})
			},
		},
		{
			name: "control-up", class: FaultControlUp, from: 1, to: NodeController, crash: true,
			msgType: packet.TypeUFM, delay: ctlLatency,
			inPort: func(*topo.Topology) topo.PortID { return topo.InvalidPort },
			send: func(n *Network, _ *topo.Topology) {
				n.SendToController(1, &packet.UFM{Flow: 7, Version: 2, Status: packet.StatusUpdated})
			},
		},
		{
			name: "control-down", class: FaultControlDown, from: NodeController, to: 2,
			msgType: packet.TypeUIM, delay: ctlLatency + 2*time.Millisecond,
			inPort: func(*topo.Topology) topo.PortID { return topo.InvalidPort },
			send: func(n *Network, _ *topo.Topology) {
				n.SendToSwitch(2, &packet.UIM{Flow: 7, Version: 2}, 2*time.Millisecond)
			},
		},
	}
	for _, row := range rows {
		// build wires a line fabric with the probe on both seams and one
		// known buffer in the pool, so buffer identity is checkable: every
		// row's frame is short, so it is serialized into that buffer and
		// travels inline in its delivery record, and the buffer goes
		// straight back to the pool.
		build := func(t *testing.T) (*Network, *topo.Topology, *pipelineProbe, *arrivals, *byte) {
			net, g := lineNet(t, 1)
			rec := trace.New(trace.Options{})
			net.Eng.Trace = rec
			probe := &pipelineProbe{rec: rec, remote: noParty}
			net.Faults, net.Proc = probe, probe
			net.ControlLatency = func(topo.NodeID) time.Duration { return ctlLatency }
			arr := &arrivals{net: net}
			net.SetHandler(arr)
			net.ControllerRx = func(from topo.NodeID, raw []byte) {
				if from != row.from {
					t.Errorf("controller heard from %d, want %d", from, row.from)
				}
				arr.at = append(arr.at, net.Eng.Now())
				arr.in = append(arr.in, topo.InvalidPort)
			}
			pooled := make([]byte, 1, 256)
			net.pool.PutBuf(pooled)
			return net, g, probe, arr, &pooled[0]
		}
		// poolHolds drains the pool: exactly the one known buffer must be
		// in it (zero = leaked, two = recycled twice).
		poolHolds := func(t *testing.T, net *Network, want *byte) {
			t.Helper()
			var got []*byte
			for b := net.pool.GetBuf(); b != nil; b = net.pool.GetBuf() {
				got = append(got, &b[:1][0])
			}
			if !slices.Equal(got, []*byte{want}) {
				t.Errorf("pool holds %d buffers %v, want exactly the primed one", len(got), got)
			}
		}

		t.Run(row.name+"/crashed sender transmits nothing", func(t *testing.T) {
			if !row.crash {
				t.Skip("the controller does not crash")
			}
			net, g, probe, arr, pooled := build(t)
			net.Switch(row.from).Crash()
			row.send(net, g)
			net.Eng.Run()
			if probe.sends() != 0 || len(probe.inspected) != 0 || len(probe.forwarded) != 0 || len(arr.at) != 0 {
				t.Errorf("sends=%d inspected=%d forwarded=%d arrivals=%d, want all zero",
					probe.sends(), len(probe.inspected), len(probe.forwarded), len(arr.at))
			}
			poolHolds(t, net, pooled)
		})

		t.Run(row.name+"/traced, then inspected, then delivered", func(t *testing.T) {
			net, g, probe, arr, pooled := build(t)
			row.send(net, g)
			want := seamCall{class: row.class, from: row.from, to: row.to, traced: 1}
			if len(probe.inspected) == 1 {
				if probe.inspected[0].buf == pooled {
					t.Error("Inspect was handed the pool buffer; a short frame travels inline in its delivery record")
				}
				want.buf = probe.inspected[0].buf
			}
			if !slices.Equal(probe.inspected, []seamCall{want}) {
				t.Fatalf("Inspect saw %+v, want %+v", probe.inspected, want)
			}
			ev := net.Eng.Trace.Events()[0]
			if ev.Kind != trace.KindSend || ev.Node != int32(row.from) || ev.A != uint32(row.to) || ev.Class != uint8(row.msgType) {
				t.Errorf("traced %+v, want a %v Send %d->%d", ev, row.msgType, row.from, row.to)
			}
			net.Eng.Run()
			if !slices.Equal(arr.at, []time.Duration{row.delay}) || arr.in[0] != row.inPort(g) {
				t.Errorf("arrivals at %v on %v, want one at %v on port %d", arr.at, arr.in, row.delay, row.inPort(g))
			}
			poolHolds(t, net, pooled)
		})

		t.Run(row.name+"/drop recycles and schedules nothing", func(t *testing.T) {
			net, g, probe, arr, pooled := build(t)
			probe.act = FaultAction{Drop: true}
			row.send(net, g)
			if len(probe.inspected) != 1 || net.Eng.Pending() != 0 {
				t.Fatalf("inspected=%d pending=%d, want 1 and 0", len(probe.inspected), net.Eng.Pending())
			}
			poolHolds(t, net, pooled)
			net.Eng.Run()
			if len(arr.at) != 0 {
				t.Errorf("dropped frame arrived at %v", arr.at)
			}
		})

		t.Run(row.name+"/duplicate delivers twice, recycles once", func(t *testing.T) {
			net, g, probe, arr, pooled := build(t)
			probe.act = FaultAction{Duplicate: true, Delay: 4 * time.Millisecond}
			row.send(net, g)
			inFlight := len(net.deliveries.free)
			first := row.delay + 4*time.Millisecond
			net.Eng.RunUntil(first)
			if len(arr.at) != 1 || len(net.deliveries.free) != inFlight+1 {
				t.Fatalf("after the first copy: %d arrivals (want 1), %d records recycled (want 1)",
					len(arr.at), len(net.deliveries.free)-inFlight)
			}
			net.Eng.Run()
			if !slices.Equal(arr.at, []time.Duration{first, first + time.Millisecond}) {
				t.Errorf("arrivals at %v, want %v and 1ms later", arr.at, first)
			}
			poolHolds(t, net, pooled)
		})

		t.Run(row.name+"/non-local party leaves through the transport", func(t *testing.T) {
			net, g, probe, arr, pooled := build(t)
			probe.remote = row.to
			row.send(net, g)
			if len(probe.forwarded) != 1 || len(probe.inspected) != 0 || net.Eng.Pending() != 0 {
				t.Fatalf("forwarded=%d inspected=%d pending=%d, want 1, 0, 0",
					len(probe.forwarded), len(probe.inspected), net.Eng.Pending())
			}
			got := probe.forwarded[0]
			if got.from != row.from || got.to != row.to || got.inPort != row.inPort(g) || got.traced != 1 {
				t.Errorf("Forward saw %+v, want %d->%d on port %d after one traced Send",
					got, row.from, row.to, row.inPort(g))
			}
			if got.buf == pooled {
				t.Error("Forward was handed the pooled buffer; a transport retains what it is given")
			}
			poolHolds(t, net, pooled)
			if len(arr.at) != 0 {
				t.Errorf("forwarded frame also delivered locally at %v", arr.at)
			}
		})
	}
}

// TestEmitLongFrameTravelsInPooledBuffer: a frame longer than a delivery
// record's inline space (a UIM batch) travels in the pool's buffer, is
// inspected in place there, and the buffer returns to the pool once the
// frame is delivered.
func TestEmitLongFrameTravelsInPooledBuffer(t *testing.T) {
	net, _ := lineNet(t, 1)
	probe := &pipelineProbe{rec: trace.New(trace.Options{}), remote: noParty}
	net.Faults = probe
	arr := &arrivals{net: net}
	net.SetHandler(arr)
	pooled := make([]byte, 1, 256)
	net.pool.PutBuf(pooled)
	net.SendToSwitch(2, &packet.UIMBatch{Items: []packet.UIM{{Flow: 7, Version: 2}, {Flow: 8, Version: 2}}}, 0)
	if len(probe.inspected) != 1 || probe.inspected[0].buf != &pooled[0] {
		t.Fatalf("Inspect saw %+v, want one call on the pool buffer", probe.inspected)
	}
	if net.pool.GetBuf() != nil {
		t.Fatal("the pool buffer came back before the frame was delivered")
	}
	net.Eng.Run()
	if len(arr.at) != 2 {
		t.Fatalf("%d indications arrived, want 2", len(arr.at))
	}
	if b := net.pool.GetBuf(); b == nil || &b[:1][0] != &pooled[0] {
		t.Error("the pool buffer did not return after delivery")
	}
}

// TestEmitNoLocalControllerRx: with the controller in this process and
// nobody listening, a controller-bound frame is neither sent nor traced;
// with the controller in another process it is forwarded regardless.
func TestEmitNoLocalControllerRx(t *testing.T) {
	net, _ := lineNet(t, 1)
	rec := trace.New(trace.Options{})
	net.Eng.Trace = rec
	probe := &pipelineProbe{rec: rec, remote: noParty}
	net.Faults, net.Proc = probe, probe
	ufm := &packet.UFM{Flow: 7, Version: 2, Status: packet.StatusUpdated}

	net.SendToController(1, ufm)
	if probe.sends() != 0 || len(probe.inspected) != 0 || net.Eng.Pending() != 0 {
		t.Errorf("no ControllerRx: sends=%d inspected=%d pending=%d, want all zero",
			probe.sends(), len(probe.inspected), net.Eng.Pending())
	}
	probe.remote = NodeController
	net.SendToController(1, ufm)
	if probe.sends() != 1 || len(probe.forwarded) != 1 {
		t.Errorf("remote controller: sends=%d forwarded=%d, want 1 and 1", probe.sends(), len(probe.forwarded))
	}
}

// TestEmitBatchTracesAsItems: a UIMBatch frame is one frame on the wire
// and one Inspect call, but traces as the UIMs it carries.
func TestEmitBatchTracesAsItems(t *testing.T) {
	net, _ := lineNet(t, 1)
	rec := trace.New(trace.Options{})
	net.Eng.Trace = rec
	probe := &pipelineProbe{rec: rec, remote: noParty}
	net.Faults = probe
	net.SendToSwitch(2, &packet.UIMBatch{Items: []packet.UIM{
		{Flow: 7, Version: 2}, {Flow: 8, Version: 5},
	}}, 0)
	evs := rec.Events()
	if len(evs) != 2 || len(probe.inspected) != 1 || probe.inspected[0].traced != 2 {
		t.Fatalf("%d events, %d Inspect calls; want 2 and 1 (after both were traced)", len(evs), len(probe.inspected))
	}
	for i, want := range []struct{ flow, ver uint32 }{{7, 2}, {8, 5}} {
		ev := evs[i]
		if ev.Kind != trace.KindSend || ev.Class != uint8(packet.TypeUIM) || ev.Node != trace.NodeController ||
			ev.A != 2 || ev.Flow != want.flow || ev.Ver != want.ver {
			t.Errorf("event %d = %+v, want a UIM Send controller->2 for flow %d v%d", i, ev, want.flow, want.ver)
		}
	}
}
