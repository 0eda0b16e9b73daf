package dataplane

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"p4update/internal/packet"
	"p4update/internal/sim"
	"p4update/internal/topo"
)

// dirtyNetwork leaves net the way a trial cut short leaves its fabric:
// flows installed past the first slab blocks and some retired,
// reservations staged, work parked on capacity and on indications,
// high-priority waiters, frames and a commit in flight, one switch down
// and another through a crash cycle, and every hook, seam and
// per-switch knob set.
func dirtyNetwork(net *Network, g *topo.Topology) {
	net.SetHandler(&recorder{})
	n := g.NumNodes()
	path := make([]topo.NodeID, n)
	for i := range path {
		path[i] = topo.NodeID(i)
	}
	for f := packet.FlowID(1); f <= 100; f++ {
		net.InstallPath(f, path, 1, 10)
	}
	for f := packet.FlowID(1); f <= 100; f += 3 {
		net.RetireFlow(f)
	}
	for _, sw := range net.Switches() {
		sw.State(3).Proto = sw
		for p := range sw.degree {
			port := topo.PortID(p)
			sw.StageReservation(2, port, 5, 2)
			sw.ParkOnCapacity(port, &packet.UIM{Flow: 2, Version: 2}, topo.InvalidPort)
			sw.MarkHighWaiting(port, 5)
		}
		sw.ParkOnUIM(&packet.UNM{Flow: 2, Vn: 2}, 0)
		sw.InstallDelay = func() time.Duration { return time.Millisecond }
		sw.FRMEnabled = true
		sw.TwoPhase = true
		sw.DataTap = func(*Switch, *packet.Data, topo.PortID) {}
	}
	net.ControlLatency = func(topo.NodeID) time.Duration { return time.Millisecond }
	net.ControllerRx = func(topo.NodeID, []byte) {}
	net.OnApply = func(topo.NodeID, packet.FlowID, uint32) {}
	net.OnDeliver = func(topo.NodeID, *packet.Data) {}
	net.Switch(0).InjectData(&packet.Data{Flow: 2, TTL: 8})
	net.Switch(0).InjectData(&packet.Data{Flow: 999, TTL: 8})
	net.Switch(1).Apply(true, net.Switch(1).StageCommit())
	net.Eng.MaxEvents = 3
	net.Eng.Run()
	net.Switch(2).Crash()
	net.Switch(3).Crash()
	net.Switch(3).Restore()
	net.Faults = &pipelineProbe{remote: noParty}
	net.Proc = &pipelineProbe{remote: noParty}
}

// freshDiff lists where got differs from want, a freshly built value of
// the same type. Slices compare by length and elements (nil equals
// empty: capacity is what a reset keeps), functions and interfaces by
// nil-ness and then content, pointers by what they point at. skip
// names struct fields, as Type.Field, whose storage a reset keeps
// rather than zeroes; they are checked separately.
func freshDiff(path string, got, want reflect.Value, skip map[string]bool) []string {
	differ := func() []string { return []string{path} }
	switch got.Kind() {
	case reflect.Struct:
		var out []string
		for i := range got.NumField() {
			f := got.Type().Field(i)
			if skip[got.Type().Name()+"."+f.Name] {
				continue
			}
			out = append(out, freshDiff(path+"."+f.Name, got.Field(i), want.Field(i), skip)...)
		}
		return out
	case reflect.Slice, reflect.Array:
		if got.Len() != want.Len() {
			return differ()
		}
		var out []string
		for i := range got.Len() {
			out = append(out, freshDiff(fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i), skip)...)
		}
		return out
	case reflect.Map:
		if got.Len() != want.Len() {
			return differ()
		}
		return nil // every map a network holds is empty when fresh
	case reflect.Pointer, reflect.Interface:
		if got.IsNil() != want.IsNil() {
			return differ()
		}
		if got.IsNil() {
			return nil
		}
		if got.Kind() == reflect.Interface && got.Elem().Type() != want.Elem().Type() {
			return differ()
		}
		return freshDiff(path, got.Elem(), want.Elem(), skip)
	case reflect.Func:
		if got.IsNil() != want.IsNil() {
			return differ()
		}
		return nil
	case reflect.Bool:
		if got.Bool() != want.Bool() {
			return differ()
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if got.Int() != want.Int() {
			return differ()
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if got.Uint() != want.Uint() {
			return differ()
		}
	case reflect.String:
		if got.String() != want.String() {
			return differ()
		}
	default:
		return []string{path + ": unhandled kind " + got.Kind().String()}
	}
	return nil
}

// resetKeeps names the fields Network.Reset keeps instead of zeroing:
// the engine and topology it is given or built for, the back pointer,
// the pools and slabs, the flow index's table, and the register slab
// and update-context pool (all three checked for emptiness on their
// own).
var resetKeeps = map[string]bool{
	"Network.Eng": true, "Network.Topo": true, "Network.pool": true,
	"Network.deliveries": true, "Network.parks": true, "Network.commits": true,
	"Network.states": true, "Network.contexts": true, "Switch.net": true,
	"flowIndex.tab": true,
}

// TestNetworkResetMatchesFresh dirties a fabric, resets it, and requires
// every field but the storage Reset keeps to equal a freshly built
// fabric's — field by field through reflection, so a field added to
// Network or Switch later fails here until Reset handles it. The reset
// fabric must then hand out the register blocks and contexts it kept,
// in block order, and run a workload exactly as the fresh one does.
func TestNetworkResetMatchesFresh(t *testing.T) {
	net, g := ringNet(6)
	dirtyNetwork(net, g)
	if net.Eng.Pending() == 0 {
		t.Fatal("dirty fabric has no work in flight; the test covers nothing")
	}
	if len(net.states.blocks) < 4 {
		t.Fatalf("dirty fabric opened %d slab blocks; the test covers no block order", len(net.states.blocks))
	}
	kept := slices.Clone(net.states.blocks)
	if len(net.contexts.blocks) < 2 {
		t.Fatalf("dirty fabric opened %d context blocks; the test covers no block order", len(net.contexts.blocks))
	}
	firstCtx := &net.contexts.blocks[0][0]
	indexSize := len(net.flows.idx.tab)

	net.Reset(sim.New(1))
	fresh := NewNetwork(sim.New(1), g)
	for _, d := range freshDiff("Network", reflect.ValueOf(net).Elem(), reflect.ValueOf(fresh).Elem(), resetKeeps) {
		t.Errorf("%s differs from a fresh network after Reset", d)
	}
	// The flow index is empty but keeps its table.
	if x := &net.flows.idx; x.n != 0 || len(x.tab) != indexSize {
		t.Errorf("flow index after Reset: %d entries in %d buckets, want 0 in %d", x.n, len(x.tab), indexSize)
	} else if i := slices.IndexFunc(x.tab, func(e indexEntry) bool { return e != indexEntry{} }); i >= 0 {
		t.Errorf("flow index bucket %d holds %+v after Reset", i, x.tab[i])
	}
	// The kept slab blocks are empty, nothing is on the free list, and
	// each of their states is fresh or zero: none holds anything of the
	// old run, such as a context pointer that would keep the old run's
	// protocol state alive.
	fresh0, zero := reflect.ValueOf(freshFlowState()), reflect.ValueOf(FlowState{})
	if s := &net.states; s.open != 0 || len(s.free) != 0 {
		t.Errorf("state slab after Reset: %d blocks open, %d blocks free", s.open, len(s.free))
	}
	for k, blk := range net.states.blocks {
		if len(blk) != 0 {
			t.Errorf("slab block %d holds %d states after Reset", k, len(blk))
		}
		for i, st := range blk[:cap(blk)] {
			v := reflect.ValueOf(st)
			if freshDiff("", v, fresh0, nil) != nil && freshDiff("", v, zero, nil) != nil {
				t.Errorf("slab block %d state %d holds the old run's state after Reset", k, i)
			}
		}
	}

	// Likewise the context pool: no block open, nothing on the free
	// list, and every kept context renewed (zero but for the capacity of
	// its reservation slice).
	if p := &net.contexts; p.open != 0 || len(p.free) != 0 {
		t.Errorf("context pool after Reset: %d blocks open, %d contexts free", p.open, len(p.free))
	}
	for k, blk := range net.contexts.blocks {
		if len(blk) != 0 {
			t.Errorf("context block %d holds %d contexts after Reset", k, len(blk))
		}
		for i, c := range blk[:cap(blk)] {
			if freshDiff("", reflect.ValueOf(c), reflect.ValueOf(UpdateContext{}), nil) != nil {
				t.Errorf("context block %d entry %d holds the old run's state after Reset", k, i)
			}
		}
	}

	// Both fabrics run one workload; the reset one reuses its blocks.
	run := func(net *Network) string {
		rec := &recorder{}
		net.SetHandler(rec)
		path := []topo.NodeID{0, 1, 2, 3}
		for f := packet.FlowID(10); f < 40; f++ {
			net.InstallPath(f, path, 1, 1000)
		}
		net.Switch(1).StageReservation(10, g.PortTo(1, 2), 5, 2)
		for _, p := range []topo.PortID{g.PortTo(1, 2), g.PortTo(2, 3)} {
			net.Switch(2).ParkOnCapacity(p, &packet.UIM{Flow: 10, Version: 2}, topo.InvalidPort)
		}
		net.RetireFlow(12)
		net.Switch(0).InjectData(&packet.Data{Flow: 11, TTL: 8})
		net.Eng.Run()
		var out string
		for _, sw := range net.Switches() {
			out += fmt.Sprintf("%d %+v %v %v\n", sw.ID, sw.Stats, sw.reserved, sw.Flows())
		}
		return out + fmt.Sprint(rec.frames, net.Eng.Steps(), net.Eng.Scheduled(), net.Eng.Now())
	}
	if got, want := run(net), run(fresh); got != want {
		t.Errorf("reset fabric ran\n%s\nfresh fabric ran\n%s", got, want)
	}
	// The workload's installs took the kept blocks' states one after
	// another in block order, hop by hop.
	n := 0
	for f := packet.FlowID(10); f < 40; f++ {
		for _, node := range []topo.NodeID{0, 1, 2, 3} {
			k, i := 0, n
			for i >= cap(kept[k]) {
				i -= cap(kept[k])
				k++
			}
			want := &kept[k][:cap(kept[k])][i]
			if f == 12 {
				want = nil // retired
			}
			if st, _ := net.Switch(node).PeekState(f); st != want {
				t.Fatalf("flow %d on node %d: state block %p after Reset, want block %d entry %d (%p)", f, node, st, k, i, want)
			}
			n++
		}
	}
	if st, _ := net.Switch(1).PeekState(10); st.UpdateContext != firstCtx {
		t.Errorf("first update context after Reset is %p, want the kept block's %p", st.UpdateContext, firstCtx)
	}
}
