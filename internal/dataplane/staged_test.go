package dataplane_test

import (
	"testing"

	"p4update/internal/controlplane"
	"p4update/internal/core"
	"p4update/internal/dataplane"
	"p4update/internal/ezsegway"
	"p4update/internal/packet"
	"p4update/internal/topo"
)

// TestStagedCommitOutlivesRetiredFlow: a flow retired while one of its
// commits waits out the install delay gives its register blocks back,
// and the next flow installed through the same switches takes them.
// When the commit runs, it must resolve its flow's registers afresh and
// leave the new tenant's alone — for each of the handlers that stage
// commits: P4Update's, the round systems' agent and ez-Segway's.
func TestStagedCommitOutlivesRetiredFlow(t *testing.T) {
	const stale, tenant = packet.FlowID(5), packet.FlowID(6)
	path := []topo.NodeID{0, 1, 2, 3}
	for _, tc := range []struct {
		name  string
		h     dataplane.Handler
		stage func(h dataplane.Handler, sw *dataplane.Switch, port uint16)
	}{
		{"p4update", &core.Protocol{}, func(h dataplane.Handler, sw *dataplane.Switch, _ uint16) {
			h.HandleUIM(sw, &packet.UIM{
				Flow: stale, Version: 2, EgressPort: packet.NoPort, ChildPort: packet.NoPort,
				Role: packet.RoleEgress, UpdateType: packet.UpdateSingle,
			})
		}},
		{"round-agent", &controlplane.Agent{}, func(h dataplane.Handler, sw *dataplane.Switch, port uint16) {
			h.HandleUIM(sw, &packet.UIM{Flow: stale, Version: 2, EgressPort: port, ChildPort: packet.NoPort})
		}},
		{"ez-segway", &ezsegway.Handler{}, func(h dataplane.Handler, sw *dataplane.Switch, port uint16) {
			mh := h.(dataplane.MessageHandler)
			mh.HandleMessage(sw, &packet.EZI{Flow: stale, Version: 2, EgressPort: port, ChildPort: packet.NoPort}, topo.InvalidPort)
			mh.HandleMessage(sw, &packet.EZN{Flow: stale, Version: 2}, topo.InvalidPort)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, g := lineNet(t, 1)
			net.SetHandler(tc.h)
			sw := net.Switch(1)
			tc.stage(tc.h, sw, uint16(g.PortTo(1, 2)))
			if net.Eng.Pending() == 0 {
				t.Fatal("the handler staged no commit")
			}
			if !net.RetireFlow(stale) {
				t.Fatal("the staging flow was not interned")
			}
			if _, err := net.InstallPath(tenant, path, 1, 10); err != nil {
				t.Fatal(err)
			}
			want := make([]dataplane.FlowState, len(path))
			for k, node := range path {
				st, _ := net.Switch(node).PeekState(tenant)
				want[k] = *st
			}
			net.Eng.Run()
			for k, node := range path {
				if st, _ := net.Switch(node).PeekState(tenant); *st != want[k] {
					t.Errorf("node %d: the stale commit changed the tenant's registers from %+v to %+v", node, want[k], *st)
				}
			}
		})
	}
}
