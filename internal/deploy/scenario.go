// Package deploy runs the simulator's protocol stack as real OS
// processes: cmd/controllerd and cmd/switchd build the same
// wiring.System as a simulated trial, but hand every frame addressed
// to a remote party to internal/transport (UDP) instead of the
// in-memory queue, and drive the virtual-clock engine in real time.
// The simulator stays the oracle — GoldenEvents runs the identical
// scenario in-process, and internal/replaydiff certifies the recorded
// deployment run decision-equivalent to it.
package deploy

import (
	"fmt"
	"time"

	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/trace"
	"p4update/internal/wiring"
)

// Scenario is a deployment trial: one registered flow and one pushed
// route update, parameterized so the simulated golden run and the
// real-process run are built from the same values.
type Scenario struct {
	// Topo names the topology; "fig2" is the only deployed fabric.
	Topo string
	// Seed feeds the engines (identical in every process).
	Seed int64
	// FlowSrc/FlowDst and OldPath describe the pre-installed flow;
	// NewPath is the update pushed at trigger time.
	FlowSrc, FlowDst topo.NodeID
	OldPath, NewPath []topo.NodeID
	SizeK            uint32
	// ForceSL pins the update to single-layer (the fig2 scenario's
	// path pair would otherwise auto-select too).
	ForceSL bool
	// InstallDelay is the constant per-rule install latency.
	InstallDelay time.Duration
	// WatchdogTimeout / MaxRetriggers / ProbeTimeout configure §11
	// recovery, identical in oracle and deployment.
	WatchdogTimeout time.Duration
	MaxRetriggers   int
	ProbeTimeout    time.Duration
}

// Fig2Scenario is the deployment default: the paper's Fig. 2 topology,
// flow 0→4 moving from the 5-hop path to the 4-hop path (node 3 leaves
// the path and is cleaned up after confirmation).
func Fig2Scenario() Scenario {
	return Scenario{
		Topo:            "fig2",
		Seed:            1,
		FlowSrc:         0,
		FlowDst:         4,
		OldPath:         []topo.NodeID{0, 1, 2, 3, 4},
		NewPath:         []topo.NodeID{0, 1, 2, 4},
		SizeK:           1000,
		ForceSL:         true,
		InstallDelay:    120 * time.Millisecond,
		WatchdogTimeout: 2 * time.Second,
		MaxRetriggers:   3,
		ProbeTimeout:    2 * time.Second,
	}
}

// Topology materializes the scenario's fabric.
func (s Scenario) Topology() (*topo.Topology, error) {
	switch s.Topo {
	case "", "fig2":
		g, _, _, _ := topo.Fig2Scenario()
		return g, nil
	default:
		return nil, fmt.Errorf("deploy: unknown topology %q", s.Topo)
	}
}

// Flow returns the scenario flow's wire ID (the ingress hash, exactly
// as RegisterFlow derives it).
func (s Scenario) Flow() packet.FlowID {
	return packet.HashFlow(uint16(s.FlowSrc), uint16(s.FlowDst))
}

// Force returns the update-type pin for TriggerUpdate.
func (s Scenario) Force() *packet.UpdateType {
	if !s.ForceSL {
		return nil
	}
	f := packet.UpdateSingle
	return &f
}

// wiringCfg builds the trial config shared by the oracle and every
// deployment process; tr is nil for the oracle.
func (s Scenario) wiringCfg(tr dataplane.Transport) wiring.Config {
	return wiring.Config{
		Seed:             s.Seed,
		System:           "p4update",
		BaseInstallDelay: s.InstallDelay,
		WatchdogTimeout:  s.WatchdogTimeout,
		MaxRetriggers:    s.MaxRetriggers,
		ProbeTimeout:     s.ProbeTimeout,
		Trace:            &trace.Options{},
		Transport:        tr,
	}
}

// GoldenEvents executes the scenario entirely in the simulator and
// returns its flight recording — the oracle trace the deployment run
// is diffed against.
func GoldenEvents(s Scenario) ([]trace.Event, error) {
	g, err := s.Topology()
	if err != nil {
		return nil, err
	}
	sys := wiring.New(g, s.wiringCfg(nil))
	f, err := sys.Ctl.RegisterFlow(s.FlowSrc, s.FlowDst, s.OldPath, s.SizeK)
	if err != nil {
		return nil, err
	}
	if _, err := sys.Ctl.TriggerUpdate(f, s.NewPath, s.Force()); err != nil {
		return nil, err
	}
	sys.Eng.Run()
	return sys.Trace.Events(), nil
}
