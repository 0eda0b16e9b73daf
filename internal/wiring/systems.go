package wiring

import (
	"time"

	"p4update/internal/central"
	"p4update/internal/controlplane"
	"p4update/internal/core"
	"p4update/internal/ezsegway"
	"p4update/internal/optoracle"
	"p4update/internal/packet"
	"p4update/internal/ppcu"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

var (
	forceSingle = packet.UpdateSingle
	forceDual   = packet.UpdateDual
)

func init() {
	// Registration order is the default evaluation order (and the
	// figures' series order): the paper's system first, then its two
	// published baselines, then the systems added on top.
	Register(&p4updateSystem{name: "p4update", display: "P4Update"})
	RegisterVariant(&p4updateSystem{name: "p4update-sl", display: "P4Update/SL", force: &forceSingle})
	RegisterVariant(&p4updateSystem{name: "p4update-dl", display: "P4Update/DL", force: &forceDual})
	Register(&ezSegwaySystem{})
	Register(&centralSystem{})
	Register(&ppcuSystem{})
	Register(&optOracleSystem{})
}

// p4updateSystem adapts the paper's protocol (internal/core +
// controlplane) to the registry; the variants pin the update layer the
// §7.5 policy would otherwise choose.
type p4updateSystem struct {
	name, display string
	force         *packet.UpdateType
}

func (p *p4updateSystem) Name() string        { return p.name }
func (p *p4updateSystem) DisplayName() string { return p.display }

func (p *p4updateSystem) Build(s *System) Updater {
	s.Net.SetHandler(&core.Protocol{
		Congestion:      s.Cfg.Congestion,
		AllowChainedDL:  s.Cfg.ChainedDL,
		WatchdogTimeout: s.Cfg.WatchdogTimeout,
	})
	return p4updater{s}
}

// p4updater is P4Update's updater: the system's controller, with the
// update layer its registry entry pins (nil = the §7.5 auto policy).
// It holds one pointer, so building it costs no allocation.
type p4updater struct{ s *System }

func (p p4updater) TriggerUpdate(f packet.FlowID, newPath []topo.NodeID) (*controlplane.UpdateStatus, error) {
	return p.s.Ctl.TriggerUpdate(f, newPath, p.s.Driver.(*p4updateSystem).force)
}

// ezSegwaySystem adapts the decentralized ez-Segway baseline.
type ezSegwaySystem struct{}

func (*ezSegwaySystem) Name() string        { return "ez-segway" }
func (*ezSegwaySystem) DisplayName() string { return "ez-Segway" }

func (*ezSegwaySystem) Build(s *System) Updater {
	s.Net.SetHandler(&ezsegway.Handler{Congestion: s.Cfg.Congestion})
	ez := ezsegway.NewController(s.Ctl)
	ez.Congestion = s.Cfg.Congestion
	if s.Cfg.Plans != nil {
		ez.Plans = s.Cfg.Plans
	}
	return ez
}

// centralSystem adapts the centralized dependency-graph baseline.
type centralSystem struct{}

func (*centralSystem) Name() string        { return "central" }
func (*centralSystem) DisplayName() string { return "Central" }

func (*centralSystem) Build(s *System) Updater {
	s.Net.SetHandler(&controlplane.Agent{Apply: trace.CodeApplyCentral})
	co := central.NewCoordinator(s.Ctl, s.Cfg.CtrlProcDelay)
	co.Congestion = s.Cfg.Congestion
	// The controller also serves path setup and monitoring traffic;
	// every message queues behind it (§9.1, Jarschel et al.).
	if s.Cfg.CtrlQueueMean > 0 {
		rng := s.Eng.Rand()
		mean := float64(s.Cfg.CtrlQueueMean)
		co.QueueDelay = func() time.Duration {
			return time.Duration(rng.ExpFloat64() * mean)
		}
	}
	return co
}

func (*centralSystem) ReportMetrics(s *System, extra map[string]float64) {
	extra["ctl_rounds"] = float64(s.Updater.(*central.Coordinator).Rounds)
}

// ppcuSystem adapts the two-phase per-packet-consistency baseline. It
// turns on the data plane's version-tag fallback on every switch — the
// mechanism its phase flip relies on.
type ppcuSystem struct{}

func (*ppcuSystem) Name() string        { return "ppcu" }
func (*ppcuSystem) DisplayName() string { return "PPCU" }

func (*ppcuSystem) Build(s *System) Updater {
	s.Net.SetHandler(&controlplane.Agent{Apply: trace.CodeApplyPPCU, Congestion: s.Cfg.Congestion})
	for _, sw := range s.Net.Switches() {
		sw.TwoPhase = true
	}
	return ppcu.NewCoordinator(s.Ctl)
}

func (*ppcuSystem) ReportMetrics(s *System, extra map[string]float64) {
	extra["phase_flips"] = float64(s.Updater.(*ppcu.Coordinator).Flips)
}

// optOracleSystem adapts the offline optimal scheduler's idealized
// executor.
type optOracleSystem struct{}

func (*optOracleSystem) Name() string        { return "opt-oracle" }
func (*optOracleSystem) DisplayName() string { return "OptOracle" }

func (*optOracleSystem) Build(s *System) Updater {
	s.Net.SetHandler(&controlplane.Agent{Apply: trace.CodeApplyOracle})
	oo := optoracle.NewCoordinator(s.Ctl)
	if s.Cfg.Plans != nil {
		oo.Plans = s.Cfg.Plans
	}
	return oo
}

func (*optOracleSystem) ReportMetrics(s *System, extra map[string]float64) {
	extra["opt_rounds"] = float64(s.Updater.(*optoracle.Coordinator).Rounds)
}
