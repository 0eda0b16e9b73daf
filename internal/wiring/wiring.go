// Package wiring is the single construction path for a fully wired
// system under test. Both the public facade (p4update.NewNetwork) and
// the evaluation harness (experiments.NewBed) build their systems here.
// Which data-plane handler runs and which controller drives updates is
// resolved through the UpdateSystem registry (registry.go): systems
// register themselves by name, construction looks the name up and calls
// the entry's Build, and triggering dispatches to the Updater it returns
// — adding a system never touches this file.
package wiring

import (
	"fmt"
	"math/rand"
	"time"

	"p4update/internal/audit"
	"p4update/internal/controlplane"
	"p4update/internal/core"
	"p4update/internal/dataplane"
	"p4update/internal/faults"
	"p4update/internal/packet"
	"p4update/internal/plancache"
	"p4update/internal/sim"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

// Config is the one knob set from which every system is built. The zero
// value is usable (seed 0, P4Update auto policy, no delays); callers
// layer their own defaults on top before calling New.
type Config struct {
	// Seed fixes the simulation's random streams.
	Seed int64
	// System selects the update system by registered name ("p4update",
	// "ez-segway", "central", "ppcu", "opt-oracle", or a registered
	// variant; AllNames lists them). Empty means "p4update".
	System string
	// Congestion enables link-capacity enforcement and each system's
	// scheduler (P4Update §7.4, ez-Segway's static dependency graph).
	Congestion bool
	// ChainedDL enables the Appendix-C chained dual-layer extension.
	ChainedDL bool
	// WatchdogTimeout arms the §11 failure-recovery watchdog on held
	// indications (0 disables it).
	WatchdogTimeout time.Duration
	// MaxRetriggers bounds §11 stalled-update re-transmissions.
	MaxRetriggers int
	// MaxEvents bounds a run as a runaway-loop backstop (0 = unlimited).
	MaxEvents uint64
	// TwoPhase enables the §11 two-phase-commit integration.
	TwoPhase bool

	// Rule-install latency, first match wins:
	// InstallDelay (explicit sampler) > NodeDelayMean (exponential,
	// engine RNG) > BaseInstallDelay (constant) > instantaneous.
	InstallDelay     func() time.Duration
	NodeDelayMean    time.Duration
	BaseInstallDelay time.Duration

	// Controller placement and control-channel latency, first match
	// wins: SampledControl (explicit per-switch sampler, centroid
	// placement) > FatTreeControl (the §9.1 normal-distribution model,
	// Huang et al., derived from Seed) > Controller (pinned node,
	// propagation latencies) > topology centroid.
	SampledControl func() time.Duration
	FatTreeControl bool
	Controller     *topo.NodeID

	// CtrlProcDelay is the Central coordinator's per-message processing
	// time; CtrlQueueMean the mean of its exponential queuing delay
	// (§9.1, Jarschel et al.). Both only matter under Central.
	CtrlProcDelay time.Duration
	CtrlQueueMean time.Duration

	// Plans, when set, memoizes control-plane plan preparation across
	// the trials sharing a frozen topology (internal/plancache): each
	// distinct (flow, paths, version, ...) plan is computed once per
	// grid and cloned cheaply — shared immutably — into every trial.
	Plans *plancache.Cache

	// Faults, when set, attaches the deterministic chaos harness
	// (internal/faults) to the fabric. The plan is copied per system; a
	// zero plan Seed is replaced by this config's Seed so grid sweeps
	// get independent chaos per trial without spelling it out.
	Faults *faults.Plan
	// AuditEvery, when positive, attaches the continuous invariant
	// auditor (internal/audit) sweeping every AuditEvery engine steps.
	// The capacity invariant follows Congestion: unconstrained setups
	// legitimately overbook links.
	AuditEvery int
	// ProbeTimeout arms the controller-side end-to-end completion
	// watchdog (probe re-injection / indication re-send; see
	// controlplane.Controller.ProbeTimeout). Zero disables it.
	ProbeTimeout time.Duration
	// TrackRounds attaches a RoundTracker measuring per-update commit
	// rounds (for the optimality-gap evaluation). Off by default — the
	// tracker wraps the apply observer, which costs a map lookup per
	// commit.
	TrackRounds bool
	// Trace, when set, attaches a flight recorder (internal/trace) to the
	// engine; every protocol layer then logs its sends, receives,
	// verification verdicts, commits, and recovery events into the
	// recorder's ring buffer. Nil leaves tracing off — the hot path then
	// pays only a nil check per site.
	Trace *trace.Options

	// Transport, when set, splits the fabric across OS processes
	// (deployment mode, cmd/controllerd + cmd/switchd): frames
	// addressed to parties this process does not own leave through it
	// instead of the in-memory delivery queue. A deployment process
	// hosts a small slice of the fabric and runs its engine in real time.
	Transport dataplane.Transport
}

// System is a fully wired system under one update system: engine, data
// plane, tracking controller, and the driver that starts its updates.
type System struct {
	Cfg  Config
	Topo *topo.Topology
	Eng  *sim.Engine
	Net  *dataplane.Network
	Ctl  *controlplane.Controller
	// Driver is the registry entry the system was built from, and
	// Updater what its Build returned to start the system's updates:
	// P4Update's controller with the variant's layer pinned, or a
	// baseline's coordinator (*ezsegway.Controller, *central.Coordinator,
	// *ppcu.Coordinator, *optoracle.Coordinator). Both are nil when the
	// configured name resolves to nothing; Trigger then errors.
	Driver  UpdateSystem
	Updater Updater
	// Inj is the attached fault injector (nil without Config.Faults);
	// Aud the attached invariant auditor (nil without AuditEvery).
	Inj *faults.Injector
	Aud *audit.Auditor
	// Trace is the attached flight recorder (nil without Config.Trace).
	Trace *trace.Recorder
	// Rounds is the attached round tracker (nil without TrackRounds).
	Rounds *RoundTracker

	name string
	// ctlRng is the FatTreeControl latency sampler's source, kept so a
	// recycled system re-seeds it instead of allocating one.
	ctlRng *rand.Rand
}

// SystemName returns the resolved registry name the system was
// configured with (possibly unregistered).
func (s *System) SystemName() string { return s.name }

// New builds switches for every node of g, wires the fabric and a
// controller, and installs the configured update protocol.
func New(g *topo.Topology, cfg Config) *System { return Recycle(nil, g, cfg) }

// Recycle builds what New(g, cfg) builds. When prev is a system on the
// same topology and neither system splits its fabric across processes
// (Config.Transport), the new system takes over prev's engine and
// network and resets them (sim.Engine.Reset, dataplane.Network.Reset)
// instead of allocating its own, so prev must not be used afterwards.
// Everything else — controller, coordinators, handlers, injector,
// auditor, recorder — is built afresh either way.
func Recycle(prev *System, g *topo.Topology, cfg Config) *System {
	var eng *sim.Engine
	var net *dataplane.Network
	var ctlRng *rand.Rand
	if prev != nil && prev.Topo == g && prev.Cfg.Transport == nil && cfg.Transport == nil {
		eng, net, ctlRng = prev.Eng, prev.Net, prev.ctlRng
		eng.Reset(cfg.Seed)
		net.Reset(eng)
	} else {
		eng = sim.New(cfg.Seed)
		net = dataplane.NewNetwork(eng, g)
	}
	eng.MaxEvents = cfg.MaxEvents
	if cfg.Trace != nil {
		rec := trace.New(*cfg.Trace)
		rec.Clock = eng.Now
		eng.Trace = rec
	}
	net.Proc = cfg.Transport

	switch {
	case cfg.SampledControl != nil:
		controlplane.UseSampledControl(net, cfg.SampledControl)
	case cfg.FatTreeControl:
		if ctlRng == nil {
			ctlRng = rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
		} else {
			ctlRng.Seed(cfg.Seed ^ 0x5eed)
		}
		controlplane.UseSampledControl(net, func() time.Duration {
			// Huang et al. measured switch control-path latencies of a
			// few milliseconds; clamp the normal sample to stay positive.
			d := time.Duration((4 + 2*ctlRng.NormFloat64()) * float64(time.Millisecond))
			if d < 500*time.Microsecond {
				d = 500 * time.Microsecond
			}
			return d
		})
	case cfg.Controller != nil:
		lat := g.ControlLatencies(*cfg.Controller)
		net.ControlLatency = func(n topo.NodeID) time.Duration { return lat[n] }
	default:
		controlplane.UseCentroidControl(net)
	}
	ctl := controlplane.NewController(net)
	ctl.MaxRetriggers = cfg.MaxRetriggers
	ctl.ProbeTimeout = cfg.ProbeTimeout
	if cfg.Plans != nil {
		ctl.Plans = cfg.Plans
	}

	name := cfg.System
	if name == "" {
		name = "p4update"
	}
	s := &System{Cfg: cfg, Topo: g, Eng: eng, Net: net, Ctl: ctl, Trace: eng.Trace, name: name, ctlRng: ctlRng}
	if drv, ok := Lookup(name); ok {
		s.Driver = drv
		s.Updater = drv.Build(s)
	} else {
		// Unknown system: leave a functional data plane in place so the
		// system is still inspectable; Trigger reports the error.
		net.SetHandler(&core.Protocol{
			Congestion:      cfg.Congestion,
			AllowChainedDL:  cfg.ChainedDL,
			WatchdogTimeout: cfg.WatchdogTimeout,
		})
	}
	if cfg.TrackRounds {
		s.Rounds = attachRoundTracker(s)
	}

	switch {
	case cfg.InstallDelay != nil:
		net.SetInstallDelay(cfg.InstallDelay)
	case cfg.NodeDelayMean > 0:
		mean := float64(cfg.NodeDelayMean)
		rng := eng.Rand()
		net.SetInstallDelay(func() time.Duration {
			return time.Duration(rng.ExpFloat64() * mean)
		})
	case cfg.BaseInstallDelay > 0:
		d := cfg.BaseInstallDelay
		net.SetInstallDelay(func() time.Duration { return d })
	}
	if cfg.TwoPhase {
		for _, sw := range net.Switches() {
			sw.TwoPhase = true
		}
	}
	if cfg.Faults != nil {
		plan := *cfg.Faults
		if plan.Seed == 0 {
			plan.Seed = cfg.Seed ^ 0xfa17
		}
		s.Inj = faults.Attach(net, plan)
	}
	if cfg.AuditEvery > 0 {
		s.Aud = audit.Attach(net, ctl, audit.Config{
			Every:      cfg.AuditEvery,
			NoCapacity: !cfg.Congestion,
		})
	}
	return s
}

// Trigger starts a consistent route update of flow f to newPath under
// the system's registered driver. Under ez-segway a second update of a
// flow whose previous update is still in flight returns a status in the
// Queued state (it launches when the ongoing update completes).
func (s *System) Trigger(f packet.FlowID, newPath []topo.NodeID) (*controlplane.UpdateStatus, error) {
	if s.Updater == nil {
		return nil, fmt.Errorf("wiring: unknown update system %q (available: %v)", s.name, AllNames())
	}
	return s.Updater.TriggerUpdate(f, newPath)
}

// ExtraMetrics collects the per-system metric extras of the system's
// registry entry (nil when it reports none).
func (s *System) ExtraMetrics() map[string]float64 {
	mr, ok := s.Driver.(MetricsReporter)
	if !ok {
		return nil
	}
	extra := make(map[string]float64)
	mr.ReportMetrics(s, extra)
	if len(extra) == 0 {
		return nil
	}
	return extra
}
