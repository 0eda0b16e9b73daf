// Package p4update is a Go reproduction of "P4Update: Fast and Locally
// Verifiable Consistent Network Updates in the P4 Data Plane" (Zhou, He,
// Kellerer, Blenk, Foerster — CoNEXT '21).
//
// It bundles a deterministic discrete-event network simulator, a P4-style
// software-switch model (per-flow register arrays, clone, resubmit,
// capacity accounting), the P4Update update protocol (single-layer and
// dual-layer verification, congestion freedom with a dynamic data-plane
// scheduler), the evaluation baselines, and the harnesses regenerating
// the paper's figures. WithSystem picks the update system by registered
// name: "p4update" (default; §7.5 single/dual-layer policy), "p4update-sl",
// "p4update-dl", "ez-segway", "central", "ppcu", "opt-oracle".
//
// Quick start:
//
//	g := p4update.Synthetic()
//	net := p4update.NewNetwork(g, p4update.WithSeed(1))
//	oldPath, newPath := p4update.SyntheticPaths()
//	flow, _ := net.AddFlow(0, 7, oldPath, 1.0)
//	status, _ := net.UpdateFlow(flow, newPath)
//	net.Run()
//	fmt.Println(status.Done(), status.Completed-status.Sent)
package p4update

import (
	"fmt"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/runner"
	"p4update/internal/topo"
	"p4update/internal/wiring"
)

// Re-exported core types. Aliases keep the internal packages private while
// letting callers hold and use their values.
type (
	// Topology is a network graph of switches and capacity-annotated links.
	Topology = topo.Topology
	// NodeID identifies a switch in a Topology.
	NodeID = topo.NodeID
	// PortID is a node-local port index.
	PortID = topo.PortID
	// FlowID identifies a flow (hash of its src/dst pair).
	FlowID = packet.FlowID
	// UpdateStatus tracks one route update until probe-confirmed completion.
	UpdateStatus = controlplane.UpdateStatus
	// UpdateType selects single- or dual-layer P4Update operation.
	UpdateType = packet.UpdateType
	// Switch exposes the data-plane state of one node (registers, stats).
	Switch = dataplane.Switch
	// DataPacket is a data-plane packet (seen in Fabric observation hooks).
	DataPacket = packet.Data
	// Tree is a destination-rooted spanning tree (child -> parent edges)
	// for destination-based routing (§11).
	Tree = controlplane.Tree
)

// ShortestPathTree builds the hop-count shortest-path tree toward root.
var ShortestPathTree = controlplane.ShortestPathTree

// Update types.
const (
	SingleLayer = packet.UpdateSingle
	DualLayer   = packet.UpdateDual
)

// Weight selects the edge metric for path computation.
type Weight = topo.Weight

// Path weights.
const (
	ByLatency = topo.ByLatency
	ByHops    = topo.ByHops
)

// Topology builders (see internal/topo for details).
var (
	// NewTopology returns an empty topology.
	NewTopology = topo.New
	// Synthetic is the paper's Fig-1 example network.
	Synthetic = topo.Synthetic
	// SyntheticPaths returns the Fig-1 old and new flow paths.
	SyntheticPaths = topo.SyntheticPaths
	// B4 is a replica of Google's inter-datacenter WAN (12 nodes, 19 edges).
	B4 = topo.B4
	// Internet2 is a replica of the Internet2 backbone (16 nodes, 26 edges).
	Internet2 = topo.Internet2
	// AttMpls matches the Topology-Zoo AttMpls size (25 nodes, 56 edges).
	AttMpls = topo.AttMpls
	// Chinanet matches the Topology-Zoo Chinanet size (38 nodes, 62 edges).
	Chinanet = topo.Chinanet
	// FatTree builds a K-ary fat-tree switch topology.
	FatTree = topo.FatTree
	// EdgeSwitches lists a fat-tree's edge-layer switches.
	EdgeSwitches = topo.EdgeSwitches
)

// Systems lists every registered update-system name accepted by
// WithSystem: the primary systems in evaluation order followed by the
// registered variants.
func Systems() []string { return wiring.AllNames() }

// TrialResult is the per-trial summary the parallel evaluation runner
// produces: identity (label, system, seed), wall-clock and virtual
// quiescence times, executed event count, and the measured update-time
// samples. cmd/p4update's -json export and the BENCH trajectories are
// lists of these.
type TrialResult = runner.Result

// TrialMetrics is the measured portion of a TrialResult.
type TrialMetrics = runner.Metrics

// TrialReport is a JSON-serializable run summary: worker/host counts,
// total wall-clock, and the merged per-trial results in deterministic
// trial order.
type TrialReport = runner.Report

// NewTrialReport assembles a TrialReport from merged trial results.
var NewTrialReport = runner.NewReport

type config = wiring.Config

// Option configures a Network.
type Option func(*config)

// WithSeed fixes the simulation seed (runs are fully deterministic per
// seed).
func WithSeed(seed int64) Option { return func(c *config) { c.Seed = seed } }

// WithSystem selects the update system by its registered name (see
// Systems for the accepted names; default "p4update"). Building a
// Network with an unregistered name still yields a functional data
// plane, but UpdateFlow returns an error naming the available systems.
func WithSystem(name string) Option { return func(c *config) { c.System = name } }

// WithCongestionFreedom enables link-capacity enforcement and the dynamic
// inter-flow scheduler (§7.4).
func WithCongestionFreedom() Option { return func(c *config) { c.Congestion = true } }

// WithChainedDualLayer enables the Appendix-C extension allowing
// dual-layer updates to follow dual-layer updates.
func WithChainedDualLayer() Option { return func(c *config) { c.ChainedDL = true } }

// WithTwoPhaseCommit enables the §11 two-phase-commit integration:
// switches retain the previous configuration's rule and forward packets
// by their ingress-stamped version tag, giving Reitblatt-style per-packet
// consistency on top of P4Update's per-hop guarantees.
func WithTwoPhaseCommit() Option { return func(c *config) { c.TwoPhase = true } }

// WithFailureRecovery enables §11 failure recovery: switches watchdog
// each held indication for `timeout`; stalled updates are re-triggered by
// the controller up to maxRetriggers times. The controller checks each
// update after the same `timeout` too: it re-sends an update whose stall
// reports were all lost, and re-injects a lost confirmation probe.
func WithFailureRecovery(timeout time.Duration, maxRetriggers int) Option {
	return func(c *config) {
		c.WatchdogTimeout = timeout
		c.ProbeTimeout = timeout
		c.MaxRetriggers = maxRetriggers
	}
}

// WithInstallDelay sets the sampler for per-rule install latency.
func WithInstallDelay(f func() time.Duration) Option {
	return func(c *config) { c.InstallDelay = f }
}

// WithControllerAt pins the controller to a node (default: the topology
// centroid, as in §9.1).
func WithControllerAt(n NodeID) Option { return func(c *config) { c.Controller = &n } }

// WithSampledControlLatency draws each switch's control-channel latency
// once from the sampler (the fat-tree model of §9.1).
func WithSampledControlLatency(f func() time.Duration) Option {
	return func(c *config) { c.SampledControl = f }
}

// Network is a fully wired system under one update system.
type Network struct {
	sys *wiring.System
}

// NewNetwork builds switches for every node of t, wires the fabric and a
// controller, and installs the chosen update protocol.
func NewNetwork(t *Topology, opts ...Option) *Network {
	cfg := config{
		Seed:          1,
		MaxEvents:     50_000_000,
		CtrlProcDelay: 500 * time.Microsecond,
		CtrlQueueMean: 40 * time.Millisecond,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return &Network{sys: wiring.New(t, cfg)}
}

// Topology returns the network's graph.
func (n *Network) Topology() *Topology { return n.sys.Topo }

// Controller exposes the control plane for advanced use (alarms, flow DB,
// manual plan pushes).
func (n *Network) Controller() *controlplane.Controller { return n.sys.Ctl }

// Switch returns the data-plane switch at a node.
func (n *Network) Switch(id NodeID) *Switch { return n.sys.Net.Switch(id) }

// Fabric exposes the data-plane network (the Faults injection seam,
// observation taps).
func (n *Network) Fabric() *dataplane.Network { return n.sys.Net }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.sys.Eng.Now() }

// Run drains all simulation events and returns the quiescence time.
func (n *Network) Run() time.Duration { return n.sys.Eng.Run() }

// RunUntil executes events up to the given virtual instant.
func (n *Network) RunUntil(t time.Duration) time.Duration { return n.sys.Eng.RunUntil(t) }

// Schedule runs fn after a virtual delay (for scripting scenarios).
func (n *Network) Schedule(d time.Duration, fn func()) { n.sys.Eng.Schedule(d, fn) }

// AddFlow registers a flow from src to dst along path with the given rate
// bound in Mbps and installs its version-1 rules.
func (n *Network) AddFlow(src, dst NodeID, path []NodeID, rateMbps float64) (FlowID, error) {
	if rateMbps <= 0 {
		return 0, fmt.Errorf("p4update: flow rate must be positive")
	}
	return n.sys.Ctl.RegisterFlow(src, dst, path, uint32(rateMbps*1000))
}

// UpdateFlow triggers a consistent route update of flow f to newPath
// under the network's update system. The returned status is always non-nil
// on success: under "ez-segway" an update requested while a previous
// update of the same flow is still in flight is returned in the Queued
// state and launches automatically once the ongoing update completes.
func (n *Network) UpdateFlow(f FlowID, newPath []NodeID) (*UpdateStatus, error) {
	return n.sys.Trigger(f, newPath)
}

// Status returns the tracked state of (flow, version).
func (n *Network) Status(f FlowID, version uint32) (*UpdateStatus, bool) {
	return n.sys.Ctl.Status(f, version)
}

// Forwarding traces flow f's current forwarding state from node `from`,
// returning the visited nodes and whether the trace reached the egress.
func (n *Network) Forwarding(f FlowID, from NodeID) ([]NodeID, bool) {
	return n.sys.Net.TracePath(f, from, n.sys.Topo.NumNodes()+2)
}

// SendPacket injects one data packet of flow f at its ingress and returns
// its sequence number (delivery can be observed via Fabric().OnDeliver).
func (n *Network) SendPacket(f FlowID, seq uint32) error {
	rec, ok := n.sys.Ctl.Flow(f)
	if !ok {
		return fmt.Errorf("p4update: unknown flow %d", f)
	}
	n.sys.Net.Switch(rec.Src).InjectData(&packet.Data{Flow: f, Seq: seq, TTL: 64})
	return nil
}

// AddDestinationTree installs destination-based routing toward root
// (§11): every node forwards traffic for root along the given tree.
func (n *Network) AddDestinationTree(root NodeID, tree Tree, rateMbps float64) (FlowID, error) {
	return n.sys.Ctl.RegisterTree(root, tree, uint32(rateMbps*1000))
}

// UpdateDestinationTree migrates the destination's routing onto newTree
// with a verified single-layer update fanning out from the root.
func (n *Network) UpdateDestinationTree(f FlowID, newTree Tree) (*UpdateStatus, error) {
	switch n.sys.SystemName() {
	case "p4update", "p4update-sl", "p4update-dl":
	default:
		return nil, fmt.Errorf("p4update: destination trees require a P4Update system")
	}
	return n.sys.Ctl.TriggerTreeUpdate(f, newTree)
}

// Stats aggregates switch counters across the network.
func (n *Network) Stats() dataplane.Stats {
	var total dataplane.Stats
	for _, sw := range n.sys.Net.Switches() {
		s := sw.Stats
		total.DataForwarded += s.DataForwarded
		total.DataDelivered += s.DataDelivered
		total.BlackholeDrops += s.BlackholeDrops
		total.TTLDrops += s.TTLDrops
		total.DecodeErrors += s.DecodeErrors
		total.UNMReceived += s.UNMReceived
		total.UIMReceived += s.UIMReceived
		total.AlarmsSent += s.AlarmsSent
		total.Resubmissions += s.Resubmissions
		total.RulesApplied += s.RulesApplied
		total.RulesCleaned += s.RulesCleaned
	}
	return total
}
