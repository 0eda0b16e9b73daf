package deploy

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/transport"
	"p4update/internal/wiring"
)

// SwitchConfig configures one switchd process.
type SwitchConfig struct {
	// Node is the switch this process owns.
	Node topo.NodeID
	Scn  Scenario
	// Conn is the pre-bound UDP socket (daemons bind their conventional
	// port; tests bind 127.0.0.1:0 and exchange real addresses).
	Conn *net.UDPConn
	// Peers is the fabric address book (see PeerAddrs).
	Peers map[int32]string
	// StateFile persists the last-known-good rules and the restart
	// epoch; empty disables persistence.
	StateFile string
	// RTO overrides the retransmission timeout (default 100ms).
	RTO time.Duration
	// OnDeliver, when set, observes local data-packet delivery (test
	// hook; called with the engine lock held — don't call back in).
	OnDeliver func(d *packet.Data)
}

// lkgRule is one persisted last-known-good forwarding rule.
type lkgRule struct {
	Flow     uint32 `json:"flow"`
	Port     int32  `json:"port"`
	Version  uint32 `json:"version"`
	Distance uint16 `json:"distance"`
	SizeK    uint32 `json:"size_k"`
}

// switchState is the switchd persistence record.
type switchState struct {
	Epoch uint32    `json:"epoch"`
	Rules []lkgRule `json:"rules"`
}

// SwitchDaemon runs one switch's unmodified core verification logic
// (via the full wiring.System) as a real process. On startup it bumps
// its transport epoch, restores last-known-good committed rules, and
// keeps forwarding regardless of controller liveness; every local rule
// commit is persisted and acknowledged upstream with a VerbState frame
// (idempotent — the same frame answers restart re-sync hellos).
type SwitchDaemon struct {
	cfg   SwitchConfig
	epoch uint32

	host *Host
	sys  *wiring.System
	sw   *dataplane.Switch
	udp  *transport.UDP
	ep   *transport.Endpoint
}

// NewSwitch builds a switch daemon; Start launches it.
func NewSwitch(cfg SwitchConfig) (*SwitchDaemon, error) {
	var st switchState
	if err := loadJSON(cfg.StateFile, &st); err != nil {
		return nil, fmt.Errorf("deploy: switchd %d: %w", cfg.Node, err)
	}
	g, err := cfg.Scn.Topology()
	if err != nil {
		return nil, err
	}
	d := &SwitchDaemon{cfg: cfg, epoch: st.Epoch + 1}

	view := &wireView{self: cfg.Node}
	d.sys = wiring.New(g, cfg.Scn.wiringCfg(view))
	d.sw = d.sys.Net.Switch(cfg.Node)
	d.host = NewHost(d.sys.Eng)

	d.udp, d.ep, err = newWire(cfg.Conn, cfg.Peers, int32(cfg.Node), d.epoch, cfg.RTO, d.handle)
	if err != nil {
		return nil, err
	}
	view.send = func(to int32, f *packet.Frame) { d.ep.Send(to, f, d.udp.Now()) }

	// Bootstrap: reinstall last-known-good rules, then immediately
	// persist the bumped epoch so a crash loop keeps advancing it.
	for _, r := range st.Rules {
		d.sw.InstallInitialRule(packet.FlowID(r.Flow), topo.PortID(r.Port),
			r.Version, r.Distance, r.SizeK)
	}
	if err := d.persist(); err != nil {
		return nil, err
	}

	// The replica controller wired into every process must stay silent
	// here: local commits persist and ack upstream instead.
	d.sys.Net.OnApply = func(node topo.NodeID, f packet.FlowID, version uint32) {
		if node != cfg.Node {
			return
		}
		d.persist()
		d.ep.Send(int32(transport.ControllerPeer), &packet.Frame{
			Verb:    packet.VerbState,
			InPort:  packet.NoPort,
			Payload: packet.AppendState(nil, []packet.StateEntry{{Flow: f, Version: version}}),
		}, d.udp.Now())
	}
	d.sys.Net.OnDeliver = func(node topo.NodeID, dp *packet.Data) {
		if node == cfg.Node && cfg.OnDeliver != nil {
			cfg.OnDeliver(dp)
		}
	}
	return d, nil
}

// Epoch returns this incarnation's transport epoch.
func (d *SwitchDaemon) Epoch() uint32 { return d.epoch }

// Start launches the transport and the real-time engine pump.
func (d *SwitchDaemon) Start() {
	d.udp.Start(d.ep, tickFor(d.cfg.RTO))
	d.host.Start()
}

// Stop halts the transport and pump (rules and state stay on disk).
func (d *SwitchDaemon) Stop() {
	d.udp.Close()
	d.host.Stop()
}

// WriteTrace dumps the flight recording as JSONL.
func (d *SwitchDaemon) WriteTrace(w io.Writer) error {
	var err error
	d.host.Do(func() { err = d.sys.Trace.WriteJSONL(w) })
	return err
}

// Inject feeds a data packet into the owned switch's pipeline (test
// hook standing in for an attached host).
func (d *SwitchDaemon) Inject(dp *packet.Data) {
	d.host.Do(func() { d.sw.InjectData(dp) })
}

// FlowVersion reports the committed version of f at the owned switch.
func (d *SwitchDaemon) FlowVersion(f packet.FlowID) (version uint32, ok bool) {
	d.host.Do(func() {
		if st, have := d.sw.PeekState(f); have && st.HasRule {
			version, ok = st.NewVersion, true
		}
	})
	return version, ok
}

// handle is the transport upcall; every branch runs inside host.Do.
func (d *SwitchDaemon) handle(peer int32, f *packet.Frame) {
	d.host.Do(func() {
		switch f.Verb {
		case packet.VerbMsg:
			d.sw.Receive(f.Payload, rxPort(f))
		case packet.VerbHello:
			d.sendState()
		case packet.VerbSnapshot:
			snap, err := packet.ParseSnapshot(f.Payload)
			if err != nil {
				return
			}
			d.applySnapshot(snap)
			d.sendState()
		case packet.VerbProbe:
			flow, ver, err := packet.ParseProbe(f.Payload)
			if err != nil {
				return
			}
			d.sw.InjectData(&packet.Data{Flow: flow, TTL: 64, Probe: true, ProbeVersion: ver})
		}
	})
}

// applySnapshot adopts a controller plan entry the switch has not
// caught up to; an equal-or-newer committed rule wins (last-known-good
// survives a controller pushing stale state). An entry whose path this
// switch's topology does not have is dropped: the state report that
// follows tells the controller the switch did not adopt it.
func (d *SwitchDaemon) applySnapshot(s packet.SnapshotFlow) {
	if st, ok := d.sw.PeekState(s.Flow); ok && st.HasRule && st.NewVersion >= s.Version {
		return
	}
	path := make([]topo.NodeID, len(s.Path))
	for i, n := range s.Path {
		path[i] = topo.NodeID(n)
	}
	if _, err := d.sys.Net.InstallPath(s.Flow, path, s.Version, s.SizeK); err != nil {
		return
	}
	d.persist()
}

// committed snapshots the owned switch's committed rules, sorted by
// flow for deterministic frames and state files.
func (d *SwitchDaemon) committed() []lkgRule {
	flows := d.sw.Flows()
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	var out []lkgRule
	for _, f := range flows {
		st, ok := d.sw.PeekState(f)
		if !ok || !st.HasRule {
			continue
		}
		out = append(out, lkgRule{
			Flow:     uint32(f),
			Port:     int32(st.EgressPort),
			Version:  st.NewVersion,
			Distance: st.NewDistance,
			SizeK:    st.FlowSizeK,
		})
	}
	return out
}

// sendState reports all committed (flow, version) pairs upstream.
func (d *SwitchDaemon) sendState() {
	rules := d.committed()
	entries := make([]packet.StateEntry, len(rules))
	for i, r := range rules {
		entries[i] = packet.StateEntry{Flow: packet.FlowID(r.Flow), Version: r.Version}
	}
	d.ep.Send(int32(transport.ControllerPeer), &packet.Frame{
		Verb:    packet.VerbState,
		InPort:  packet.NoPort,
		Payload: packet.AppendState(nil, entries),
	}, d.udp.Now())
}

// persist writes the last-known-good record (epoch + committed rules).
func (d *SwitchDaemon) persist() error {
	if d.cfg.StateFile == "" {
		return nil
	}
	return saveJSON(d.cfg.StateFile, switchState{Epoch: d.epoch, Rules: d.committed()})
}

// tickFor derives the retransmit-ticker cadence from the RTO.
func tickFor(rto time.Duration) time.Duration {
	if rto <= 0 {
		return 25 * time.Millisecond
	}
	return rto / 4
}

// loadJSON reads a persistence record; a missing file (or empty path)
// leaves the zero value.
func loadJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// saveJSON writes a persistence record atomically (tmp + rename).
func saveJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
