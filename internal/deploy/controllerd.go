package deploy

import (
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"p4update/internal/controlplane"
	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/transport"
	"p4update/internal/wiring"
)

// ControllerConfig configures the controllerd process.
type ControllerConfig struct {
	Scn   Scenario
	Conn  *net.UDPConn
	Peers map[int32]string
	// StateFile persists registered flows, the in-flight update intent
	// and per-node acks; a restarted controller resumes tracking from
	// it instead of re-pushing the world.
	StateFile string
	RTO       time.Duration
}

// flowSpec is one persisted Flow-DB entry. Version and Path are the
// last *completed* configuration — an in-flight update lives in
// updateIntent until its probe confirms, then folds in here.
type flowSpec struct {
	Flow    uint32  `json:"flow"`
	Src     int32   `json:"src"`
	Dst     int32   `json:"dst"`
	SizeK   uint32  `json:"size_k"`
	Version uint32  `json:"version"`
	Path    []int32 `json:"path"`
}

// updateIntent is the persisted write-ahead record of one pushed
// update: written before the first UIM leaves, amended as acks arrive,
// marked completed when the probe confirms.
type updateIntent struct {
	Flow      uint32  `json:"flow"`
	Version   uint32  `json:"version"`
	OldPath   []int32 `json:"old_path"`
	NewPath   []int32 `json:"new_path"`
	Acked     []int32 `json:"acked"`
	Completed bool    `json:"completed"`
}

// ctlState is the controllerd persistence record.
type ctlState struct {
	Epoch  uint32        `json:"epoch"`
	Flows  []flowSpec    `json:"flows"`
	Update *updateIntent `json:"update,omitempty"`
}

// ControllerDaemon runs the unmodified controlplane.Controller as a
// real process. It pushes full plan snapshots to switches, tracks
// per-switch acks (write-ahead persisted), and across a restart
// rebuilds its tracking from disk plus authoritative VerbState reports
// collected from the live switches — resending only what is still
// unacknowledged.
type ControllerDaemon struct {
	cfg   ControllerConfig
	epoch uint32
	state ctlState

	host *Host
	sys  *wiring.System
	udp  *transport.UDP
	ep   *transport.Endpoint
	view *wireView

	// u tracks the in-flight update and its plan (nil when idle or
	// completed).
	u *controlplane.UpdateStatus

	// lastState accumulates the newest (flow, version) each switch has
	// reported; the sync barrier reads it.
	lastState map[topo.NodeID]map[packet.FlowID]uint32
	synced    bool

	pushedCh    chan struct{}
	pushedOnce  sync.Once
	doneCh      chan struct{}
	doneOnce    sync.Once
	stopCh      chan struct{}
	stopOnce    sync.Once
	wg          sync.WaitGroup
	helloPeriod time.Duration
}

// NewControllerDaemon builds the controller process; Start launches it.
func NewControllerDaemon(cfg ControllerConfig) (*ControllerDaemon, error) {
	d := &ControllerDaemon{
		cfg:         cfg,
		lastState:   make(map[topo.NodeID]map[packet.FlowID]uint32),
		pushedCh:    make(chan struct{}),
		doneCh:      make(chan struct{}),
		stopCh:      make(chan struct{}),
		helloPeriod: 100 * time.Millisecond,
	}
	if err := loadJSON(cfg.StateFile, &d.state); err != nil {
		return nil, fmt.Errorf("deploy: controllerd: %w", err)
	}
	d.epoch = d.state.Epoch + 1
	d.state.Epoch = d.epoch

	g, err := cfg.Scn.Topology()
	if err != nil {
		return nil, err
	}
	d.view = &wireView{self: dataplane.NodeController}
	d.sys = wiring.New(g, cfg.Scn.wiringCfg(d.view))
	d.host = NewHost(d.sys.Eng)

	d.udp, d.ep, err = newWire(cfg.Conn, cfg.Peers, int32(transport.ControllerPeer),
		d.epoch, cfg.RTO, d.handle)
	if err != nil {
		return nil, err
	}
	d.view.send = func(to int32, f *packet.Frame) { d.ep.Send(to, f, d.udp.Now()) }

	ctl := d.sys.Ctl
	ctl.InjectProbeHook = func(u *controlplane.UpdateStatus) bool {
		d.view.send(int32(u.NewPath[0]), &packet.Frame{
			Verb:    packet.VerbProbe,
			InPort:  packet.NoPort,
			Payload: packet.AppendProbe(nil, u.Flow, u.Version),
		})
		return true
	}
	ctl.OnComplete = func(u *controlplane.UpdateStatus) {
		up := d.state.Update
		if up == nil || uint32(u.Flow) != up.Flow || u.Version != up.Version {
			return
		}
		up.Completed = true
		// Fold the confirmed configuration into the Flow DB record.
		for i := range d.state.Flows {
			if d.state.Flows[i].Flow == up.Flow {
				d.state.Flows[i].Version = up.Version
				d.state.Flows[i].Path = up.NewPath
			}
		}
		d.persist()
		d.doneOnce.Do(func() { close(d.doneCh) })
	}

	if d.epoch == 1 {
		if err := d.bootstrapFresh(); err != nil {
			return nil, err
		}
	} else if err := d.bootstrapRestart(); err != nil {
		return nil, err
	}
	return d, d.persist()
}

// bootstrapFresh registers the scenario flow (first incarnation).
func (d *ControllerDaemon) bootstrapFresh() error {
	scn := d.cfg.Scn
	f, err := d.sys.Ctl.RegisterFlow(scn.FlowSrc, scn.FlowDst, scn.OldPath, scn.SizeK)
	if err != nil {
		return err
	}
	d.state.Flows = []flowSpec{{
		Flow:    uint32(f),
		Src:     int32(scn.FlowSrc),
		Dst:     int32(scn.FlowDst),
		SizeK:   scn.SizeK,
		Version: 1,
		Path:    toWire(scn.OldPath),
	}}
	return nil
}

// bootstrapRestart rebuilds the Flow DB and — if an update intent is
// still open — its tracking record and plan, then replays persisted
// acks. Fresh VerbState reports (authoritative) top this up once the
// switches answer the hello round.
func (d *ControllerDaemon) bootstrapRestart() error {
	ctl := d.sys.Ctl
	for _, spec := range d.state.Flows {
		f := packet.FlowID(spec.Flow)
		err := ctl.RegisterFlowID(f, topo.NodeID(spec.Src), topo.NodeID(spec.Dst),
			fromWire(spec.Path), spec.SizeK)
		if err != nil {
			return err
		}
		rec, _ := ctl.Flow(f)
		rec.Version = spec.Version
	}
	up := d.state.Update
	if up == nil || up.Completed {
		return nil
	}
	f := packet.FlowID(up.Flow)
	rec, ok := ctl.Flow(f)
	if !ok {
		return fmt.Errorf("deploy: controllerd: intent for unknown flow %d", up.Flow)
	}
	oldPath, newPath := fromWire(up.OldPath), fromWire(up.NewPath)
	plan, err := controlplane.PreparePlan(d.sys.Topo, f, oldPath, newPath,
		up.Version, rec.SizeK, d.cfg.Scn.Force())
	if err != nil {
		return err
	}
	u := &controlplane.UpdateStatus{Flow: f, Version: up.Version, OldPath: oldPath, NewPath: newPath, Plan: plan}
	ctl.Launch(u, controlplane.Dispatch{Resend: plan})
	d.u = u
	for _, n := range up.Acked {
		d.sys.Net.OnApply(topo.NodeID(n), f, up.Version)
	}
	return nil
}

// Start launches the transport, the engine pump, the snapshot push and
// the hello/sync loop.
func (d *ControllerDaemon) Start() {
	d.udp.Start(d.ep, tickFor(d.cfg.RTO))
	d.host.Start()
	d.host.Do(d.sendSnapshots)
	d.wg.Add(1)
	go d.helloLoop()
}

// Stop halts the daemon; persisted state stays for the next epoch.
func (d *ControllerDaemon) Stop() {
	d.stopOnce.Do(func() { close(d.stopCh) })
	d.wg.Wait()
	d.udp.Close()
	d.host.Stop()
}

// Pushed is closed once the update's UIMs have been sent (this epoch or
// a previous one).
func (d *ControllerDaemon) Pushed() <-chan struct{} { return d.pushedCh }

// Completed is closed once the update's confirmation probe arrived.
func (d *ControllerDaemon) Completed() <-chan struct{} { return d.doneCh }

// Epoch returns this incarnation's transport epoch.
func (d *ControllerDaemon) Epoch() uint32 { return d.epoch }

// WriteTrace dumps the flight recording as JSONL.
func (d *ControllerDaemon) WriteTrace(w io.Writer) error {
	var err error
	d.host.Do(func() { err = d.sys.Trace.WriteJSONL(w) })
	return err
}

// sendSnapshots pushes every flow's full plan entry to every switch on
// its path (sequenced — the transport retries until each switch is up).
func (d *ControllerDaemon) sendSnapshots() {
	for _, spec := range d.state.Flows {
		path := make([]uint16, len(spec.Path))
		for i, n := range spec.Path {
			path[i] = uint16(n)
		}
		snap := packet.SnapshotFlow{
			Flow:    packet.FlowID(spec.Flow),
			Src:     uint16(spec.Src),
			Dst:     uint16(spec.Dst),
			Version: spec.Version,
			SizeK:   spec.SizeK,
			Path:    path,
		}
		for _, n := range spec.Path {
			d.view.send(n, &packet.Frame{
				Verb:    packet.VerbSnapshot,
				InPort:  packet.NoPort,
				Payload: packet.AppendSnapshot(nil, snap),
			})
		}
	}
}

// helloLoop polls the fabric with (unsequenced) hellos until the sync
// barrier passes, then exits; sequenced traffic needs no keepalive.
func (d *ControllerDaemon) helloLoop() {
	defer d.wg.Done()
	t := time.NewTicker(d.helloPeriod)
	defer t.Stop()
	for {
		var synced bool
		d.host.Do(func() {
			synced = d.synced
			if !synced {
				for _, n := range d.sys.Topo.Nodes() {
					d.view.send(int32(n), &packet.Frame{Verb: packet.VerbHello, InPort: packet.NoPort})
				}
			}
		})
		if synced {
			return
		}
		select {
		case <-d.stopCh:
			return
		case <-t.C:
		}
	}
}

// handle is the transport upcall; every branch runs inside host.Do.
func (d *ControllerDaemon) handle(peer int32, f *packet.Frame) {
	d.host.Do(func() {
		switch f.Verb {
		case packet.VerbMsg:
			d.sys.Net.ControllerRx(topo.NodeID(peer), f.Payload)
		case packet.VerbState:
			entries, err := packet.ParseState(f.Payload)
			if err != nil {
				return
			}
			d.handleState(topo.NodeID(peer), entries)
		}
	})
}

// handleState folds a switch's committed-version report in: it feeds
// the sync barrier and doubles as the (idempotent) commit-ack path for
// the in-flight update.
func (d *ControllerDaemon) handleState(node topo.NodeID, entries []packet.StateEntry) {
	m := d.lastState[node]
	if m == nil {
		m = make(map[packet.FlowID]uint32)
		d.lastState[node] = m
	}
	for _, e := range entries {
		if e.Version > m[e.Flow] {
			m[e.Flow] = e.Version
		}
	}
	if up := d.state.Update; up != nil && !up.Completed {
		for _, e := range entries {
			if uint32(e.Flow) == up.Flow && e.Version == up.Version {
				d.recordAck(node)
				d.sys.Net.OnApply(node, e.Flow, e.Version)
			}
		}
	}
	if !d.synced {
		d.trySync()
	}
}

// recordAck write-ahead-persists one switch's ack of the in-flight
// update.
func (d *ControllerDaemon) recordAck(node topo.NodeID) {
	up := d.state.Update
	for _, n := range up.Acked {
		if topo.NodeID(n) == node {
			return
		}
	}
	up.Acked = append(up.Acked, int32(node))
	d.persist()
}

// trySync checks the barrier: every switch on every flow's committed
// path has reported that flow at (at least) its committed version.
func (d *ControllerDaemon) trySync() {
	for _, spec := range d.state.Flows {
		for _, n := range spec.Path {
			if d.lastState[topo.NodeID(n)][packet.FlowID(spec.Flow)] < spec.Version {
				return
			}
		}
	}
	d.synced = true
	d.onSynced()
}

// onSynced fires once the fabric agrees with the persisted committed
// state: first incarnation triggers the scenario update; a restarted
// incarnation with indications still unacknowledged re-sends the update
// through the controller's §11 retrigger gate, which charges the
// update's budget and traces the resend like any other.
func (d *ControllerDaemon) onSynced() {
	defer d.pushedOnce.Do(func() { close(d.pushedCh) })
	scn := d.cfg.Scn
	ctl := d.sys.Ctl
	switch {
	case d.state.Update == nil:
		f := scn.Flow()
		rec, ok := ctl.Flow(f)
		if !ok {
			return
		}
		// Write the intent ahead of the first UIM: a crash between
		// persist and send replays as "resend everything unacked".
		d.state.Update = &updateIntent{
			Flow:    uint32(f),
			Version: rec.Version + 1,
			OldPath: toWire(rec.Path),
			NewPath: toWire(scn.NewPath),
		}
		d.persist()
		u, err := ctl.TriggerUpdate(f, scn.NewPath, scn.Force())
		if err != nil {
			return
		}
		d.u = u
	case !d.state.Update.Completed && d.u != nil && !d.u.Done():
		if slices.ContainsFunc(d.u.Plan.Targets, d.u.Pending) {
			ctl.Retrigger(d.u)
		}
	case d.state.Update.Completed:
		d.doneOnce.Do(func() { close(d.doneCh) })
	}
}

// persist writes the controller record.
func (d *ControllerDaemon) persist() error {
	if d.cfg.StateFile == "" {
		return nil
	}
	return saveJSON(d.cfg.StateFile, d.state)
}

func toWire(p []topo.NodeID) []int32 {
	out := make([]int32, len(p))
	for i, n := range p {
		out[i] = int32(n)
	}
	return out
}

func fromWire(p []int32) []topo.NodeID {
	out := make([]topo.NodeID, len(p))
	for i, n := range p {
		out[i] = topo.NodeID(n)
	}
	return out
}
