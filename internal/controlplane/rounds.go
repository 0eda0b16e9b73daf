package controlplane

import (
	"fmt"
	"slices"
	"time"

	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
	"p4update/internal/trace"
)

// RoundPolicy chooses what a RoundExecutor sends: the controller-driven
// systems (Central, PPCU, the opt-oracle) differ only here.
type RoundPolicy interface {
	// Plan returns the update's completion set — the nodes whose
	// acknowledged commits finish it — and the policy's per-run state,
	// kept as Run.State.
	Plan(oldPath, newPath []topo.NodeID) (complete []topo.NodeID, state any)
	// Next returns the nodes to instruct now; nil means wait for
	// acknowledgements. The executor never mutates the returned slice.
	Next(r *Run) []topo.NodeID
}

// Run is one update in flight under a RoundExecutor.
type Run struct {
	Flow             packet.FlowID
	Version          uint32
	OldPath, NewPath []topo.NodeID
	SizeK            uint32
	// State is the policy's per-run state, as Plan returned it.
	State any

	complete    []topo.NodeID
	acked       []topo.NodeID
	outstanding []topo.NodeID
	rounds      int
}

// Acked returns the nodes whose commits the controller has confirmed.
func (r *Run) Acked() []topo.NodeID { return r.acked }

// Outstanding returns the instructed nodes not yet acknowledged, in
// send order.
func (r *Run) Outstanding() []topo.NodeID { return r.outstanding }

// Round returns how many batches this run has sent.
func (r *Run) Round() int { return r.rounds }

func (r *Run) finished() bool {
	for _, n := range r.complete {
		if !slices.Contains(r.acked, n) {
			return false
		}
	}
	return true
}

// RoundExecutor is the controller side of every round-based system:
// it sends a batch of UIMs, collects the per-node acknowledgements, and
// asks its policy for the next batch after each one. NewRoundExecutor
// registers it with the controller, which feeds it every feedback
// message.
type RoundExecutor struct {
	Ctl *Controller
	// Service, when set, is the controller's per-message processing
	// time: every instruction sent and every acknowledgement received
	// occupies one single-threaded server for one draw, queued behind
	// the messages ahead of it (§9.1, Jarschel et al.). Nil processes
	// acknowledgements inline and sends without delay.
	Service func() time.Duration
	// Rounds counts the batches sent, over every run.
	Rounds uint64
	// Acks counts the acknowledgements that confirmed an outstanding
	// instruction.
	Acks uint64
	// NoResend launches runs without §11 loss recovery, for a system
	// that models none (Central): a lost instruction or acknowledgement
	// then wedges the run.
	NoResend bool

	policy RoundPolicy
	runs   map[updateKey]*Run
	// blocked holds the runs with nothing outstanding whose policy
	// waits, in the order they blocked.
	blocked   []*Run
	busyUntil time.Duration
	uim       packet.UIM
	// acks recycles the records of acknowledgements queued behind the
	// service time, and ackFn is serviced, bound on the first one, so a
	// queued acknowledgement costs no closure.
	acks  []*queuedAck
	ackFn func(any)
}

// queuedAck is one acknowledgement waiting for the controller's server.
type queuedAck struct {
	run  *Run
	node topo.NodeID
}

// NewRoundExecutor registers an executor for p with ctl.
func NewRoundExecutor(ctl *Controller, p RoundPolicy) *RoundExecutor {
	x := &RoundExecutor{Ctl: ctl, policy: p, runs: make(map[updateKey]*Run)}
	ctl.rounds = x
	return x
}

// TriggerUpdate starts a round-based update of flow f to newPath. Unless
// NoResend is set, a retrigger re-sends the current round's
// unacknowledged instructions (Send); an update with nothing to move has
// no resend.
func (x *RoundExecutor) TriggerUpdate(f packet.FlowID, newPath []topo.NodeID) (*UpdateStatus, error) {
	rec, ok := x.Ctl.Flow(f)
	if !ok {
		return nil, fmt.Errorf("controlplane: unknown flow %d", f)
	}
	if err := x.Ctl.Topo.ValidatePath(newPath); err != nil {
		return nil, fmt.Errorf("controlplane: new path: %w", err)
	}
	r := &Run{Flow: f, Version: rec.Version + 1, OldPath: rec.Path, NewPath: newPath, SizeK: rec.SizeK}
	r.complete, r.State = x.policy.Plan(rec.Path, newPath)
	u := &UpdateStatus{Flow: f, Version: r.Version, OldPath: rec.Path, NewPath: newPath}
	d := Dispatch{Pending: r.complete, Resend: x}
	if x.NoResend || len(r.complete) == 0 {
		d.Resend = nil // no loss recovery, or nothing to move
	}
	x.Ctl.Launch(u, d)
	if len(r.complete) == 0 {
		u.Completed = x.Ctl.Eng.Now()
		return u, nil
	}
	x.runs[updateKey{f, r.Version}] = r
	x.step(r)
	return u, nil
}

// Send re-sends the unacknowledged instructions of u's run.
func (x *RoundExecutor) Send(_ *Controller, u *UpdateStatus) {
	r := x.runs[updateKey{u.Flow, u.Version}]
	if r == nil {
		return
	}
	for _, n := range r.outstanding {
		x.send(r, n)
	}
}

// Active reports how many runs are in flight.
func (x *RoundExecutor) Active() int { return len(x.runs) }

// Repoke asks the policy again for every blocked run, in block order —
// for waits an acknowledgement does not end (capacity freed by rule
// cleanup).
func (x *RoundExecutor) Repoke() { x.repoke(nil) }

// step sends r's next batch, or marks r blocked when the policy waits
// with nothing outstanding.
func (x *RoundExecutor) step(r *Run) {
	if !x.advance(r) && len(r.outstanding) == 0 {
		x.blocked = append(x.blocked, r)
	}
}

// advance sends the batch the policy picks for r, reporting whether
// there was one.
func (x *RoundExecutor) advance(r *Run) bool {
	batch := x.policy.Next(r)
	if len(batch) == 0 {
		return false
	}
	x.Rounds++
	r.rounds++
	x.Ctl.Eng.Trace.Round(uint32(r.Flow), r.Version, uint32(len(batch)))
	r.outstanding = append(r.outstanding, batch...)
	for _, n := range batch {
		x.send(r, n)
	}
	return true
}

func (x *RoundExecutor) repoke(skip *Run) {
	keep := x.blocked[:0]
	for _, b := range x.blocked {
		if b == skip || !x.advance(b) {
			keep = append(keep, b)
		}
	}
	clear(x.blocked[len(keep):])
	x.blocked = keep
}

// send instructs node n of r with its new egress port and distance
// label, behind the service queue when one is set. The UIM is
// serialized before SendToSwitch returns, so one scratch serves all.
func (x *RoundExecutor) send(r *Run, n topo.NodeID) {
	i := slices.Index(r.NewPath, n)
	x.uim = packet.UIM{
		Flow: r.Flow, Version: r.Version,
		NewDistance: uint16(len(r.NewPath) - 1 - i),
		EgressPort:  packet.NoPort,
		ChildPort:   packet.NoPort,
		FlowSizeK:   r.SizeK,
		UpdateType:  packet.UpdateSingle,
	}
	if i+1 < len(r.NewPath) {
		x.uim.EgressPort = uint16(x.Ctl.Topo.PortTo(n, r.NewPath[i+1]))
	}
	var delay time.Duration
	if x.Service != nil {
		delay = x.serve() - x.Ctl.Eng.Now()
	}
	x.Ctl.Net.SendToSwitch(n, &x.uim, delay)
}

// serve queues one message on the controller's single server and
// returns when it is done.
func (x *RoundExecutor) serve() time.Duration {
	x.busyUntil = max(x.busyUntil, x.Ctl.Eng.Now()) + x.Service()
	return x.busyUntil
}

// ack feeds one feedback message to its run.
func (x *RoundExecutor) ack(m *packet.UFM) {
	if m.Status != packet.StatusUpdated {
		return
	}
	r, ok := x.runs[updateKey{m.Flow, m.Version}]
	if !ok {
		return
	}
	node := topo.NodeID(m.Node)
	if x.Service == nil {
		x.acked(r, node)
		return
	}
	if x.ackFn == nil {
		x.ackFn = x.serviced
	}
	var a *queuedAck
	if n := len(x.acks); n > 0 {
		a = x.acks[n-1]
		x.acks = x.acks[:n-1]
	} else {
		a = new(queuedAck)
	}
	*a = queuedAck{run: r, node: node}
	x.Ctl.Eng.ScheduleAtArg(x.serve(), x.ackFn, a)
}

// serviced confirms an acknowledgement once the controller's server has
// processed it, and recycles its record.
func (x *RoundExecutor) serviced(v any) {
	a := v.(*queuedAck)
	r, node := a.run, a.node
	*a = queuedAck{}
	x.acks = append(x.acks, a)
	x.acked(r, node)
}

// acked confirms node's commit: the run finishes or steps, and every
// other blocked run is asked again, since the move may have freed what
// it waits on.
func (x *RoundExecutor) acked(r *Run, node topo.NodeID) {
	i := slices.Index(r.outstanding, node)
	if i < 0 {
		return
	}
	r.outstanding = slices.Delete(r.outstanding, i, i+1)
	r.acked = append(r.acked, node)
	x.Acks++
	if r.finished() {
		delete(x.runs, updateKey{r.Flow, r.Version})
	} else {
		x.step(r)
	}
	x.repoke(r)
}

// ChangedNodes returns, in path order, the nodes of newPath whose
// forwarding must change: a fresh node, or one whose old next hop
// differs from its new one. The egress never changes.
func ChangedNodes(oldPath, newPath []topo.NodeID) []topo.NodeID {
	var out []topo.NodeID
	for i := 0; i+1 < len(newPath); i++ {
		if nxt, ok := confirmedNext(oldPath, newPath, nil, newPath[i]); !ok || nxt != newPath[i+1] {
			out = append(out, newPath[i])
		}
	}
	return out
}

// SafeBatch returns, deepest first, every node of newPath outside moved
// and busy that can take its new next hop now, given the controller's
// confirmed view: the nodes in moved forward on their new rule, every
// other node on its old one (the egress delivers). A fresh node is
// always safe (no traffic reaches it yet); a node with a rule is safe
// when the walk from its new next hop through the confirmed view
// reaches the egress without a loop or a rule-less node. Batched peers
// do not count, because a round deploys asynchronously.
func SafeBatch(oldPath, newPath, moved, busy []topo.NodeID) []topo.NodeID {
	var batch []topo.NodeID
	for i := len(newPath) - 2; i >= 0; i-- {
		n := newPath[i]
		nxt, hasRule := confirmedNext(oldPath, newPath, moved, n)
		if hasRule && nxt == newPath[i+1] || slices.Contains(busy, n) {
			continue
		}
		if !hasRule || reachesEgress(oldPath, newPath, moved, n, newPath[i+1]) {
			batch = append(batch, n)
		}
	}
	return batch
}

// reachesEgress walks the confirmed view from target, n's new next hop.
// A loop-free walk visits each rule-holding node at most once, so a
// walk longer than both paths has looped.
func reachesEgress(oldPath, newPath, moved []topo.NodeID, n, target topo.NodeID) bool {
	cur := target
	for range len(oldPath) + len(newPath) + 1 {
		if cur == n {
			return false // loop through n
		}
		nxt, ok := confirmedNext(oldPath, newPath, moved, cur)
		if !ok {
			return false // blackhole
		}
		if nxt == cur {
			return true // terminal
		}
		cur = nxt
	}
	return false // loop elsewhere
}

// confirmedNext is n's next hop in the confirmed view (n itself at a
// terminal), and whether n holds a rule at all.
func confirmedNext(oldPath, newPath, moved []topo.NodeID, n topo.NodeID) (topo.NodeID, bool) {
	if slices.Contains(moved, n) {
		return successor(newPath, slices.Index(newPath, n)), true
	}
	if i := slices.Index(oldPath, n); i >= 0 {
		return successor(oldPath, i), true
	}
	return n, n == newPath[len(newPath)-1]
}

func successor(path []topo.NodeID, i int) topo.NodeID {
	if i+1 < len(path) {
		return path[i+1]
	}
	return path[i]
}

// Agent is the switch side of a RoundExecutor: a plain SDN switch that
// applies whatever rule the controller sends and acknowledges it. A
// same-version duplicate re-acknowledges, so a lost acknowledgement
// cannot stall a round.
type Agent struct {
	// Apply is the verdict code traced for an applied instruction.
	Apply trace.Code
	// Congestion parks an instruction until its new link has room.
	Congestion bool
}

var _ dataplane.Handler = (*Agent)(nil)

// HandleUIM applies the instruction after the install delay and ACKs.
func (a *Agent) HandleUIM(sw *dataplane.Switch, m *packet.UIM) {
	st := sw.State(m.Flow)
	if m.Version > st.IndicatedVersion {
		st.IndicatedVersion = m.Version
	}
	if st.HasRule && m.Version <= st.NewVersion {
		if m.Version == st.NewVersion {
			sw.SendUFM(packet.UFM{
				Flow: m.Flow, Version: m.Version, Status: packet.StatusUpdated,
			})
		}
		sw.Tracer().Verdict(int32(sw.ID), trace.CodeDuplicate,
			uint32(m.Flow), m.Version, 0, 0)
		return
	}
	a.apply(sw, m)
}

// apply stages the instructed rule (capacity-gated under Congestion).
func (a *Agent) apply(sw *dataplane.Switch, m *packet.UIM) {
	st := sw.State(m.Flow)
	if st.HasRule && m.Version <= st.NewVersion {
		return // raced a newer commit while parked on capacity
	}
	newPort := dataplane.PortFromWire(m.EgressPort)
	if a.Congestion && newPort != dataplane.PortLocal &&
		!(st.HasRule && st.EgressPort == newPort && st.FlowSizeK >= m.FlowSizeK) {
		if sw.RemainingK(newPort) < uint64(m.FlowSizeK) {
			sw.Tracer().Verdict(int32(sw.ID), trace.CodeCapacityBlock,
				uint32(m.Flow), m.Version, uint32(int32(newPort)), uint32(m.FlowSizeK))
			sw.ParkOnCapacity(newPort, m, topo.InvalidPort)
			return
		}
		sw.StageReservation(m.Flow, newPort, m.FlowSizeK, m.Version)
	}
	sw.Tracer().Verdict(int32(sw.ID), a.Apply,
		uint32(m.Flow), m.Version, uint32(int32(newPort)), 0)
	portChanged := !st.HasRule || st.EgressPort != newPort
	c := sw.StageCommit()
	*c = dataplane.StagedCommit{Flow: m.Flow, UIM: *m, State: st}
	sw.Apply(portChanged, c)
}

// CommitStaged commits the instructed rule and acknowledges it.
func (a *Agent) CommitStaged(sw *dataplane.Switch, c *dataplane.StagedCommit) {
	if sw.CommitRule(c.Flow, &c.UIM, c.State.NewVersion, c.State.NewDistance, 0) {
		sw.SendUFM(packet.UFM{
			Flow: c.Flow, Version: c.UIM.Version, Status: packet.StatusUpdated,
		})
	}
}

// Resubmit re-runs apply on an instruction parked on capacity.
func (a *Agent) Resubmit(sw *dataplane.Switch, m packet.Message, inPort topo.PortID) {
	a.apply(sw, m.(*packet.UIM))
}

// HandleUNM is unused: round-based systems coordinate through the
// controller only.
func (a *Agent) HandleUNM(sw *dataplane.Switch, m *packet.UNM, inPort topo.PortID) {}
