// Package trace is the flight recorder of the simulation: a per-trial
// ring buffer of fixed-size value-typed event records capturing every
// protocol-relevant step — message sends and receptions, Alg. 1/Alg. 2
// verification verdicts with their reason codes, rule commits,
// crash/restore epochs, and watchdog firings — so a misbehaving trial
// can be explained from its decision log instead of re-run under a
// debugger.
//
// The recorder is wired through sim.Engine.Trace and reached from every
// protocol layer via a single nil-checked pointer load, so a traced-off
// run pays one predictable branch per site: the hot loop stays at
// 0 allocs/op and produces byte-identical output. Recording itself is
// pure observation — it never schedules events, mutates protocol state,
// or draws randomness — so a traced run is step-for-step identical to
// an untraced one, and the emitted JSONL is identical across any trial
// worker count.
//
// Records hold only interned numeric IDs (flow IDs, node IDs, enum
// codes); the symbolic names appear exclusively in the exporters.
package trace

import "time"

// Kind classifies an event record.
type Kind uint8

// Event kinds.
const (
	// KindSend: a protocol message left a node (Class = wire message
	// type, A = destination node, data packets excluded).
	KindSend Kind = iota + 1
	// KindRecv: a protocol message was decoded at a node (Class = wire
	// message type, A = source node).
	KindRecv
	// KindVerdict: a verification or scheduling decision (Class = Code).
	KindVerdict
	// KindCommit: a forwarding rule committed (A = egress port, B = new
	// distance).
	KindCommit
	// KindCrash: the node failed fail-stop (A = new epoch).
	KindCrash
	// KindRestore: the node came back online (A = epoch).
	KindRestore
	// KindWatchdog: a §11 recovery watchdog fired (A = report/retrigger
	// count). Node -1 is the controller-side completion watchdog.
	KindWatchdog
	// KindAlarm: the node raised a StatusAlarm UFM (Class = AlarmReason).
	KindAlarm
	// KindRound: a controller-driven system's round executor sent a
	// batch of instructions (A = batch size).
	KindRound

	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindVerdict:
		return "verdict"
	case KindCommit:
		return "commit"
	case KindCrash:
		return "crash"
	case KindRestore:
		return "restore"
	case KindWatchdog:
		return "watchdog"
	case KindAlarm:
		return "alarm"
	case KindRound:
		return "round"
	default:
		return "unknown"
	}
}

// Code is a verdict reason code: why a node applied, deferred, or
// rejected an update step. The codes refine core.Decision with the
// branch that produced it, so the decision log distinguishes e.g. a
// distance inheritance from a hop-counter symmetry break.
type Code uint8

// Verdict reason codes.
const (
	// CodeApplySL: Alg. 1 line 6 — single-layer verification succeeded.
	CodeApplySL Code = iota + 1
	// CodeApplyEgress: §7.2 — the flow egress applies directly on a
	// well-formed indication.
	CodeApplyEgress
	// CodeApplyDLSegment: Alg. 2 lines 9–16 — a segment-interior (fresh
	// or lagging) node applies, inheriting the parent's segment ID.
	CodeApplyDLSegment
	// CodeApplyDLGateway: Alg. 2 lines 19–21 — the gateway gate
	// Dn(v) > Do(UNM) passed.
	CodeApplyDLGateway
	// CodeInherit: Alg. 2 lines 24–27 — an already-updated node inherits
	// a strictly smaller old distance (segment ID) and passes it on.
	CodeInherit
	// CodeInheritCounter: Alg. 2 lines 24–27 with equal old distances —
	// the hop counter breaks the symmetry.
	CodeInheritCounter
	// CodeWaitUIM: the notification is ahead of the node's indication
	// (Alg. 1 line 10 / Alg. 2 line 5); parked until the UIM arrives.
	CodeWaitUIM
	// CodeWaitDependency: the dual-layer gateway gate failed — the
	// backward-segment dependency is unresolved.
	CodeWaitDependency
	// CodeDuplicate: the notification carries no new information.
	CodeDuplicate
	// CodeRejectOutdated: version mismatch — the notification is older
	// than the node's indication.
	CodeRejectOutdated
	// CodeRejectDistance: distance gap — Dn(UIM) != Dn(UNM)+1, or a
	// malformed egress indication.
	CodeRejectDistance
	// CodeRejectFlowSize: the flow's immutable size bound changed (§A.2).
	CodeRejectFlowSize
	// CodeCapacityBlock: the §A.2 capacity gate parked the move — the
	// target link lacks headroom.
	CodeCapacityBlock
	// CodePriorityYield: a low-priority flow yielded the link to waiting
	// high-priority flows (§7.4).
	CodePriorityYield
	// CodePriorityPromote: the flow obtained high priority because its
	// move frees capacity another flow waits for (§7.4).
	CodePriorityPromote
	// CodeApplyEZ: the ez-Segway baseline applied an instruction.
	CodeApplyEZ
	// CodeApplyCentral: the Central baseline applied a round instruction.
	CodeApplyCentral
	// CodeApplyPPCU: the PPCU baseline applied a per-packet-consistency
	// phase rule.
	CodeApplyPPCU
	// CodeApplyOracle: the OptOracle executor applied a round
	// instruction.
	CodeApplyOracle

	numCodes
)

// String implements fmt.Stringer.
func (c Code) String() string {
	switch c {
	case CodeApplySL:
		return "apply-sl"
	case CodeApplyEgress:
		return "apply-egress"
	case CodeApplyDLSegment:
		return "apply-dl-segment"
	case CodeApplyDLGateway:
		return "apply-dl-gateway"
	case CodeInherit:
		return "inherit-distance"
	case CodeInheritCounter:
		return "inherit-counter"
	case CodeWaitUIM:
		return "wait-uim"
	case CodeWaitDependency:
		return "wait-dependency"
	case CodeDuplicate:
		return "duplicate"
	case CodeRejectOutdated:
		return "reject-outdated"
	case CodeRejectDistance:
		return "reject-distance"
	case CodeRejectFlowSize:
		return "reject-flow-size"
	case CodeCapacityBlock:
		return "capacity-block"
	case CodePriorityYield:
		return "priority-yield"
	case CodePriorityPromote:
		return "priority-promote"
	case CodeApplyEZ:
		return "apply-ez"
	case CodeApplyCentral:
		return "apply-central"
	case CodeApplyPPCU:
		return "apply-ppcu"
	case CodeApplyOracle:
		return "apply-oracle"
	default:
		return "unknown"
	}
}

// CoreCodes lists every reason code the P4Update protocol itself can
// emit (the baseline-only apply codes excluded). The decision-coverage
// suite fails if any of these is never exercised — a canary against
// dead verification branches.
func CoreCodes() []Code {
	codes := make([]Code, 0, int(CodePriorityPromote))
	for c := CodeApplySL; c <= CodePriorityPromote; c++ {
		codes = append(codes, c)
	}
	return codes
}

// NodeController is the Node value representing the controller.
const NodeController int32 = -1

// Event is one fixed-size flight-recorder record. The meaning of Class,
// A and B depends on Kind (see the Kind constants); Flow and Ver are the
// wire flow ID and configuration version where applicable.
type Event struct {
	Seq   uint64
	At    time.Duration
	Node  int32
	Kind  Kind
	Class uint8
	Flow  uint32
	Ver   uint32
	A     uint32
	B     uint32
}

// DefaultCap is the default ring capacity in events.
const DefaultCap = 1 << 14

// maxClass bounds the per-class counter table; every Class value in use
// (message types ≤ 18, reason codes ≤ 19, alarm reasons ≤ 3) fits.
const maxClass = 32

// Options configures a recorder.
type Options struct {
	// Cap is the ring capacity in events (<= 0: DefaultCap). When the
	// ring overflows, the oldest events are dropped; the per-class and
	// per-node counters keep counting.
	Cap int
}

// Recorder is the per-trial flight recorder. All recording methods are
// safe on a nil receiver (they return immediately), so instrumentation
// sites need no nil guard of their own beyond loading the pointer. The
// recorder is single-threaded by the same contract as the engine.
type Recorder struct {
	// Clock supplies event timestamps; wiring binds it to the trial
	// engine's virtual clock. Nil stamps zero.
	Clock func() time.Duration

	buf []Event
	seq uint64

	counts [numKinds][maxClass]uint64
	// nodeCounts is indexed by node+1 (slot 0 = controller), grown on
	// first touch.
	nodeCounts []uint64
}

// New builds a recorder with a preallocated ring.
func New(opt Options) *Recorder {
	c := opt.Cap
	if c <= 0 {
		c = DefaultCap
	}
	return &Recorder{buf: make([]Event, 0, c)}
}

// Rec appends one event. It is the single recording primitive behind
// the typed helpers; in steady state (ring full) it allocates nothing.
func (r *Recorder) Rec(node int32, kind Kind, class uint8, flow, ver, a, b uint32) {
	if r == nil {
		return
	}
	var at time.Duration
	if r.Clock != nil {
		at = r.Clock()
	}
	ev := Event{Seq: r.seq, At: at, Node: node, Kind: kind, Class: class,
		Flow: flow, Ver: ver, A: a, B: b}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		// The ring position of seq is seq%cap — consistent with where the
		// append path placed the first cap events.
		r.buf[r.seq%uint64(cap(r.buf))] = ev
	}
	r.seq++
	if kind < numKinds && class < maxClass {
		r.counts[kind][class]++
	}
	if idx := int(node) + 1; idx >= 0 {
		for idx >= len(r.nodeCounts) {
			r.nodeCounts = append(r.nodeCounts, 0)
		}
		r.nodeCounts[idx]++
	}
}

// Send records a protocol message leaving node toward peer.
func (r *Recorder) Send(node int32, msgType uint8, peer int32, flow, ver uint32) {
	r.Rec(node, KindSend, msgType, flow, ver, uint32(peer), 0)
}

// Recv records a protocol message decoded at node, arrived from peer.
func (r *Recorder) Recv(node int32, msgType uint8, peer int32, flow, ver uint32) {
	r.Rec(node, KindRecv, msgType, flow, ver, uint32(peer), 0)
}

// Verdict records a verification or scheduling decision at node.
func (r *Recorder) Verdict(node int32, code Code, flow, ver, a, b uint32) {
	r.Rec(node, KindVerdict, uint8(code), flow, ver, a, b)
}

// Commit records a committed forwarding rule at node.
func (r *Recorder) Commit(node int32, flow, ver uint32, port int32, dist uint32) {
	r.Rec(node, KindCommit, 0, flow, ver, uint32(port), dist)
}

// Crash records a fail-stop switch failure.
func (r *Recorder) Crash(node int32, epoch uint32) {
	r.Rec(node, KindCrash, 0, 0, 0, epoch, 0)
}

// Restore records a switch restart.
func (r *Recorder) Restore(node int32, epoch uint32) {
	r.Rec(node, KindRestore, 0, 0, 0, epoch, 0)
}

// Watchdog records a §11 recovery watchdog firing (node -1: the
// controller-side completion watchdog; count is the report/retrigger
// number).
func (r *Recorder) Watchdog(node int32, flow, ver, count uint32) {
	r.Rec(node, KindWatchdog, 0, flow, ver, count, 0)
}

// Alarm records a StatusAlarm report raised at node.
func (r *Recorder) Alarm(node int32, reason uint8, flow, ver uint32) {
	r.Rec(node, KindAlarm, reason, flow, ver, 0, 0)
}

// Round records a round executor's batch of instructions to batch
// nodes (Central, PPCU, the opt-oracle).
func (r *Recorder) Round(flow, ver, batch uint32) {
	r.Rec(NodeController, KindRound, 0, flow, ver, batch, 0)
}

// Recorded reports how many events were recorded in total, including
// any the ring has since dropped.
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.seq
}

// Dropped reports how many of the recorded events the ring overwrote.
func (r *Recorder) Dropped() uint64 {
	if r == nil || r.seq <= uint64(len(r.buf)) {
		return 0
	}
	return r.seq - uint64(len(r.buf))
}

// Events returns the retained events in recording (sequence) order. The
// slice is a copy; mutating it does not affect the recorder.
func (r *Recorder) Events() []Event {
	if r == nil || len(r.buf) == 0 {
		return nil
	}
	n := len(r.buf)
	out := make([]Event, n)
	if r.seq > uint64(n) {
		// The ring wrapped: the oldest retained event sits at seq%n.
		start := int(r.seq % uint64(n))
		copy(out, r.buf[start:])
		copy(out[n-start:], r.buf[:start])
	} else {
		copy(out, r.buf)
	}
	return out
}
