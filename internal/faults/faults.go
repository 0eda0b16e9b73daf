// Package faults is the deterministic chaos harness of the test bed: a
// seeded fault-injection plan driving per-message-class probabilities
// for drop, duplicate, corrupt, delay-jitter, and reorder, plus
// scheduled switch crash/restart and controller-channel partition
// windows.
//
// Determinism is the design center. Every probabilistic fault kind
// draws from its own splitmix64-derived stream per message class, so
// enabling one fault kind never perturbs another's draw sequence, and a
// rate of zero consumes no randomness at all — a plan with all rates
// zero leaves a trial byte-identical to one with no injector attached.
// Targeted rules (drop the first UNM from node 5 to node 4, ...) match
// purely on frame metadata and consume no randomness either, so they
// compose with rate-based chaos without disturbing it. Trials execute
// single-threaded on their own engine, which is what makes the whole
// harness byte-identical across runner worker counts.
package faults

import (
	"math/rand"
	"sort"
	"time"

	"p4update/internal/dataplane"
	"p4update/internal/packet"
	"p4update/internal/topo"
)

// AnyNode is the wildcard node for Rule and Partition matching. It is
// distinct from dataplane.NodeController, which names the controller
// end of a control-channel frame.
const AnyNode topo.NodeID = -1 << 30

// Rates holds the probabilistic fault intensities for one message
// class. A zero rate disables the kind and consumes no randomness.
type Rates struct {
	// Drop is the per-frame loss probability.
	Drop float64
	// Duplicate is the per-frame probability of at-least-once delivery
	// (a second copy lands one millisecond after the first).
	Duplicate float64
	// Corrupt is the per-frame probability of detectable damage: the
	// frame is truncated or its type byte is mangled in place, so the
	// receiver counts a decode error — the software analogue of a frame
	// failing its CRC.
	Corrupt float64
	// Reorder is the per-frame probability of an extra hold of up to
	// ReorderBy, long enough to land the frame behind later traffic.
	Reorder   float64
	ReorderBy time.Duration
	// Jitter, when nonzero, adds a uniform [0, Jitter] delay to every
	// frame of the class.
	Jitter time.Duration
}

// RuleAction is the deterministic effect of a matched Rule.
type RuleAction uint8

// Rule actions.
const (
	ActDrop RuleAction = iota
	ActDuplicate
	ActCorrupt
)

// Rule is a targeted, randomness-free fault: it fires on the first
// Count frames matching its filters (Count 0 = unlimited). Rules are how
// a test says "lose exactly this frame"; one that needs a frame's
// content implements dataplane.FaultInjector itself.
type Rule struct {
	// From/To filter the frame's endpoints (AnyNode = wildcard; the
	// controller end of a control frame is dataplane.NodeController).
	From, To topo.NodeID
	// Type filters on the wire message type (TypeInvalid = any).
	Type packet.MsgType
	// Classes is a bitmask with bit 1<<c set for each dataplane.FaultClass
	// c the rule applies to (0 = all classes).
	Classes uint8
	Action  RuleAction
	Count   int
}

// DropMatching builds a rule dropping the first count matching frames.
func DropMatching(from, to topo.NodeID, t packet.MsgType, count int) Rule {
	return Rule{From: from, To: to, Type: t, Action: ActDrop, Count: count}
}

// DuplicateMatching builds a rule duplicating the first count matching
// frames.
func DuplicateMatching(from, to topo.NodeID, t packet.MsgType, count int) Rule {
	return Rule{From: from, To: to, Type: t, Action: ActDuplicate, Count: count}
}

// CorruptMatching builds a rule corrupting the first count matching
// frames (deterministic half-length truncation).
func CorruptMatching(from, to topo.NodeID, t packet.MsgType, count int) Rule {
	return Rule{From: from, To: to, Type: t, Action: ActCorrupt, Count: count}
}

// Crash schedules a fail-stop switch outage: Node goes down at virtual
// instant At and, if Restore is nonzero, comes back at Restore with its
// committed rules intact and its soft state lost.
type Crash struct {
	Node    topo.NodeID
	At      time.Duration
	Restore time.Duration
}

// Burst is a scheduled rate-burst window: while From <= now < Until the
// injector's effective per-class rates are the kind-wise maximum of the
// plan's ambient rates and the burst's. Bursts are how a storm schedule
// (see BuildStorm) turns steady background chaos into recurring episodes
// — a loss spike, a corruption wave — without touching the ambient plan.
// Overlapping bursts combine kind-wise, again by maximum.
type Burst struct {
	From, Until    time.Duration
	Data, Up, Down Rates
}

// Partition is a controller-channel outage window: control frames to
// and from Node (AnyNode = every switch) are dropped while From <= now
// < Until.
type Partition struct {
	Node        topo.NodeID
	From, Until time.Duration
}

// Plan is a complete, self-describing fault schedule for one trial.
// The zero value injects nothing.
type Plan struct {
	// Seed feeds the injector's random streams. Zero means "derive from
	// the trial seed" (wiring substitutes the trial seed at attach
	// time), so grid sweeps get independent chaos per trial for free.
	Seed int64

	// Data, Up, and Down are the probabilistic intensities for
	// switch-to-switch, switch-to-controller, and controller-to-switch
	// frames respectively.
	Data, Up, Down Rates

	Rules      []Rule
	Crashes    []Crash
	Partitions []Partition
	Bursts     []Burst
}

// Stats counts injector decisions, split by origin.
type Stats struct {
	Inspected      uint64 // frames offered to the injector
	Dropped        uint64 // rate-based drops
	Duplicated     uint64 // rate-based duplicates
	Corrupted      uint64 // rate-based corruptions
	Reordered      uint64 // rate-based reorder holds
	PartitionDrops uint64 // drops inside partition windows
	RuleDrops      uint64 // drops by a Rule (RuleHits counts every rule's frames)
	Crashes        uint64 // executed crash events
	Restores       uint64 // executed restore events
}

// fault kinds index the per-class stream array.
const (
	kindDrop = iota
	kindDuplicate
	kindCorrupt
	kindReorder
	kindJitter
	numKinds
)

// Injector implements dataplane.FaultInjector for one attached network.
type Injector struct {
	plan Plan
	net  *dataplane.Network

	// rng holds one independent stream per (message class, fault kind),
	// each seeded through splitmix64 so the streams are uncorrelated.
	rng [3][numKinds]*rand.Rand

	// ruleLeft is the remaining fire budget per rule (-1 = unlimited);
	// ruleHits counts fires.
	ruleLeft []int
	ruleHits []int

	// segs is the precomputed burst timeline: effective per-class rates
	// for each half-open interval between burst boundaries, nil when the
	// plan has no bursts (so burst-free plans stay byte-identical to the
	// pre-burst injector). segIdx is the monotonic cursor — virtual time
	// never runs backward, so Inspect advances it in amortized O(1).
	segs   []rateSeg
	segIdx int

	// parts is the plan's partition list sorted by From (a private copy;
	// plans are shared across a grid's trials and must not be mutated),
	// with partIdx skipping the expired prefix.
	parts   []Partition
	partIdx int

	Stats Stats
}

// rateSeg is one interval of the burst timeline: from this instant until
// the next segment's start, rates[class] is in effect.
type rateSeg struct {
	from  time.Duration
	rates [3]Rates
}

// maxRates merges b into a kind-wise: each probability and delay bound
// takes the larger of the two, so overlapping bursts and ambient chaos
// compose monotonically (a burst can only add faults, never mask them).
func maxRates(a, b Rates) Rates {
	if b.Drop > a.Drop {
		a.Drop = b.Drop
	}
	if b.Duplicate > a.Duplicate {
		a.Duplicate = b.Duplicate
	}
	if b.Corrupt > a.Corrupt {
		a.Corrupt = b.Corrupt
	}
	if b.Reorder > a.Reorder {
		a.Reorder = b.Reorder
	}
	if b.ReorderBy > a.ReorderBy {
		a.ReorderBy = b.ReorderBy
	}
	if b.Jitter > a.Jitter {
		a.Jitter = b.Jitter
	}
	return a
}

// splitmix64 is the stream-splitting mixer (Steele et al.): it turns
// sequential stream indexes into uncorrelated 64-bit seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d649bb133111eb
	x ^= x >> 31
	return x
}

// Attach installs plan on net and returns the live injector. Crash and
// restore events are scheduled on the network's engine immediately.
func Attach(net *dataplane.Network, plan Plan) *Injector {
	inj := &Injector{plan: plan, net: net}
	for c := 0; c < 3; c++ {
		for k := 0; k < numKinds; k++ {
			seed := splitmix64(uint64(plan.Seed)<<8 | uint64(c*numKinds+k+1))
			inj.rng[c][k] = rand.New(rand.NewSource(int64(seed)))
		}
	}
	inj.ruleLeft = make([]int, len(plan.Rules))
	inj.ruleHits = make([]int, len(plan.Rules))
	for i, r := range plan.Rules {
		if r.Count == 0 {
			inj.ruleLeft[i] = -1
		} else {
			inj.ruleLeft[i] = r.Count
		}
	}
	inj.buildSegments()
	if len(plan.Partitions) > 0 {
		inj.parts = append([]Partition(nil), plan.Partitions...)
		sort.SliceStable(inj.parts, func(i, j int) bool {
			return inj.parts[i].From < inj.parts[j].From
		})
	}
	net.Faults = inj
	for _, cr := range plan.Crashes {
		sw := net.Switch(cr.Node)
		net.Eng.ScheduleAt(cr.At, func() {
			if !sw.Down() {
				inj.Stats.Crashes++
			}
			sw.Crash()
		})
		if cr.Restore > 0 {
			net.Eng.ScheduleAt(cr.Restore, func() {
				if sw.Down() {
					inj.Stats.Restores++
				}
				sw.Restore()
			})
		}
	}
	return inj
}

// RuleHits reports how many frames rule i has fired on.
func (inj *Injector) RuleHits(i int) int { return inj.ruleHits[i] }

// classRates returns the plan's rates for a fault class.
func (inj *Injector) classRates(class dataplane.FaultClass) *Rates {
	switch class {
	case dataplane.FaultData:
		return &inj.plan.Data
	case dataplane.FaultControlUp:
		return &inj.plan.Up
	default:
		return &inj.plan.Down
	}
}

// buildSegments flattens the plan's bursts into the segment timeline:
// boundaries are every burst From/Until (plus zero), and each segment's
// effective rates are the ambient rates merged kind-wise with every
// burst covering the segment. Quadratic in the burst count, paid once
// at attach.
func (inj *Injector) buildSegments() {
	if len(inj.plan.Bursts) == 0 {
		return
	}
	bounds := []time.Duration{0}
	for _, b := range inj.plan.Bursts {
		if b.Until <= b.From {
			continue
		}
		bounds = append(bounds, b.From, b.Until)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	for _, at := range bounds {
		if n := len(inj.segs); n > 0 && inj.segs[n-1].from == at {
			continue
		}
		seg := rateSeg{from: at, rates: [3]Rates{inj.plan.Data, inj.plan.Up, inj.plan.Down}}
		for _, b := range inj.plan.Bursts {
			if b.From <= at && at < b.Until {
				seg.rates[dataplane.FaultData] = maxRates(seg.rates[dataplane.FaultData], b.Data)
				seg.rates[dataplane.FaultControlUp] = maxRates(seg.rates[dataplane.FaultControlUp], b.Up)
				seg.rates[dataplane.FaultControlDown] = maxRates(seg.rates[dataplane.FaultControlDown], b.Down)
			}
		}
		inj.segs = append(inj.segs, seg)
	}
}

// effectiveRates returns the rates in force for class at the current
// virtual instant: the ambient plan rates when no bursts exist, else the
// precomputed segment under the monotonic cursor.
func (inj *Injector) effectiveRates(class dataplane.FaultClass) *Rates {
	if inj.segs == nil {
		return inj.classRates(class)
	}
	now := inj.net.Eng.Now()
	for inj.segIdx+1 < len(inj.segs) && inj.segs[inj.segIdx+1].from <= now {
		inj.segIdx++
	}
	return &inj.segs[inj.segIdx].rates[class]
}

// matchRule reports whether rule i applies to the frame.
func (inj *Injector) matchRule(i int, class dataplane.FaultClass, from, to topo.NodeID, raw []byte) bool {
	r := &inj.plan.Rules[i]
	if inj.ruleLeft[i] == 0 {
		return false
	}
	if r.Classes != 0 && r.Classes&(1<<class) == 0 {
		return false
	}
	if r.From != AnyNode && r.From != from {
		return false
	}
	if r.To != AnyNode && r.To != to {
		return false
	}
	if r.Type != packet.TypeInvalid && (len(raw) == 0 || packet.MsgType(raw[0]) != r.Type) {
		return false
	}
	return true
}

// inPartition reports whether a control frame touching node is inside a
// partition window at the current virtual time. Windows are scanned in
// From order; the cursor permanently skips fully expired prefix windows
// (time is monotonic), so long storm schedules cost amortized O(active).
func (inj *Injector) inPartition(node topo.NodeID) bool {
	now := inj.net.Eng.Now()
	for inj.partIdx < len(inj.parts) && inj.parts[inj.partIdx].Until <= now {
		inj.partIdx++
	}
	for i := inj.partIdx; i < len(inj.parts); i++ {
		p := inj.parts[i]
		if p.From > now {
			break
		}
		if p.Until <= now {
			continue
		}
		if p.Node == AnyNode || p.Node == node {
			return true
		}
	}
	return false
}

// ActivePartitionEnd reports whether any partition window (for any node)
// covers the current virtual instant and, if so, the latest Until among
// the covering windows — the earliest moment the control channel is
// guaranteed clear of every currently active window. Harnesses use it to
// defer controller-driven work (e.g. reroute trigger waves) past an
// outage instead of burning retrigger budget into a black hole.
func (inj *Injector) ActivePartitionEnd() (time.Duration, bool) {
	now := inj.net.Eng.Now()
	var end time.Duration
	active := false
	for i := inj.partIdx; i < len(inj.parts); i++ {
		p := inj.parts[i]
		if p.From > now {
			break
		}
		if p.Until <= now {
			continue
		}
		active = true
		if p.Until > end {
			end = p.Until
		}
	}
	return end, active
}

// corruptDetectably damages raw in place so that the receiver's decode
// is guaranteed to fail — the model of a frame whose CRC catches the
// damage. Even draws truncate; odd draws set the type byte's high bit
// (an unknown message type), exercising both decode error paths.
func corruptDetectably(r *rand.Rand, raw []byte) []byte {
	if len(raw) == 0 {
		return raw
	}
	if r.Intn(2) == 0 {
		return raw[:r.Intn(len(raw))]
	}
	raw[0] |= 0x80
	return raw
}

// Inspect implements dataplane.FaultInjector. Targeted rules run first
// (consuming no randomness), then partition windows, then the rate
// draws — each kind from its own stream, each gated on a nonzero rate.
// All corruption rewrites alias raw's allocation, as the interface
// requires.
func (inj *Injector) Inspect(class dataplane.FaultClass, from, to topo.NodeID, raw []byte) ([]byte, dataplane.FaultAction) {
	inj.Stats.Inspected++
	var act dataplane.FaultAction

	for i := range inj.plan.Rules {
		if !inj.matchRule(i, class, from, to, raw) {
			continue
		}
		if inj.ruleLeft[i] > 0 {
			inj.ruleLeft[i]--
		}
		inj.ruleHits[i]++
		switch inj.plan.Rules[i].Action {
		case ActDrop:
			inj.Stats.RuleDrops++
			act.Drop = true
			return raw, act
		case ActDuplicate:
			act.Duplicate = true
		case ActCorrupt:
			raw = raw[:len(raw)/2]
		}
		break // first matching rule wins
	}

	if class != dataplane.FaultData && len(inj.plan.Partitions) > 0 {
		node := from
		if class == dataplane.FaultControlDown {
			node = to
		}
		if inj.inPartition(node) {
			inj.Stats.PartitionDrops++
			act.Drop = true
			return raw, act
		}
	}

	rates := inj.effectiveRates(class)
	streams := &inj.rng[class]
	if rates.Drop > 0 && streams[kindDrop].Float64() < rates.Drop {
		inj.Stats.Dropped++
		act.Drop = true
		return raw, act
	}
	if rates.Duplicate > 0 && streams[kindDuplicate].Float64() < rates.Duplicate {
		inj.Stats.Duplicated++
		act.Duplicate = true
	}
	if rates.Corrupt > 0 && streams[kindCorrupt].Float64() < rates.Corrupt {
		inj.Stats.Corrupted++
		raw = corruptDetectably(streams[kindCorrupt], raw)
	}
	if rates.Reorder > 0 && rates.ReorderBy > 0 && streams[kindReorder].Float64() < rates.Reorder {
		inj.Stats.Reordered++
		act.Delay += time.Duration(1 + streams[kindReorder].Int63n(int64(rates.ReorderBy)))
	}
	if rates.Jitter > 0 {
		act.Delay += time.Duration(streams[kindJitter].Int63n(int64(rates.Jitter) + 1))
	}
	return raw, act
}
