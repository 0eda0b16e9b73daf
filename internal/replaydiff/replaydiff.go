// Package replaydiff compares a recorded real-transport run against
// the simulator's golden trace for the same scenario. The simulator is
// the oracle: both runs execute identical verification logic, so after
// canonicalization — strip wall-clock, keep only decision events, and
// order them per (node, flow) — the two decision logs must agree
// verdict for verdict. Any divergence means the deployment path
// changed a protocol decision, not just its timing.
package replaydiff

import (
	"fmt"
	"sort"
	"strings"

	"p4update/internal/trace"
)

// Key addresses one decision sequence: the verdicts one node emitted
// for one flow. Per-key order is causal (a node's decisions about a
// flow are serialized by the protocol); the interleaving *across* keys
// at one node is scheduler timing, which canonicalization erases.
type Key struct {
	Node int32
	Flow uint32
}

// Decision is one canonicalized verdict.
type Decision struct {
	Code trace.Code
	Ver  uint32
}

// Log is a canonicalized decision log.
type Log struct {
	seqs map[Key][]Decision
}

// transient reports whether a verdict code depends on message arrival
// order rather than protocol outcome. A notification arriving before
// its indication parks as wait-uim in one run and never exists in
// another; retransmitted frames add duplicate verdicts the loss-free
// run lacks. Excluding them leaves exactly the decisions that commit,
// reject, or alarm — the ones the paper's correctness argument is
// about.
func transient(c trace.Code) bool {
	switch c {
	case trace.CodeWaitUIM, trace.CodeWaitDependency, trace.CodeDuplicate,
		trace.CodeCapacityBlock, trace.CodePriorityYield, trace.CodePriorityPromote:
		return true
	}
	return false
}

// Canonicalize reduces a raw event stream to its decision log: verdict
// events only, transient codes dropped, grouped per (node, flow) in
// stream order, timestamps discarded.
func Canonicalize(events []trace.Event) *Log {
	l := &Log{seqs: make(map[Key][]Decision)}
	for _, ev := range events {
		if ev.Kind != trace.KindVerdict || transient(trace.Code(ev.Class)) {
			continue
		}
		k := Key{Node: ev.Node, Flow: ev.Flow}
		l.seqs[k] = append(l.seqs[k], Decision{Code: trace.Code(ev.Class), Ver: ev.Ver})
	}
	return l
}

// OwnedBy filters events to those recorded at node — a process's own
// half of a multi-process conversation. Deployment processes replicate
// remote parties as silent stubs; filtering before Merge guarantees a
// decision is attributed to exactly one process.
func OwnedBy(events []trace.Event, node int32) []trace.Event {
	var out []trace.Event
	for _, ev := range events {
		if ev.Node == node {
			out = append(out, ev)
		}
	}
	return out
}

// Merge combines per-process logs into one fabric-wide log. Keys
// appearing in several logs concatenate in argument order (callers
// filter with OwnedBy first, making that case a bug they'll see as a
// diff).
func Merge(logs ...*Log) *Log {
	m := &Log{seqs: make(map[Key][]Decision)}
	for _, l := range logs {
		for k, seq := range l.seqs {
			m.seqs[k] = append(m.seqs[k], seq...)
		}
	}
	return m
}

// Len reports the total decision count.
func (l *Log) Len() int {
	n := 0
	for _, s := range l.seqs {
		n += len(s)
	}
	return n
}

// Divergence is one point where the recorded log departs from the
// golden log.
type Divergence struct {
	Key   Key
	Index int // position in the key's decision sequence
	Got   string
	Want  string
}

// String implements fmt.Stringer.
func (d Divergence) String() string {
	return fmt.Sprintf("node %d flow %d decision %d: got %s, want %s",
		d.Key.Node, d.Key.Flow, d.Index, d.Got, d.Want)
}

func describe(s []Decision, i int) string {
	if i >= len(s) {
		return "(missing)"
	}
	return fmt.Sprintf("%s@v%d", s[i].Code, s[i].Ver)
}

// Diff compares a recorded log against the golden log and returns every
// divergence, ordered by key then index. An empty result certifies the
// runs are decision-equivalent.
func Diff(got, want *Log) []Divergence {
	keyset := make(map[Key]bool)
	for k := range got.seqs {
		keyset[k] = true
	}
	for k := range want.seqs {
		keyset[k] = true
	}
	keys := make([]Key, 0, len(keyset))
	for k := range keyset {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Node != keys[j].Node {
			return keys[i].Node < keys[j].Node
		}
		return keys[i].Flow < keys[j].Flow
	})
	var out []Divergence
	for _, k := range keys {
		g, w := got.seqs[k], want.seqs[k]
		n := len(g)
		if len(w) > n {
			n = len(w)
		}
		for i := 0; i < n; i++ {
			gs, ws := describe(g, i), describe(w, i)
			if gs != ws {
				out = append(out, Divergence{Key: k, Index: i, Got: gs, Want: ws})
			}
		}
	}
	return out
}

// Report renders divergences for logs/test output; empty input yields
// "decision logs identical".
func Report(divs []Divergence) string {
	if len(divs) == 0 {
		return "decision logs identical"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d divergence(s):\n", len(divs))
	for _, d := range divs {
		fmt.Fprintf(&b, "  %s\n", d.String())
	}
	return strings.TrimRight(b.String(), "\n")
}
