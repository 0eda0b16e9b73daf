package trace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"p4update/internal/packet"
	"p4update/internal/trace"
)

// TestNilRecorder pins the zero-overhead contract: every recording and
// query method must be a no-op on a nil recorder, because that is
// exactly what every instrumentation site holds when tracing is off.
func TestNilRecorder(t *testing.T) {
	var r *trace.Recorder
	r.Rec(0, trace.KindSend, 3, 1, 2, 3, 4)
	r.Send(0, 3, 1, 7, 2)
	r.Recv(1, 3, 0, 7, 2)
	r.Verdict(0, trace.CodeApplySL, 7, 2, 0, 0)
	r.Commit(0, 7, 2, 1, 3)
	r.Crash(0, 1)
	r.Restore(0, 1)
	r.Watchdog(trace.NodeController, 7, 2, 1)
	r.Alarm(0, 1, 7, 2)
	r.Round(7, 2, 3)
	if got := r.Recorded(); got != 0 {
		t.Errorf("nil Recorded() = %d, want 0", got)
	}
	if got := r.Dropped(); got != 0 {
		t.Errorf("nil Dropped() = %d, want 0", got)
	}
	if got := r.Events(); got != nil {
		t.Errorf("nil Events() = %v, want nil", got)
	}
	if got := r.Summarize(); got != nil {
		t.Errorf("nil Summarize() = %v, want nil", got)
	}
}

// TestNilRecorderAllocs asserts the traced-off fast path allocates
// nothing: the recording helpers on a nil recorder are what the hot
// loop executes on every instrumented site.
func TestNilRecorderAllocs(t *testing.T) {
	var r *trace.Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Send(0, 3, 1, 7, 2)
		r.Verdict(0, trace.CodeApplySL, 7, 2, 0, 0)
		r.Commit(0, 7, 2, 1, 3)
	})
	if allocs != 0 {
		t.Fatalf("nil-recorder helpers allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestRecSteadyStateAllocs asserts recording itself is allocation-free
// once the ring is full and the node-counter table has grown to its
// high-water mark — the traced hot loop must not churn the heap either.
func TestRecSteadyStateAllocs(t *testing.T) {
	r := trace.New(trace.Options{Cap: 64})
	for i := 0; i < 128; i++ { // fill the ring and touch the nodes
		r.Send(int32(i%4), 3, 1, 7, 2)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Send(2, 3, 1, 7, 2)
		r.Verdict(3, trace.CodeApplySL, 7, 2, 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Rec allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestEventsOrderNoWrap(t *testing.T) {
	r := trace.New(trace.Options{Cap: 16})
	for i := uint32(0); i < 5; i++ {
		r.Send(int32(i), 3, 1, i, 1)
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("Events() len = %d, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) || ev.Flow != uint32(i) {
			t.Errorf("event %d: seq=%d flow=%d, want %d/%d", i, ev.Seq, ev.Flow, i, i)
		}
	}
}

func TestRingWrap(t *testing.T) {
	r := trace.New(trace.Options{Cap: 4})
	for i := uint32(0); i < 10; i++ {
		r.Send(0, 3, 1, i, 1)
	}
	if got := r.Recorded(); got != 10 {
		t.Errorf("Recorded() = %d, want 10", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Errorf("Dropped() = %d, want 6", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events() len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		want := uint64(6 + i) // the oldest retained event is seq 6
		if ev.Seq != want {
			t.Errorf("event %d: seq = %d, want %d", i, ev.Seq, want)
		}
	}
	// The incremental counters keep counting past the overflow.
	if got := r.Summarize().ByClass["send:UIM"]; got != 10 {
		t.Errorf("send:UIM count = %d, want 10", got)
	}
}

func TestClockStampsEvents(t *testing.T) {
	r := trace.New(trace.Options{Cap: 8})
	now := 5 * time.Millisecond
	r.Clock = func() time.Duration { return now }
	r.Send(0, 3, 1, 1, 1)
	now = 9 * time.Millisecond
	r.Commit(0, 1, 1, 2, 0)
	evs := r.Events()
	if evs[0].At != 5*time.Millisecond || evs[1].At != 9*time.Millisecond {
		t.Errorf("timestamps = %v, %v; want 5ms, 9ms", evs[0].At, evs[1].At)
	}
}

// TestWriteJSONL checks the JSONL exporter emits one valid JSON object
// per line, in sequence order, with the symbolic class labels.
func TestWriteJSONL(t *testing.T) {
	r := trace.New(trace.Options{Cap: 16})
	r.Clock = func() time.Duration { return time.Millisecond }
	r.Send(trace.NodeController, 3, 2, 7, 4)
	r.Recv(2, 3, trace.NodeController, 7, 4)
	r.Verdict(2, trace.CodeApplyEgress, 7, 4, 0, 0)
	r.Commit(2, 7, 4, 1, 0)
	r.Alarm(3, 1, 7, 4)
	r.Watchdog(3, 7, 4, 1)

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6", len(lines))
	}
	type row struct {
		Seq  uint64 `json:"seq"`
		At   int64  `json:"at_ns"`
		Node int32  `json:"node"`
		Kind string `json:"kind"`
		Cls  string `json:"class"`
		Peer *int32 `json:"peer"`
		Flow uint32 `json:"flow"`
		Ver  uint32 `json:"ver"`
	}
	var rows []row
	for i, l := range lines {
		var rr row
		if err := json.Unmarshal([]byte(l), &rr); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, l)
		}
		if rr.Seq != uint64(i) {
			t.Errorf("line %d: seq = %d, want %d", i, rr.Seq, i)
		}
		rows = append(rows, rr)
	}
	if rows[0].Kind != "send" || rows[0].Cls != "UIM" || rows[0].Node != -1 ||
		rows[0].Peer == nil || *rows[0].Peer != 2 {
		t.Errorf("send row mismatch: %+v", rows[0])
	}
	if rows[1].Kind != "recv" || rows[1].Peer == nil || *rows[1].Peer != -1 {
		t.Errorf("recv row mismatch: %+v", rows[1])
	}
	if rows[2].Kind != "verdict" || rows[2].Cls != "apply-egress" {
		t.Errorf("verdict row mismatch: %+v", rows[2])
	}
	if rows[4].Kind != "alarm" || rows[4].Cls != "distance" {
		t.Errorf("alarm row mismatch: %+v", rows[4])
	}
	if rows[5].Kind != "watchdog" || rows[5].Flow != 7 {
		t.Errorf("watchdog row mismatch: %+v", rows[5])
	}
}

// TestWriteChrome checks the Chrome trace_event export parses as JSON
// and carries one named lane per node plus the instant events.
func TestWriteChrome(t *testing.T) {
	r := trace.New(trace.Options{Cap: 16})
	r.Send(trace.NodeController, 3, 0, 7, 2)
	r.Recv(0, 3, trace.NodeController, 7, 2)
	r.Commit(0, 7, 2, 1, 0)

	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int32  `json:"tid"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export not valid JSON: %v", err)
	}
	// 2 thread_name metadata rows (controller + switch 0) + 3 events.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d trace events, want 5", len(doc.TraceEvents))
	}
	var lanes []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			lanes = append(lanes, ev.Args["name"].(string))
		}
	}
	if len(lanes) != 2 || lanes[0] != "controller" || lanes[1] != "switch 0" {
		t.Errorf("lanes = %v, want [controller, switch 0]", lanes)
	}
	if ev := doc.TraceEvents[2]; ev.Ph != "i" || ev.Name != "send:UIM" || ev.Tid != 0 {
		t.Errorf("first instant event mismatch: %+v", ev)
	}
}

func TestSummarize(t *testing.T) {
	r := trace.New(trace.Options{Cap: 4})
	for i := 0; i < 6; i++ {
		r.Send(0, 3, 1, 7, 2)
	}
	r.Verdict(1, trace.CodeCapacityBlock, 7, 2, 0, 0)
	r.Round(7, 2, 3)

	s := r.Summarize()
	if s.Events != 8 || s.Dropped != 4 {
		t.Errorf("Events/Dropped = %d/%d, want 8/4", s.Events, s.Dropped)
	}
	if s.ByClass["send:UIM"] != 6 {
		t.Errorf("ByClass[send:UIM] = %d, want 6", s.ByClass["send:UIM"])
	}
	if s.ByClass["verdict:capacity-block"] != 1 {
		t.Errorf("ByClass[verdict:capacity-block] = %d, want 1", s.ByClass["verdict:capacity-block"])
	}
	if s.ByClass["round"] != 1 {
		t.Errorf("ByClass[round] = %d, want 1", s.ByClass["round"])
	}
	if s.ByNode["n0"] != 6 || s.ByNode["n1"] != 1 || s.ByNode["ctl"] != 1 {
		t.Errorf("ByNode = %v, want n0:6 n1:1 ctl:1", s.ByNode)
	}
	// The summary is JSON-serializable (it rides in trial reports).
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("Summary not serializable: %v", err)
	}
}

// TestMsgNamesMatchPacket pins the exporter's name tables to the packet
// package's wire constants. trace cannot import packet (the dependency
// runs the other way through sim), so the tables are mirrored by hand —
// this test is what keeps them honest.
func TestMsgNamesMatchPacket(t *testing.T) {
	want := map[uint8]string{
		uint8(packet.TypeData): "DATA",
		uint8(packet.TypeFRM):  "FRM",
		uint8(packet.TypeUIM):  "UIM",
		uint8(packet.TypeUNM):  "UNM",
		uint8(packet.TypeUFM):  "UFM",
		uint8(packet.TypeEZI):  "EZI",
		uint8(packet.TypeEZN):  "EZN",
		uint8(packet.TypeCLN):  "CLN",
	}
	for typ, name := range want {
		if got := trace.MsgName(typ); got != name {
			t.Errorf("MsgName(%d) = %q, want %q", typ, got, name)
		}
	}
	alarms := map[packet.AlarmReason]string{
		packet.ReasonNone:     "none",
		packet.ReasonDistance: "distance",
		packet.ReasonOutdated: "outdated",
		packet.ReasonFlowSize: "flow-size",
	}
	for reason, name := range alarms {
		if got := trace.ClassLabel(trace.KindAlarm, uint8(reason)); got != name {
			t.Errorf("ClassLabel(alarm, %d) = %q, want %q", reason, got, name)
		}
	}
}

// TestCoreCodesComplete checks the coverage universe is well-formed:
// distinct codes, all named, and containing every verdict family.
func TestCoreCodesComplete(t *testing.T) {
	codes := trace.CoreCodes()
	seen := map[trace.Code]bool{}
	for _, c := range codes {
		if seen[c] {
			t.Errorf("duplicate code %v", c)
		}
		seen[c] = true
		if c.String() == "unknown" {
			t.Errorf("code %d has no name", c)
		}
	}
	for _, must := range []trace.Code{
		trace.CodeApplySL, trace.CodeApplyEgress, trace.CodeApplyDLSegment,
		trace.CodeApplyDLGateway, trace.CodeInherit, trace.CodeInheritCounter,
		trace.CodeWaitUIM, trace.CodeWaitDependency, trace.CodeDuplicate,
		trace.CodeRejectOutdated, trace.CodeRejectDistance, trace.CodeRejectFlowSize,
		trace.CodeCapacityBlock, trace.CodePriorityYield, trace.CodePriorityPromote,
	} {
		if !seen[must] {
			t.Errorf("CoreCodes() missing %v", must)
		}
	}
	// The baseline apply codes are deliberately outside the core universe.
	if seen[trace.CodeApplyEZ] || seen[trace.CodeApplyCentral] {
		t.Errorf("CoreCodes() must exclude the baseline apply codes")
	}
}

// TestJSONLDeterministic re-exports the same recorder twice and expects
// byte-identical output (the golden-trace suite depends on this).
func TestJSONLDeterministic(t *testing.T) {
	r := trace.New(trace.Options{Cap: 8})
	for i := uint32(0); i < 12; i++ { // wraps
		r.Send(int32(i%3), 4, 1, i, 1)
	}
	var a, b bytes.Buffer
	if err := r.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("repeated JSONL export differs")
	}
}
