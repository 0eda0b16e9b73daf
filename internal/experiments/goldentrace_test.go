package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p4update/internal/topo"
	"p4update/internal/trace"
	"p4update/internal/wiring"
)

// The golden-trace tests pin the flight recorder's event log for two
// canonical trials byte for byte: the Fig-2 inconsistent-update scenario
// under P4Update and the Fig-7 B4 single-flow trial under every
// registered system and variant. Any change to the protocol's message
// order, verification decisions, or the trace format itself shows up as
// a golden diff.
//
// To regenerate the golden files after an intentional change:
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments -run TestGoldenTrace
//
// then review the diff of internal/experiments/testdata/*.jsonl like any
// other code change.

// checkGolden compares got against the named golden file, rewriting the
// file instead when UPDATE_GOLDEN=1 is set.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Point at the first diverging line to make the diff actionable.
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("%s: trace diverges at line %d:\n got: %s\nwant: %s",
				path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: trace length changed: got %d lines, want %d",
		path, len(gotLines), len(wantLines))
}

func jsonl(t *testing.T, rec *trace.Recorder) []byte {
	t.Helper()
	if rec == nil {
		t.Fatal("trial carried no trace recorder")
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenTraceFig2(t *testing.T) {
	_, rec, err := Fig2Opts(KindP4Update, 1, &trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_fig2_p4update.jsonl", jsonl(t, rec))
}

// fig7B4Golden names the golden file pinning kind's B4 single-flow
// trial: the registry name without its dashes.
func fig7B4Golden(kind SystemKind) string {
	return "golden_fig7_b4_" + strings.ReplaceAll(string(kind), "-", "") + ".jsonl"
}

// p4updateFamily is P4Update and its forced-layer variants: every
// registered name outside the primary list. The forced single-layer
// variant is the one golden that pins Alg. 1 on B4 — the §7.5 policy
// picks the dual layer for P4Update's own trial.
func p4updateFamily() []SystemKind {
	family := []SystemKind{KindP4Update}
	for _, name := range wiring.AllNames()[len(wiring.Names()):] {
		family = append(family, SystemKind(name))
	}
	return family
}

// baselines is every registered primary other than P4Update.
func baselines() []SystemKind {
	var out []SystemKind
	for _, kind := range AllSystems() {
		if kind != KindP4Update {
			out = append(out, kind)
		}
	}
	return out
}

// checkFig7B4Goldens runs the Fig-7 B4 single-flow trial (run 0) under
// each of kinds and compares every trace against its golden.
func checkFig7B4Goldens(t *testing.T, kinds []SystemKind) {
	t.Helper()
	res, err := Fig7SingleFlowOpts(topo.B4, "B4", 1, 1,
		RunOptions{Workers: 1, Trace: &trace.Options{}, Systems: kinds})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != len(kinds) {
		t.Fatalf("%d trials, want %d", len(res.Trials), len(kinds))
	}
	for i, tr := range res.Trials {
		if tr.System != kinds[i].String() {
			t.Fatalf("trial %d is %s, want %s", i, tr.System, kinds[i])
		}
		checkGolden(t, fig7B4Golden(kinds[i]), jsonl(t, tr.TraceRec))
	}
}

// TestGoldenTraceFig7B4 pins P4Update's event log on the B4 single-flow
// trial, under the §7.5 policy and under each forced layer.
func TestGoldenTraceFig7B4(t *testing.T) {
	checkFig7B4Goldens(t, p4updateFamily())
}

// TestGoldenTraceFig7B4NewSystems pins the event logs of every other
// registered system on the same trial: their instruction waves,
// verification verdicts, phase flips and round boundaries are locked
// byte for byte.
func TestGoldenTraceFig7B4NewSystems(t *testing.T) {
	checkFig7B4Goldens(t, baselines())
}

// TestNoOrphanGoldens fails on a golden file no golden test reads, so a
// system dropped from the registry cannot leave its golden behind.
func TestNoOrphanGoldens(t *testing.T) {
	read := map[string]bool{"golden_fig2_p4update.jsonl": true}
	for _, kind := range append(p4updateFamily(), baselines()...) {
		read[fig7B4Golden(kind)] = true
	}
	files, err := filepath.Glob(filepath.Join("testdata", "golden_*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !read[filepath.Base(f)] {
			t.Errorf("%s: no golden test reads it", f)
		}
	}
}

// TestTraceDeterministicAcrossWorkers locks in that tracing does not
// depend on trial scheduling: the same grid run under 1, 2, 4 and 8
// workers must produce byte-identical event logs for every trial. Each
// trial owns its recorder and its engine's virtual clock, so worker
// interleaving must be invisible.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) [][]byte {
		res, err := Fig7SingleFlowOpts(topo.Synthetic, "synthetic", 2, 1,
			RunOptions{Workers: workers, Trace: &trace.Options{}})
		if err != nil {
			t.Fatal(err)
		}
		logs := make([][]byte, len(res.Trials))
		for i, tr := range res.Trials {
			logs[i] = jsonl(t, tr.TraceRec)
			if len(logs[i]) == 0 {
				t.Fatalf("workers=%d trial %d (%s): empty trace", workers, i, tr.Label)
			}
		}
		return logs
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d trials, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("workers=%d trial %d: trace differs from sequential run (%s)",
					workers, i, firstDiffLine(got[i], want[i]))
			}
		}
	}
}

func firstDiffLine(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d: %s vs %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(al), len(bl))
}
