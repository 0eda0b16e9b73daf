package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// manifest mirrors BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesTables holds BENCHMARK.json to the code's tables:
// a workload or metric added to one and not the other fails here.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default is %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the code", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest has %q, the code %q (or their why differs)", i, m.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200 characters", w.name)
		}
	}
	seen := make(map[string]bool)
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d in the code", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: manifest has %+v, the code %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s %s: bound mismatch or out of (0, 0.25]", kind, d.name)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
				t.Errorf("%s %s: bad name, unit %q or direction %q", kind, d.name, d.unit, d.better)
			}
			if seen[d.name] {
				t.Errorf("metric name %s is used twice", d.name)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if d, ok := lookupMetric(endToEnd, "setup_s"); !ok || d.unit != "s" || d.better != "lower" {
		t.Error("end_to_end must contain setup_s in s, lower is better")
	}
}

// emitted fails unless res carries exactly the metrics of defs, each
// with a finite value.
func emitted(t *testing.T, res *runResult, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s missing or not finite", res.Workload, d.name)
		}
	}
	if !res.Correct {
		t.Errorf("%s: failed checks: %v", res.Workload, res.Checks)
	}
}

// TestToyWorkloads drives every workload end to end and traced at toy
// size: every declared metric is emitted exactly once, the correctness
// checks pass, and two same-seed runs simulate identically.
func TestToyWorkloads(t *testing.T) {
	out := t.TempDir()
	for _, sp := range workloads {
		first, err := runEndToEnd(sp, 1, 0, toySizing)
		if err != nil {
			t.Fatal(err)
		}
		emitted(t, first, endToEnd)
		for _, d := range endToEnd {
			if first.Metrics[d.name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", sp.name, d.name)
			}
		}
		again, err := runEndToEnd(sp, 1, 0, toySizing)
		if err != nil {
			t.Fatal(err)
		}
		if first.SimDigest != again.SimDigest {
			t.Errorf("%s: same seed, sim_digest %s then %s", sp.name, first.SimDigest, again.SimDigest)
		}
		for _, d := range endToEnd {
			if d.virtual && first.Metrics[d.name].Value != again.Metrics[d.name].Value {
				t.Errorf("%s: virtual metric %s differs between same-seed runs", sp.name, d.name)
			}
		}
		traced, err := runTraced(sp, 1, 0, toySizing, toyProbes, out)
		if err != nil {
			t.Fatal(err)
		}
		emitted(t, traced, perLayer)
		if traced.SimDigest != first.SimDigest {
			t.Errorf("%s: traced run's sim_digest %s differs from the end-to-end run's %s", sp.name, traced.SimDigest, first.SimDigest)
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+sp.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", sp.name, err)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 1, Name: "b", StartNs: 15, EndNs: 25},
		{ID: 3, Parent: 0, Name: "a", StartNs: 50, EndNs: 70},
	}}
	self, total := tr.selfTimes()
	if self["root"] != 50 || self["a"] != 40 || self["b"] != 10 || total != 100 {
		t.Errorf("self times %v, total %d; want root 50, a 40, b 10, total 100", self, total)
	}
}
