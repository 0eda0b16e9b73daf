// Command benchmark is the repository's one performance benchmark: four
// named workloads that stress different layers of the update fabric,
// twelve end-to-end metrics, per-layer probes and a separate traced run.
//
//	go run ./benchmark                          every workload, untraced then traced; writes benchmark/out/results.json
//	go run ./benchmark -workload churn-k16      one workload, end to end
//	go run ./benchmark -workload churn-k16 -trace 1   its traced run and the layer probes
//	go run ./benchmark -selfcheck               the end-to-end set twice; fails when two medians differ by more than the metric's bound
//
// A single-workload run prints, as the last line of its standard output,
// one JSON object {"correct","attempted","failed","metrics"}: the
// end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
// It exits non-zero when a correctness check fails; the metrics are
// printed all the same. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// defaultSeconds is how long one run measures; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 24

func main() {
	name := flag.String("workload", "", "run one workload (default: all, each in its own process)")
	seed := flag.Int64("seed", 1, "workload seed; the only input")
	seconds := flag.Int("seconds", defaultSeconds, "how long one run measures")
	traced := flag.Int("trace", 0, "1: the traced run and the layer probes instead of the end-to-end run")
	selfcheck := flag.Bool("selfcheck", false, "run the end-to-end set twice and compare the medians against the bounds")
	out := flag.String("out", filepath.Join("benchmark", "out"), "directory for results.json, run details and trace files")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	var ok bool
	var err error
	switch {
	case *name != "":
		ok, err = runOne(*name, *seed, *seconds, *traced == 1, *out)
	case *selfcheck:
		ok, err = runSelfcheck(*seed, *seconds, *out)
	default:
		ok, err = runAll(*seed, *seconds, *out)
	}
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// lastLine is the machine-readable result a single-workload run ends its
// standard output with.
type lastLine struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func detailPath(outDir, workload string, traced bool) string {
	kind := "e2e"
	if traced {
		kind = "traced"
	}
	return filepath.Join(outDir, fmt.Sprintf("run-%s-%s.json", workload, kind))
}

// runOne runs one workload in this process.
func runOne(name string, seed int64, seconds int, traced bool, outDir string) (bool, error) {
	sp, ok := lookupWorkload(name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return false, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	var res *runResult
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		res, err = runTraced(sp, seed, seconds, fullSizing, fullProbes, outDir)
	} else {
		res, err = runEndToEnd(sp, seed, seconds, fullSizing)
	}
	if err != nil {
		return false, err
	}
	printRun(os.Stdout, res, defs)
	if err := writeJSON(detailPath(outDir, name, traced), res); err != nil {
		return false, err
	}
	line := lastLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]lineValue, len(defs))}
	for _, d := range defs {
		line.Metrics[d.name] = lineValue{res.Metrics[d.name].Value, d.unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(raw))
	return res.Correct, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// printRun prints every metric by name with its unit: host-time and
// virtual-time metrics in separate blocks.
func printRun(w io.Writer, res *runResult, defs []metricDef) {
	kind := "end to end"
	if res.Traced {
		kind = "traced run + layer probes"
	}
	h := res.Host
	fmt.Fprintf(w, "== %s (%s) seed=%d ==\n", res.Workload, kind, res.Seed)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s cpu=%q git=%s start=%s\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.GitRev, h.Start)
	fmt.Fprintf(w, "repetitions: %d timed", res.Reps)
	if res.Traced {
		fmt.Fprintf(w, " untraced, %d traced", res.TracedReps)
	}
	fmt.Fprintf(w, "; one repetition = %d trials, %d flows, %d updates triggered, %d confirmed, %d events; wall %.4f s (q1 %.4f, q3 %.4f)\n",
		res.Trials, res.Flows, res.Triggered, res.Confirmed, res.Events, res.RepWallS.Value, res.RepWallS.Q1, res.RepWallS.Q3)
	fmt.Fprintf(w, "sim_digest: %s\n", res.SimDigest)
	fmt.Fprintf(w, "host slowness: %.3f (calibration kernel time over the reference host's)\n", res.HostSlowness)
	for _, virtual := range []bool{false, true} {
		first := true
		for _, d := range defs {
			if d.virtual != virtual {
				continue
			}
			if first {
				first = false
				switch {
				case virtual:
					fmt.Fprintln(w, "-- virtual time (repeats exactly for a seed) --")
				case res.Traced:
					fmt.Fprintln(w, "-- per layer (transport.* is in-memory loopback, no real link) --")
				default:
					fmt.Fprintln(w, "-- host time (median over repetitions, at the reference host's speed) --")
				}
			}
			v := res.Metrics[d.name]
			fmt.Fprintf(w, "%-38s %16.6g %-7s", d.name, v.Value, d.unit)
			if v.N > 1 {
				fmt.Fprintf(w, " q1=%.6g q3=%.6g n=%d", v.Q1, v.Q3, v.N)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "updates attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, c := range res.Checks {
		fmt.Fprintln(w, "FAILED CHECK:", c)
	}
}

// child re-executes this binary for one workload, so heap state and peak
// RSS do not leak between workloads, and returns the run's details.
func child(workload string, seed int64, seconds int, traced bool, outDir string) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", t, "-out", outDir)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	raw, err := os.ReadFile(detailPath(outDir, workload, traced))
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, err
	}
	res := new(runResult)
	if err := json.Unmarshal(raw, res); err != nil {
		return nil, err
	}
	if runErr != nil && res.Correct {
		return nil, fmt.Errorf("%s: %w", workload, runErr)
	}
	return res, nil
}

// results is the document the all-workloads mode writes.
type results struct {
	Host     hostStamp             `json:"host"`
	Seed     int64                 `json:"seed"`
	Seconds  int                   `json:"seconds"`
	Note     string                `json:"note"`
	Correct  bool                  `json:"correct"`
	EndToEnd map[string]*runResult `json:"end_to_end"`
	Traced   map[string]*runResult `json:"traced"`
}

// runAll runs every workload with tracing and profiling off, then one
// traced run per workload with the layer probes, and writes results.json.
func runAll(seed int64, seconds int, outDir string) (bool, error) {
	doc := results{Host: stampHost(), Seed: seed, Seconds: seconds, Correct: true,
		Note:     "transport.* metrics: in-memory loopback, no real link",
		EndToEnd: make(map[string]*runResult), Traced: make(map[string]*runResult)}
	for _, traced := range []bool{false, true} {
		for _, sp := range workloads {
			res, err := child(sp.name, seed, seconds, traced, outDir)
			if err != nil {
				return false, err
			}
			if traced {
				doc.Traced[sp.name] = res
			} else {
				doc.EndToEnd[sp.name] = res
			}
			doc.Correct = doc.Correct && res.Correct
			fmt.Println()
		}
	}
	path := filepath.Join(outDir, "results.json")
	if err := writeJSON(path, doc); err != nil {
		return false, err
	}
	fmt.Printf("wrote %s; correct=%v\n", path, doc.Correct)
	return doc.Correct, nil
}

// runSelfcheck runs the end-to-end set twice and holds the two sets of
// medians to the benchmark's own bounds: virtual metrics and the digest
// must be identical, host-time medians within their declared share.
func runSelfcheck(seed int64, seconds int, outDir string) (bool, error) {
	ok := true
	var sets [2]map[string]*runResult
	for i := range sets {
		sets[i] = make(map[string]*runResult)
		for _, sp := range workloads {
			res, err := child(sp.name, seed, seconds, false, outDir)
			if err != nil {
				return false, err
			}
			sets[i][sp.name] = res
			ok = ok && res.Correct
			fmt.Println()
		}
	}
	fmt.Println("== selfcheck: second set against first ==")
	fmt.Printf("%-16s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "differ", "bound")
	for _, sp := range workloads {
		a, b := sets[0][sp.name], sets[1][sp.name]
		if a.SimDigest != b.SimDigest {
			ok = false
			fmt.Printf("%-16s sim_digest %s != %s  FAIL\n", sp.name, a.SimDigest, b.SimDigest)
		}
		for _, d := range endToEnd {
			x, y := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			differ := math.Abs(y-x) / math.Abs(x)
			verdict := ""
			if (d.virtual && x != y) || (!d.virtual && differ > d.bound) {
				ok = false
				verdict = "  FAIL"
			}
			bound := fmt.Sprintf("%.1f%%", 100*d.bound)
			if d.virtual {
				bound = "exact"
			}
			fmt.Printf("%-16s %-22s %14.6g %14.6g %8.2f%% %7s%s\n", sp.name, d.name, x, y, 100*differ, bound, verdict)
		}
	}
	fmt.Printf("selfcheck passed=%v\n", ok)
	return ok, nil
}
