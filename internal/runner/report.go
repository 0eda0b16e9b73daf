package runner

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"time"
)

// Report is the JSON export of one evaluation run: the merged per-trial
// results plus the execution context needed to interpret wall-clock
// numbers (worker count, host parallelism). It is the payload format of
// cmd/p4update's -json flag.
type Report struct {
	Name       string        `json:"name"`
	Workers    int           `json:"workers"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	GoVersion  string        `json:"go_version"`
	Trials     int           `json:"trials"`
	Failed     int           `json:"failed"`
	WallClock  time.Duration `json:"wall_clock_ns"`
	Results    []Result      `json:"results"`
}

// NewReport assembles a report over merged results.
func NewReport(name string, workers int, wallClock time.Duration, results []Result) *Report {
	return &Report{
		Name:       name,
		Workers:    workers,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Trials:     len(results),
		Failed:     Failed(results),
		WallClock:  wallClock,
		Results:    results,
	}
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
