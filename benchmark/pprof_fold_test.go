package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"p4update/internal/sim"
)

// burnSim keeps the event engine busy so the profile has samples whose
// innermost repository frame is in internal/sim.
func burnSim(d time.Duration) {
	e := sim.New(1)
	fn := func() {}
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 10000; i++ {
			e.Schedule(time.Microsecond, fn)
			e.Step()
		}
	}
}

// TestFoldRecordedProfile parses a CPU profile the test itself records
// and checks the fold attributes it to the engine.
func TestFoldRecordedProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	burnSim(300 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.valueCols != 2 {
		t.Errorf("profile has %d value columns, a CPU profile has 2", p.valueCols)
	}
	if len(p.samples) == 0 {
		t.Skip("the profiler delivered no samples on this host")
	}
	found := false
	for _, s := range p.samples {
		for _, fn := range p.stack(s) {
			if strings.Contains(fn, "internal/sim.(*Engine).") {
				found = true
			}
		}
	}
	if !found {
		t.Error("no sample's stack names an Engine method")
	}
	shares := foldCPU(p)
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	// Only the engine ran: sim is the one repository layer with samples
	// (the runtime's share lands in gc/other and grows under -race).
	for _, l := range cpuLayers {
		switch {
		case l == "sim" && shares[l] == 0:
			t.Errorf("sim has no share of a profile that only ran the engine; shares %v", shares)
		case l != "sim" && l != "gc" && l != "other" && shares[l] != 0:
			t.Errorf("layer %s has share %.2f of a profile that only ran the engine", l, shares[l])
		}
	}
}

func TestLayerOfStack(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "p4update/internal/soak.(*Harness).waveScan", "p4update/internal/sim.(*Engine).Step"}, "harness"},
		{[]string{"p4update/internal/topo.(*PathOracle).spurPath", "p4update/internal/soak.(*Harness).onArrival"}, "topo"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "p4update/internal/packet.Decode"}, "gc"},
		{[]string{"p4update/internal/plancache.(*Cache).Memo"}, "controlplane"},
		{[]string{"p4update/internal/ezsegway.(*Handler).HandleMessage"}, "baselines"},
		{[]string{"p4update/internal/deploy.Run"}, "other"},
		{[]string{"runtime.futex", "runtime.notesleep"}, "other"},
		{[]string{"main.(*burst).composed"}, "other"},
	}
	for _, c := range cases {
		if got := layerOfStack(c.stack); got != c.want {
			t.Errorf("layerOfStack(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted bytes that are not gzip")
	}
}
