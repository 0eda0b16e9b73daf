package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]time.Duration{ms(30), ms(10), ms(20), ms(40)})
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	if c.Max() != ms(40) {
		t.Errorf("max = %v", c.Max())
	}
	if c.Mean() != ms(25) {
		t.Errorf("mean = %v, want 25ms", c.Mean())
	}
	if q := c.Quantile(0.5); q != ms(20) {
		t.Errorf("p50 = %v, want 20ms", q)
	}
	if q := c.Quantile(1); q != ms(40) {
		t.Errorf("p100 = %v", q)
	}
	if q := c.Quantile(0); q != ms(10) {
		t.Errorf("p0 = %v", q)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.N() != 0 || c.Mean() != 0 || c.Quantile(0.5) != 0 {
		t.Error("empty CDF misbehaves")
	}
}

func TestCDFRowsAndSummary(t *testing.T) {
	c := NewCDF([]time.Duration{ms(10), ms(20)})
	rows := c.Rows()
	if !strings.Contains(rows, "10.0\t0.500") || !strings.Contains(rows, "20.0\t1.000") {
		t.Errorf("rows:\n%s", rows)
	}
	if s := c.Summary(); !strings.Contains(s, "n=2") || !strings.Contains(s, "mean=15.0ms") {
		t.Errorf("summary: %s", s)
	}
}

func TestCDFQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		for i, v := range raw {
			samples[i] = time.Duration(v) * time.Microsecond
		}
		c := NewCDF(samples)
		prev := time.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := c.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return c.Quantile(0) <= c.Mean() && c.Mean() <= c.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanCI(t *testing.T) {
	mean, ci := MeanCI([]float64{2, 2, 2, 2})
	if mean != 2 || ci != 0 {
		t.Errorf("constant samples: mean=%f ci=%f", mean, ci)
	}
	mean, ci = MeanCI([]float64{1, 3})
	if mean != 2 || ci <= 0 {
		t.Errorf("mean=%f ci=%f", mean, ci)
	}
	// 99% CI must be wider than a 1-sd/√n band.
	if ci < math.Sqrt2/math.Sqrt2 {
		t.Errorf("ci = %f implausibly narrow", ci)
	}
	if m, c := MeanCI(nil); m != 0 || c != 0 {
		t.Error("empty input")
	}
	if _, c := MeanCI([]float64{5}); c != 0 {
		t.Error("single sample must have zero CI")
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(ms(60), ms(100)); got != -40 {
		t.Errorf("improvement = %f, want -40", got)
	}
	if got := Improvement(ms(150), ms(100)); got != 50 {
		t.Errorf("improvement = %f, want +50", got)
	}
	if got := Improvement(ms(10), 0); got != 0 {
		t.Errorf("zero base: %f", got)
	}
}
