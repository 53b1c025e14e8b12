package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// The quartiles must match Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spread is judged by; the expectations were printed
// by Python itself, including its extrapolation on tiny samples.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5.0, 1.5, 9.25, 2.0, 7.0}, 1.75, 8.125},
		{[]float64{4}, 4, 4},
		{nil, 0, 0},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func TestPerStepConversions(t *testing.T) {
	if got := perStepMillis(0.5, 20); !near(got, 25) {
		t.Errorf("perStepMillis(0.5 s, 20) = %v ms, want 25", got)
	}
	if got := perStepMillis(1, 0); got != 0 {
		t.Errorf("perStepMillis with no steps = %v, want 0", got)
	}
	if got := maxOverMin([]int64{5396, 5328}); !near(got, 5396.0/5328) {
		t.Errorf("maxOverMin = %v", got)
	}
	if got := maxOverMin(nil); got != 1 {
		t.Errorf("maxOverMin of no workers = %v, want 1", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}

func TestParseCacheSize(t *testing.T) {
	for in, want := range map[string]int64{"307200K\n": 307200 << 10, "32M": 32 << 20, "1G": 1 << 30, "4096": 4096} {
		if got, err := parseCacheSize(in); err != nil || got != want {
			t.Errorf("parseCacheSize(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "K", "-1K", "12X"} {
		if _, err := parseCacheSize(bad); err == nil {
			t.Errorf("parseCacheSize(%q) accepted", bad)
		}
	}
	if size, limited := probeArrayBytes(1<<20, maxProbeArray); size != 4<<20 || limited {
		t.Errorf("1 MiB LLC: %d bytes, cache-limited %v; want 4 MiB, false", size, limited)
	}
	if size, limited := probeArrayBytes(300<<20, maxProbeArray); size != maxProbeArray || !limited {
		t.Errorf("300 MiB LLC: %d bytes, cache-limited %v; want the cap, true", size, limited)
	}
	if size, limited := probeArrayBytes(0, maxProbeArray); size != maxProbeArray || !limited {
		t.Errorf("unknown LLC: %d bytes, cache-limited %v; want the cap, true", size, limited)
	}
}
