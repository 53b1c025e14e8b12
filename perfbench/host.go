package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// llcPath is where Linux reports the last-level cache size of CPU 0.
const llcPath = "/sys/devices/system/cpu/cpu0/cache/index3/size"

// maxProbeArray caps one probe array: three arrays of 4× a VM's reported
// last-level cache can exceed what a small shared host holds comfortably.
// A capped probe is labelled cache-limited.
const maxProbeArray = 128 << 20

// hostCeilings are the host's measured copy and triad bandwidth and
// scalar multiply-add rate at the workload's worker count — the roofline
// the kernels are compared against (paper Eq. 5, measured on this host).
type hostCeilings struct {
	llcBytes     int64 // 0 when the size could not be read
	arrayBytes   int64
	cacheLimited bool
	copyGBs      float64
	triadGBs     float64
	fmaGFlops    float64
}

// parseCacheSize reads sysfs sizes such as "307200K" or "32M".
func parseCacheSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad cache size %q", s)
	}
	return n * mult, nil
}

// probeArrayBytes sizes one bandwidth array at four times the last-level
// cache, capped at limit; an unknown cache size takes the cap.
func probeArrayBytes(llc, limit int64) (size int64, cacheLimited bool) {
	want := 4 * llc
	if llc <= 0 || want > limit {
		return limit, true
	}
	return want, false
}

// probeHost measures the ceilings with the given number of concurrent
// workers and arrays of at most limit bytes, taking each kernel's best
// pass as STREAM does.
func probeHost(spans *spanLog, parent, workers int, limit int64, budget time.Duration) hostCeilings {
	var h hostCeilings
	if raw, err := os.ReadFile(llcPath); err == nil {
		h.llcBytes, _ = parseCacheSize(string(raw)) // 0 (unknown) on a malformed value
	}
	h.arrayBytes, h.cacheLimited = probeArrayBytes(h.llcBytes, limit)
	n := int(h.arrayBytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i], c[i] = 1, 2, 0
	}
	third := budget / 3
	copySec := bestPass(spans, "machine.copy", parent, workers, third, n, func(lo, hi int) {
		copy(c[lo:hi], a[lo:hi])
	})
	triadSec := bestPass(spans, "machine.triad", parent, workers, third, n, func(lo, hi int) {
		const s = 3.0
		x, y, z := a[lo:hi], b[lo:hi], c[lo:hi]
		for i := range x {
			x[i] = y[i] + s*z[i]
		}
	})
	const fmaIters = 1 << 21
	fmaSec := bestPass(spans, "machine.fma", parent, workers, third, workers, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			fmaSink[w%len(fmaSink)] = mulAddChains(fmaIters)
		}
	})
	// STREAM byte counts: copy reads and writes one array, triad reads two
	// and writes one.
	h.copyGBs = 16 * float64(n) / copySec / 1e9
	h.triadGBs = 24 * float64(n) / triadSec / 1e9
	h.fmaGFlops = float64(workers) * fmaChains * 2 * fmaIters / fmaSec / 1e9
	return h
}

// bestPass splits [0,n) over workers goroutines, times whole passes until
// the budget is spent (at least three), and returns the fastest pass in
// seconds.
func bestPass(spans *spanLog, name string, parent, workers int, budget time.Duration, n int, body func(lo, hi int)) float64 {
	run := spans.newRun()
	start := time.Now()
	best := 0.0
	for pass := 0; pass < 3 || time.Since(start) < budget; pass++ {
		sp := spans.begin(name, parent, run)
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(lo, hi)
			}()
		}
		wg.Wait()
		d := time.Since(t0).Seconds()
		spans.end(sp, workers)
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// fmaChains is the number of independent multiply-add chains per worker,
// enough to cover the floating-point latency.
const fmaChains = 8

// fmaSink keeps the chains' results live so the loop is not eliminated.
var fmaSink [64]float64

// mulAddChains runs fmaChains independent scalar x = x·a + b chains for
// iters iterations: 2 flops per chain per iteration, the operation mix of
// the pure-Go collision kernels.
func mulAddChains(iters int) float64 {
	const a, b = 0.999999, 1e-6
	x0, x1, x2, x3 := 1.0, 1.1, 1.2, 1.3
	x4, x5, x6, x7 := 1.4, 1.5, 1.6, 1.7
	for i := 0; i < iters; i++ {
		x0 = x0*a + b
		x1 = x1*a + b
		x2 = x2*a + b
		x3 = x3*a + b
		x4 = x4*a + b
		x5 = x5*a + b
		x6 = x6*a + b
		x7 = x7*a + b
	}
	return x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7
}
