package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
)

// tolerance is the repo's conservation and cross-decomposition standard:
// relative mass drift, and every conserved sum against the serial
// reference, within 1e-12 of the total mass.
const tolerance = 1e-12

// sumNames labels the conserved sums in failure messages.
var sumNames = [4]string{"mass", "x momentum", "y momentum", "z momentum"}

// outcome is one checked core.Run call as the benchmark saw it from
// outside.
type outcome struct {
	res   *core.Result
	total time.Duration // wall time of the whole core.Run call
	cpu   time.Duration // process user+sys CPU time over the call
	alloc uint64        // runtime TotalAlloc growth over the call
	err   error         // the run's error or the first failed check
}

// setup is the part of the call outside the stepping loop: allocation,
// initialisation, fixup index, row-run table, cuts, pool start and the
// final reduction.
func (o outcome) setup() time.Duration { return o.total - o.res.WallTime }

// session runs one workload's configurations back to back and counts every
// attempted run and every failure, whatever caused it.
type session struct {
	cfg, serial core.Config
	mass0       float64      // total initial density on the fluid cells
	ref         *core.Result // first serial run that passed its own checks
	attempted   int
	failed      int
	errs        []error  // the first few failures, for the report
	spans       *spanLog // nil when tracing is off
	small       bool     // tiny smoke-test sizes, host probe included
}

func newSession(w *workloadDef, seed int64, small bool, spans *spanLog) *session {
	cfg := w.build(seed, small)
	return &session{cfg: cfg, serial: serialConfig(cfg), mass0: initialMass(cfg), spans: spans, small: small}
}

// run executes one configuration, checks the result and accounts for it.
// The garbage collector runs first so one run's garbage is not collected
// inside the next one's timed window.
func (s *session) run(cfg core.Config, label string, parent int) outcome {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	sp := s.spans.begin("core.Run/"+label, parent, s.spans.newRun())
	t0 := time.Now()
	res, err := core.Run(cfg)
	o := outcome{res: res, total: time.Since(t0), err: err}
	s.spans.end(sp, 1)
	o.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	o.alloc = m1.TotalAlloc - m0.TotalAlloc

	if o.err == nil {
		switch {
		case s.ref != nil:
			o.err = checkResult(res, s.mass0, s.ref)
		case cfg.Ranks == 1 && cfg.Threads == 1:
			// The first serial run that passes becomes the reference.
			if o.err = checkResult(res, s.mass0, nil); o.err == nil {
				s.ref = res
			}
		default:
			o.err = fmt.Errorf("no passing serial reference to compare against")
		}
	}
	s.attempted++
	if o.err != nil {
		s.failed++
		if len(s.errs) < 5 {
			s.errs = append(s.errs, fmt.Errorf("%s run: %w", label, o.err))
		}
	}
	return o
}

// checkResult applies the correctness checks every timed run must pass:
// finite conserved sums, relative mass drift within tolerance of the
// initial mass, observed phase time within the wall time, and agreement
// with the serial reference (when given) to tolerance × mass — the repo's
// cross-decomposition invariant.
func checkResult(res *core.Result, mass0 float64, ref *core.Result) error {
	sums := [4]float64{res.Mass, res.MomX, res.MomY, res.MomZ}
	for i, v := range sums {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s is %v", sumNames[i], v)
		}
	}
	if drift := math.Abs(res.Mass-mass0) / mass0; !(drift <= tolerance) {
		return fmt.Errorf("relative mass drift %.3g > %g", drift, tolerance)
	}
	for _, o := range res.Observations {
		// Observed spans never nest, so one rank's phases cannot add up to
		// more than the run's wall time.
		if t := o.Vector().Total(); t > res.WallTime.Seconds() {
			return fmt.Errorf("rank %d phase seconds %.6g exceed wall time %.6g", o.Rank, t, res.WallTime.Seconds())
		}
	}
	if ref == nil {
		return nil
	}
	want := [4]float64{ref.Mass, ref.MomX, ref.MomY, ref.MomZ}
	for i := range sums {
		if d := math.Abs(sums[i] - want[i]); d > tolerance*ref.Mass {
			return fmt.Errorf("%s differs from the serial run by %.3g", sumNames[i], d)
		}
	}
	return nil
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// failedFrac is the share of attempted runs that errored or failed a check.
func (s *session) failedFrac() float64 {
	return ratio(float64(s.failed), float64(s.attempted))
}
