package main

import (
	"fmt"
	"time"
)

// minRounds is the fewest timed rounds a run makes, however short its
// budget, so every median has samples behind it.
const minRounds = 3

// loop runs round(0) as an untimed warm-up, then round(1), round(2), ...
// until the budget, measured from the call, would be exceeded by one more
// round of the longest length seen so far.
func loop(budget time.Duration, round func(i int)) {
	start := time.Now()
	round(0)
	var longest time.Duration
	for i := 1; i <= minRounds || time.Since(start)+longest <= budget; i++ {
		t0 := time.Now()
		round(i)
		longest = max(longest, time.Since(t0))
	}
}

// measureEndToEnd runs the workload's own configuration back to back with
// the solver's instrumentation off and reports the medians over the timed
// rounds; the warm-up round is checked and counted but not measured. The
// serial baseline runs once before the loop, as the reference every later
// run is checked against, and once after it, warm, as the printed
// mflups_serial. It is not gated: its run-to-run spread on a shared host
// exceeds any usable bound (parallel.mflups_serial and parallel.eff carry
// it in the traced run).
func measureEndToEnd(s *session, budget time.Duration) []metric {
	start := time.Now()
	s.run(s.serial, "serial", -1)
	// The loop's budget leaves out the first serial run, already spent, and
	// the closing one, about as long.
	reserve := 2 * time.Since(start)
	var par, setup, cpu, alloc []float64
	loop(budget-reserve, func(i int) {
		if po := s.run(s.cfg, "workload", -1); i > 0 && po.err == nil {
			par = append(par, po.res.MFlups)
			setup = append(setup, po.setup().Seconds())
			cpu = append(cpu, float64(po.cpu.Nanoseconds())/float64(po.res.InteriorUpdates))
			alloc = append(alloc, float64(po.alloc)/1e6)
		}
	})
	var ser []float64
	if so := s.run(s.serial, "serial", -1); so.err == nil {
		ser = append(ser, so.res.MFlups)
	}
	serial := sampled("mflups_serial", "MFlup/s", ser)
	serial.printOnly = true
	return []metric{
		sampled("mflups", "MFlup/s", par),
		serial,
		sampled("cpu_ns_per_update", "ns", cpu),
		sampled("setup_s", "s", setup),
		sampled("alloc_mb", "MB", alloc),
	}
}

// sampled reports a sample's median with its quartiles and count.
func sampled(name, unit string, xs []float64) metric {
	q1, q3 := quartiles(xs)
	return metric{
		name: name, value: median(xs), unit: unit,
		note: fmt.Sprintf("(median of %d, q1 %.4g, q3 %.4g)", len(xs), q1, q3),
	}
}
