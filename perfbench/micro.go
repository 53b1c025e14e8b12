package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/collision"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/halo"
	"repro/internal/parallel"
)

// minBatches is the fewest timed batches a microbenchmark makes.
const minBatches = 5

// batchTarget is the shortest batch worth timing: long enough that the
// clock reads and the span add nothing measurable, short enough that a
// budget holds many batches.
const batchTarget = 2 * time.Millisecond

// timeCalls calls fn in batches until the budget is spent (at least
// minBatches), recording one span per batch, and returns the per-call
// seconds of every batch. The batch size doubles from one call until a
// batch lasts batchTarget; those sizing batches are not reported.
func timeCalls(spans *spanLog, name string, parent int, budget time.Duration, fn func()) []float64 {
	return timeBatches(spans, name, parent, budget, fn, func(v []float64) []float64 { return v })
}

// timeBatches is timeCalls with an agreement step after every batch:
// agree turns this caller's {batch seconds, seconds since the start} into
// the values every caller acts on, so ranks that must call fn together
// size, time and stop their batches as one.
func timeBatches(spans *spanLog, name string, parent int, budget time.Duration, fn func(), agree func([]float64) []float64) []float64 {
	batch := func(calls int) float64 {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		return time.Since(t0).Seconds()
	}
	calls := 1
	for agree([]float64{batch(calls), 0})[0] < batchTarget.Seconds() {
		calls *= 2
	}
	run := spans.newRun()
	start := time.Now()
	var per []float64
	for b := 1; ; b++ {
		sp := spans.begin(name, parent, run)
		d := batch(calls)
		spans.end(sp, calls)
		v := agree([]float64{d, time.Since(start).Seconds()})
		per = append(per, v[0]/float64(calls))
		if b >= minBatches && v[1] >= budget.Seconds() {
			return per
		}
	}
}

// decomposition cuts the workload's domain as core.Run does: the same
// rank shape and periodicity, and fluid-weighted cuts under BalanceFluid.
func decomposition(cfg core.Config) (decomp.Cartesian, error) {
	p := cfg.Decomp
	if p == ([3]int{}) {
		p = [3]int{cfg.Ranks, 1, 1}
	}
	global := [3]int{cfg.N.NX, cfg.N.NY, cfg.N.NZ}
	bounded := cfg.Boundary.BoundedAxes()
	if cfg.Balance == core.BalanceFluid && cfg.Solid != nil {
		var weights [3][]int
		for a := 0; a < 3; a++ {
			if p[a] > 1 {
				weights[a] = cfg.Solid.PlaneFluids(a)
			}
		}
		return decomp.NewCartesianWeighted(global, p, bounded, weights)
	}
	return decomp.NewCartesianBounded(global, p, bounded)
}

// haloWidths is the ghost width per axis: ghost depth × the lattice's
// largest speed.
func haloWidths(cfg core.Config) [3]int {
	w := max(cfg.GhostDepth, 1) * cfg.Model.MaxSpeed
	return [3]int{w, w, w}
}

// slabStepper reports whether core.Run takes the periodic slab stepper,
// which exchanges through the 1-D halo exchanger, not CartExchanger: a
// fully periodic 1-D decomposition with uniform ghost depth, two-grid
// streaming and dense traversal.
func slabStepper(cfg core.Config, dec decomp.Cartesian) bool {
	return dec.IsSlab() && cfg.Boundary.BoundedAxes() == ([3]bool{}) &&
		cfg.GhostDepthAxes == ([3]int{}) && cfg.Stream != core.StreamAA && !cfg.Sparse
}

// exchangeMicro times CartExchanger.ExchangeAxis per axis as the box
// stepper calls it: every rank of the workload's decomposition exchanges
// its own local box with the neighbours the workload's topology gives
// it, so an uncut periodic axis is a local wrap and a cut axis sends
// messages. An axis bounded at both ends is a no-op in the program and
// reports 0, as does every axis of a workload on the slab stepper. A
// batch lasts as long as its slowest rank.
func exchangeMicro(spans *spanLog, parent int, cfg core.Config, budget time.Duration) ([3]float64, error) {
	var us [3]float64
	dec, err := decomposition(cfg)
	if err != nil {
		return us, fmt.Errorf("exchange microbenchmark: %w", err)
	}
	if slabStepper(cfg, dec) {
		return us, nil
	}
	top, err := comm.NewCartTopologyBounded(cfg.Ranks, dec.Shape(), dec.Bounded)
	if err != nil {
		return us, fmt.Errorf("exchange microbenchmark: %w", err)
	}
	m, w := cfg.Model, haloWidths(cfg)
	err = comm.NewFabric(cfg.Ranks).Run(func(r *comm.Rank) error {
		var own [3]int
		for a := range own {
			_, own[a] = dec.Own(r.ID, a)
		}
		d := grid.Dims{NX: own[0] + 2*w[0], NY: own[1] + 2*w[1], NZ: own[2] + 2*w[2]}
		nb := top.Neighbors(r.ID)
		ex, err := halo.NewCartExchanger(m.Q, d, own, w, r.ID, nb)
		if err != nil {
			return fmt.Errorf("exchange microbenchmark: %w", err)
		}
		f := grid.NewField(m.Q, d, grid.SoA)
		for v := 0; v < m.Q; v++ {
			row := f.V(v)
			for i := range row {
				row[i] = m.W[v]
			}
		}
		log := spans
		if r.ID != 0 {
			log = nil
		}
		for a := 0; a < 3; a++ {
			// Whether an axis is a no-op depends on the topology alone,
			// so every rank skips the same axes.
			if nb[a] == [2]int{comm.NoNeighbor, comm.NoNeighbor} {
				continue
			}
			per := timeBatches(log, "halo.ExchangeAxis/"+"xyz"[a:a+1], parent, budget/3,
				func() { ex.ExchangeAxis(r, f, a, false) }, r.AllReduceMax)
			if r.ID == 0 {
				us[a] = 1e6 * median(per)
			}
		}
		return nil
	})
	return us, err
}

// pingPong times a 2-rank comm.Rank Send/Recv round trip of the given
// payload. Rank 1 echoes every message; a zero first element tells it the
// echo was the last.
func pingPong(spans *spanLog, parent, floats int, budget time.Duration) (float64, error) {
	const tag, calls = 1, 10
	var per []float64
	run := spans.newRun()
	err := comm.NewFabric(2).Run(func(r *comm.Rank) error {
		buf := make([]float64, max(floats, 1))
		if r.ID == 1 {
			for {
				r.Recv(0, tag, buf)
				r.Send(0, tag, buf)
				if buf[0] == 0 {
					return nil
				}
			}
		}
		start := time.Now()
		for b := 0; ; b++ {
			last := b+1 >= minBatches && time.Since(start) >= budget
			sp := spans.begin("comm.Send+Recv", parent, run)
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				buf[0] = 1
				if last && i == calls-1 {
					buf[0] = 0
				}
				r.Send(1, tag, buf)
				r.Recv(1, tag, buf)
			}
			d := time.Since(t0)
			spans.end(sp, calls)
			per = append(per, d.Seconds()/calls)
			if last {
				return nil
			}
		}
	})
	return 1e6 * median(per), err
}

// dispatchMicro times parallel.Pool.Run over empty chunks at the
// workload's thread count: the pool's fork/join cost alone.
func dispatchMicro(spans *spanLog, parent, threads int, budget time.Duration) float64 {
	pool := parallel.NewPool(threads)
	defer pool.Close()
	chunks := 8 * threads
	per := timeCalls(spans, "parallel.Pool.Run", parent, budget, func() {
		pool.Run(chunks, func(int, int) {})
	})
	return 1e6 * median(per)
}

// relaxRowsMicro times the TRT collision.RowRelaxer on one z-run of the
// workload's length, in nanoseconds per cell.
func relaxRowsMicro(spans *spanLog, parent int, cfg core.Config, budget time.Duration) (float64, error) {
	m := cfg.Model
	op, err := collision.Spec{Kind: collision.TRT}.New(m, cfg.Tau)
	if err != nil {
		return 0, fmt.Errorf("relax microbenchmark: %w", err)
	}
	rr, ok := op.(collision.RowRelaxer)
	if !ok {
		return 0, fmt.Errorf("relax microbenchmark: %s has no RowRelaxer", op.Name())
	}
	n := meanFluidRun(cfg)
	rows := func(scale float64) [][]float64 {
		r := make([][]float64, m.Q)
		for v := range r {
			r[v] = make([]float64, n)
			for z := range r[v] {
				r[v][z] = scale * m.W[v]
			}
		}
		return r
	}
	src, feq, dst := rows(1.01), rows(1), rows(0)
	per := timeCalls(spans, "collision.RelaxRows", parent, budget, func() {
		rr.RelaxRows(dst, src, feq, n)
	})
	return 1e9 * median(per) / float64(n), nil
}

// meanFluidRun is the mean length, rounded, of the workload's contiguous
// fluid z-runs — the rows sparse traversal hands to RelaxRows — or the
// full z extent when the traversal is dense.
func meanFluidRun(cfg core.Config) int {
	if cfg.Solid == nil || !cfg.Sparse {
		return cfg.N.NZ
	}
	var cells, runs int
	for ix := 0; ix < cfg.N.NX; ix++ {
		for iy := 0; iy < cfg.N.NY; iy++ {
			for iz := 0; iz < cfg.N.NZ; iz++ {
				if cfg.Solid.At(ix, iy, iz) {
					continue
				}
				cells++
				if iz == 0 || cfg.Solid.At(ix, iy, iz-1) {
					runs++
				}
			}
		}
	}
	if runs == 0 {
		return cfg.N.NZ
	}
	return max(1, int(math.Round(float64(cells)/float64(runs))))
}
