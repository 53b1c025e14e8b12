package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/collision"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lattice"
)

// workloadDef is one named benchmark input: the reason it is in the set,
// the layers it does and does not exercise, and a function that turns a seed
// into the solver configuration. Every workload is a closed loop of
// back-to-back core.Run calls from one process on at most two workers.
type workloadDef struct {
	name string
	// why is the one-sentence reason the workload was chosen.
	why string
	// exercises and bypasses name the layers (module names) the workload
	// does and does not stress.
	exercises, bypasses string
	// build returns the configuration for one seed; small selects a tiny
	// domain with the same code paths, for the smoke tests.
	build func(seed int64, small bool) core.Config
}

var workloads = []workloadDef{
	{
		name: "cavity64",
		why: "single-rank bounded box stepper where the kernels and the thread pool do the work; " +
			"its self-wrap pack/unpack is the first halo target and it has no wire traffic",
		exercises: "core (box stepper, BGK SIMD kernels, lid/wall fixups), halo (self-wrap), parallel (2 threads), obs",
		bypasses:  "comm (1 rank, no messages), collision (BGK uses the specialized kernels), decomp (one block)",
		build:     cavityConfig,
	},
	{
		name: "q39slab",
		why: "the paper's beyond-Navier-Stokes D3Q39 lattice on the periodic slab stepper, " +
			"with k=3 six-plane messages under GC-C overlap and 6.25% deep-halo recompute",
		exercises: "core (slab stepper, D3Q39 BGK SIMD kernels, ghost recompute), halo, comm (2 ranks), obs",
		bypasses:  "parallel (1 thread), collision (BGK), fixups and faces (fully periodic), decomp balance",
		build:     q39SlabConfig,
	},
	{
		name: "bifurcation96",
		why: "masked arterial traffic: ~95%-solid faces make halo pack/unpack dominate, " +
			"with the TRT row relaxer, bounce-back fixups, fluid-balanced cuts and the largest relative set-up",
		exercises: "core (sparse box stepper, bounce-back fixups), collision (TRT RelaxRows), halo, comm (2 ranks), decomp (BalanceFluid), obs",
		bypasses:  "parallel (1 thread), ghost recompute (depth 1)",
		build:     bifurcationConfig,
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// perturbation is the seeded part of a workload's input: a phase per axis
// and an amplitude scale, so a seed changes the initial field but never the
// amount of work.
type perturbation struct {
	phase [3]float64
	amp   float64 // in [0.9, 1.1)
}

func newPerturbation(seed int64) perturbation {
	rng := rand.New(rand.NewSource(seed))
	var p perturbation
	for a := range p.phase {
		p.phase[a] = 2 * math.Pi * rng.Float64()
	}
	p.amp = 0.9 + 0.2*rng.Float64()
	return p
}

// wave returns sin(2π·i/n + phase[axis]).
func (p perturbation) wave(axis, i, n int) float64 {
	return math.Sin(2*math.Pi*float64(i)/float64(n) + p.phase[axis])
}

// density is 1 plus a seeded product of sines of relative size amp·eps.
func (p perturbation) density(n grid.Dims, ix, iy, iz int, eps float64) float64 {
	return 1 + eps*p.amp*p.wave(0, ix, n.NX)*p.wave(1, iy, n.NY)*p.wave(2, iz, n.NZ)
}

func scaled(small bool, full, tiny grid.Dims) grid.Dims {
	if small {
		return tiny
	}
	return full
}

// cavityConfig is the D3Q19 lid-driven cavity at Re=100 on 1 rank × 2
// threads, BGK at the SIMD level with two-grid streaming.
func cavityConfig(seed int64, small bool) core.Config {
	const lidU, re = 0.1, 100.0
	m := lattice.D3Q19()
	n := scaled(small, grid.Dims{NX: 64, NY: 64, NZ: 64}, grid.Dims{NX: 12, NY: 12, NZ: 12})
	p := newPerturbation(seed)
	return core.Config{
		Model: m, N: n, Tau: m.TauForViscosity(lidU * float64(n.NY) / re),
		Boundary: core.CavitySpec(lidU), Opt: core.OptSIMD,
		Ranks: 1, Threads: 2, Steps: 20,
		Init: func(ix, iy, iz int) (float64, float64, float64, float64) {
			return p.density(n, ix, iy, iz, 1e-3), 0, 0, 0
		},
	}
}

// q39SlabConfig is a D3Q39 periodic shear wave on a 2-rank slab with ghost
// depth 2 (6-plane halos), BGK at the SIMD level (GC-C overlap).
func q39SlabConfig(seed int64, small bool) core.Config {
	m := lattice.D3Q39()
	n := scaled(small, grid.Dims{NX: 96, NY: 32, NZ: 32}, grid.Dims{NX: 24, NY: 8, NZ: 8})
	p := newPerturbation(seed)
	return core.Config{
		Model: m, N: n, Tau: 0.8, Opt: core.OptSIMD,
		Ranks: 2, Threads: 1, GhostDepth: 2, Steps: 20,
		Init: func(ix, iy, iz int) (float64, float64, float64, float64) {
			ux := 0.01 * p.amp * p.wave(1, iy, n.NY)
			return p.density(n, ix, iy, iz, 1e-3), ux, 0, 0
		},
	}
}

// bifurcationConfig is the D3Q19 Y-shaped vessel mask under TRT with a
// small body acceleration along x, fluid-balanced cuts and sparse row-run
// traversal on 2 ranks × 1 thread.
func bifurcationConfig(seed int64, small bool) core.Config {
	m := lattice.D3Q19()
	n := scaled(small, grid.Dims{NX: 96, NY: 48, NZ: 48}, grid.Dims{NX: 24, NY: 16, NZ: 16})
	p := newPerturbation(seed)
	steps := 100
	if small {
		steps = 10
	}
	return core.Config{
		Model: m, N: n, Tau: 0.8, Opt: core.OptSIMD,
		Collision: collision.Spec{Kind: collision.TRT},
		Solid:     geom.Bifurcation(n, 0.1*float64(n.NY)),
		Balance:   core.BalanceFluid, Sparse: true,
		Accel: [3]float64{1e-5, 0, 0},
		Ranks: 2, Threads: 1, Steps: steps,
		Init: func(ix, iy, iz int) (float64, float64, float64, float64) {
			return p.density(n, ix, iy, iz, 1e-3), 0, 0, 0
		},
	}
}

// serialConfig is the same problem as 1 rank × 1 thread: the plain
// single-threaded baseline and the reference the cross-decomposition
// check compares against.
func serialConfig(cfg core.Config) core.Config {
	cfg.Ranks, cfg.Threads, cfg.Decomp = 1, 1, [3]int{}
	return cfg
}

// initialMass is the total density the seeded initial condition puts on
// the fluid cells — the reference for the mass-drift check.
func initialMass(cfg core.Config) float64 {
	var sum float64
	n := cfg.N
	for ix := 0; ix < n.NX; ix++ {
		for iy := 0; iy < n.NY; iy++ {
			for iz := 0; iz < n.NZ; iz++ {
				if cfg.Solid != nil && cfg.Solid.At(ix, iy, iz) {
					continue
				}
				rho, _, _, _ := cfg.Init(ix, iy, iz)
				sum += rho
			}
		}
	}
	return sum
}
