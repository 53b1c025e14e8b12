package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/obs"
)

func goodResult() *core.Result {
	return &core.Result{WallTime: time.Second, Mass: 1000, MomX: 0.5, MomY: -0.25, MomZ: 1e-14}
}

func TestCheckResult(t *testing.T) {
	ref := goodResult()
	if err := checkResult(goodResult(), 1000, ref); err != nil {
		t.Fatalf("good result rejected: %v", err)
	}
	bad := map[string]func(r *core.Result){
		"nan mass":      func(r *core.Result) { r.Mass = math.NaN() },
		"inf momentum":  func(r *core.Result) { r.MomY = math.Inf(1) },
		"mass drift":    func(r *core.Result) { r.Mass = 1000 * (1 + 1e-11) },
		"momentum diff": func(r *core.Result) { r.MomZ = 2e-9 },
		"phases exceed wall time": func(r *core.Result) {
			r.Observations = []obs.RankObservation{{Phases: []obs.PhaseObs{
				{Phase: "interior", Axis: -1, Seconds: 0.8},
				{Phase: "wire", Axis: 0, Seconds: 0.3},
			}}}
		},
	}
	for name, spoil := range bad {
		r := goodResult()
		spoil(r)
		if err := checkResult(r, 1000, ref); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Without a reference only the run's own checks apply.
	r := goodResult()
	r.MomX = 7
	if err := checkResult(r, 1000, nil); err != nil {
		t.Errorf("no reference: %v", err)
	}
}

// Every way a run can go wrong counts into failed_frac: a run before any
// serial reference exists, a run that returns an error, and a run whose
// result fails a check.
func TestSessionCountsFailures(t *testing.T) {
	w, err := workloadByName("cavity64")
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(w, 1, true, nil)
	s.run(s.cfg, "workload", -1) // no serial reference yet
	broken := s.serial
	broken.Tau = 0.4 // core.Run rejects τ ≤ ½
	s.run(broken, "broken", -1)
	s.mass0 *= 2 // forced-bad: every result now drifts from the initial mass
	s.run(s.serial, "serial", -1)
	if s.attempted != 3 || s.failed != 3 || s.ref != nil {
		t.Fatalf("attempted %d failed %d ref %v; want 3, 3, nil", s.attempted, s.failed, s.ref)
	}
	if got := s.failedFrac(); got != 1 {
		t.Errorf("failedFrac = %v, want 1", got)
	}
	if len(s.errs) != 3 {
		t.Errorf("kept %d failure messages, want 3", len(s.errs))
	}

	s = newSession(w, 1, true, nil)
	s.run(s.serial, "serial", -1)
	s.run(s.cfg, "workload", -1)
	if s.attempted != 2 || s.failed != 0 || s.ref == nil {
		t.Fatalf("healthy session: attempted %d failed %d (%v)", s.attempted, s.failed, s.errs)
	}
}

func TestTracedValuesMapsPhases(t *testing.T) {
	cfg := core.Config{Model: lattice.D3Q19(), Steps: 10}
	res := &core.Result{
		InteriorUpdates: 1000, GhostUpdates: 100,
		PerRank: []core.RankStats{{BytesSent: 800, Messages: 4}, {BytesSent: 1200, Messages: 6}},
		Observations: []obs.RankObservation{
			{Phases: []obs.PhaseObs{
				{Phase: "interior", Axis: -1, Seconds: 0.2},
				{Phase: "rim", Axis: 0, Seconds: 0.05},
				{Phase: "pack", Axis: 0, Seconds: 0.01},
				{Phase: "pack", Axis: 1, Seconds: 0.01},
				{Phase: "wire", Axis: 0, Seconds: 0.02},
				{Phase: "fixup", Axis: -1, Seconds: 0.03},
			}, FluidCells: 600, WorkerWeights: []int64{10, 20}},
			{Phases: []obs.PhaseObs{
				{Phase: "interior", Axis: -1, Seconds: 0.4},
				{Phase: "rim", Axis: 0, Seconds: 0.15},
				{Phase: "unpack", Axis: 0, Seconds: 0.06},
			}, FluidCells: 400},
		},
	}
	v := tracedValues(cfg, res)
	compute := 0.4 // mean over ranks of interior + rim seconds
	rate := 1100 / compute
	want := map[string]float64{
		"core.interior_ms":              30, // mean 0.3 s over 10 steps
		"core.rim_ms":                   10,
		"core.fixup_ms":                 1.5,
		"core.face_ms":                  0,
		"halo.pack_ms":                  1,
		"halo.unpack_ms":                3,
		"comm.wire_ms":                  1,
		"core.interior_ns_per_cell":     1e9 * 2 * compute / 1100,
		"core.interior_gbs_computed":    rate * 456 / 1e9,
		"core.interior_gflops_computed": rate * 178 / 1e9,
		"core.ghost_update_frac":        0.1,
		"comm.bytes_per_step":           200,
		"comm.msgs_per_step":            1,
		"parallel.worker_imbalance":     2,
		"decomp.fluid_imbalance":        1.5,
	}
	for k, x := range want {
		if got, ok := v[k]; !ok || !near(got, x) {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, x)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func checkNames(t *testing.T, label string, all []metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var got []metric
	for _, m := range all {
		if !m.printOnly {
			got = append(got, m)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d metrics, BENCHMARK.json lists %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
			t.Errorf("%s metric %d: %s [%s], BENCHMARK.json has %s [%s]",
				label, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
		}
	}
}

// A tiny-size run of every workload, untraced and traced, so the harness
// cannot rot: each must pass every check and report exactly the metrics
// BENCHMARK.json declares.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why == "" || strings.Contains(w.why, "\n") {
			t.Errorf("workload %d: program %q, BENCHMARK.json %q", i, w.name, spec.Workloads[i].Name)
		}
		t.Run(w.name, func(t *testing.T) {
			s := newSession(&workloads[i], 7, true, nil)
			ms := measureEndToEnd(s, 0)
			if s.failed != 0 || s.attempted < minRounds+2 {
				t.Fatalf("end-to-end: attempted %d failed %d: %v", s.attempted, s.failed, s.errs)
			}
			checkNames(t, "end-to-end", ms, spec.EndToEnd)
			for _, m := range ms {
				if !(m.value > 0) {
					t.Errorf("%s = %v, want > 0", m.name, m.value)
				}
			}

			s = newSession(&workloads[i], 7, true, newSpanLog())
			ms, err := measureLayers(s, 50*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if s.failed != 0 {
				t.Fatalf("traced: attempted %d failed %d: %v", s.attempted, s.failed, s.errs)
			}
			checkNames(t, "per-layer", ms, spec.PerLayer)
			for _, m := range ms {
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s = %v", m.name, m.value)
				}
			}
			if len(s.spans.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// The same seed gives the same inputs; another seed gives other inputs
// but the same amount of work.
func TestSeededInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.build(3, true), w.build(3, true), w.build(4, true)
		ra, _, _, _ := a.Init(1, 2, 3)
		rb, _, _, _ := b.Init(1, 2, 3)
		rc, _, _, _ := c.Init(1, 2, 3)
		if ra != rb || ra == rc {
			t.Errorf("%s: seed 3 gives %v and %v, seed 4 %v", w.name, ra, rb, rc)
		}
		if a.N != c.N || a.Steps != c.Steps {
			t.Errorf("%s: the seed changed the problem size", w.name)
		}
	}
	if _, err := workloadByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// The exchange microbenchmark times only the axes the workload's stepper
// exchanges: the cavity's walled x and y are no-ops, its periodic z wraps;
// the bifurcation's cut x sends messages between its two ranks; the slab
// workload never calls CartExchanger.
func TestExchangeAxesFollowTopology(t *testing.T) {
	want := map[string][3]bool{
		"cavity64":      {false, false, true},
		"q39slab":       {false, false, false},
		"bifurcation96": {true, true, true},
	}
	for _, w := range workloads {
		us, err := exchangeMicro(nil, -1, w.build(1, true), time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for a, timed := range want[w.name] {
			if (us[a] > 0) != timed {
				t.Errorf("%s axis %d: %v us, want timed=%v", w.name, a, us[a], timed)
			}
		}
	}
}

// RelaxRows is timed on the workload's mean fluid z-run under sparse
// traversal and on the full z extent otherwise.
func TestMeanFluidRun(t *testing.T) {
	cav := cavityConfig(1, true)
	if got := meanFluidRun(cav); got != cav.N.NZ {
		t.Errorf("cavity: %d, want NZ %d", got, cav.N.NZ)
	}
	bif := bifurcationConfig(1, false)
	if got := meanFluidRun(bif); got < 1 || got >= bif.N.NZ/2 {
		t.Errorf("bifurcation: mean fluid run %d of NZ %d", got, bif.N.NZ)
	}
	bif.Sparse = false
	if got := meanFluidRun(bif); got != bif.N.NZ {
		t.Errorf("dense bifurcation: %d, want NZ %d", got, bif.N.NZ)
	}
}
