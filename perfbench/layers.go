package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
)

// phaseMetrics maps the Observe recorder's phases to per-layer metric
// names, in milliseconds per step averaged over ranks.
var phaseMetrics = []struct {
	phase obs.Phase
	name  string
}{
	{obs.Interior, "core.interior_ms"},
	{obs.Rim, "core.rim_ms"},
	{obs.Fixup, "core.fixup_ms"},
	{obs.Face, "core.face_ms"},
	{obs.Pack, "halo.pack_ms"},
	{obs.Unpack, "halo.unpack_ms"},
	{obs.Wire, "comm.wire_ms"},
}

// tracedValues derives the per-layer metrics one traced run gives
// directly, keyed by metric name. Per-phase times are the mean over ranks
// of each rank's phase seconds, per step; the compute rate counts every
// cell the kernels updated, deep-halo recompute included, over the
// interior and rim phases, with bytes and flops per cell computed from
// the paper's kernel spec.
func tracedValues(cfg core.Config, res *core.Result) map[string]float64 {
	v := map[string]float64{}
	ranks := float64(len(res.Observations))
	var mean obs.PhaseSeconds
	fluids := make([]int64, 0, len(res.Observations))
	imbalance := 1.0
	for i := range res.Observations {
		o := &res.Observations[i]
		for p, s := range o.Vector() {
			mean[p] += s / ranks
		}
		fluids = append(fluids, o.FluidCells)
		imbalance = max(imbalance, maxOverMin(o.WorkerWeights))
	}
	for _, pm := range phaseMetrics {
		v[pm.name] = perStepMillis(mean[pm.phase], cfg.Steps)
	}
	cells := float64(res.InteriorUpdates + res.GhostUpdates)
	compute := mean[obs.Interior] + mean[obs.Rim]
	spec := machine.SpecForQ(cfg.Model.Q)
	rate := ratio(cells, compute) // cells per second, all ranks
	v["core.interior_ns_per_cell"] = 1e9 * ratio(ranks*compute, cells)
	v["core.interior_gbs_computed"] = rate * spec.BytesPerCell / 1e9
	v["core.interior_gflops_computed"] = rate * spec.FlopsPerCell / 1e9
	v["core.ghost_update_frac"] = ratio(float64(res.GhostUpdates), float64(res.InteriorUpdates))
	var bytes, msgs int64
	for _, r := range res.PerRank {
		bytes += r.BytesSent
		msgs += r.Messages
	}
	v["comm.bytes_per_step"] = float64(bytes) / float64(cfg.Steps)
	v["comm.msgs_per_step"] = float64(msgs) / float64(cfg.Steps)
	v["parallel.worker_imbalance"] = imbalance
	v["decomp.fluid_imbalance"] = maxOverMin(fluids)
	return v
}

// roofline is the paper's Eq. 5 bound in GFlop/s on the measured host:
// the lower of the multiply-add rate and triad bandwidth × flops/byte.
func roofline(h hostCeilings, spec machine.KernelSpec) float64 {
	return min(h.fmaGFlops, h.triadGBs*spec.FlopsPerCell/spec.BytesPerCell)
}

// measureLayers is the traced run: the host probe, then rounds of the
// serial baseline, the untraced workload and the workload with
// Config.Observe on, then the layer microbenchmarks. Every core.Run is
// checked and counted as in the end-to-end run.
func measureLayers(s *session, budget time.Duration) ([]metric, error) {
	start := time.Now()
	workers := s.cfg.Ranks * s.cfg.Threads
	root := s.spans.begin("perfbench", -1, 0)
	defer s.spans.end(root, 0)

	limit := int64(maxProbeArray)
	if s.small {
		limit = 1 << 20
	}
	host := probeHost(s.spans, root, workers, limit, budget/10)
	fmt.Printf("  host probe: %d workers, LLC %d bytes, %d bytes per array, cache-limited %v\n",
		workers, host.llcBytes, host.arrayBytes, host.cacheLimited)
	debug.FreeOSMemory() // return the probe arrays before the solver runs

	traced := s.cfg
	traced.Observe = true
	var ser, plain, obsd []float64
	per := map[string][]float64{}
	var msgFloats int
	loop(budget*3/4-time.Since(start), func(i int) {
		so := s.run(s.serial, "serial", root)
		po := s.run(s.cfg, "workload", root)
		to := s.run(traced, "workload-observed", root)
		if po.err == nil && po.res.PerRank[0].Messages > 0 {
			msgFloats = int(po.res.PerRank[0].BytesSent / po.res.PerRank[0].Messages / 8)
		}
		if i == 0 {
			return
		}
		if so.err == nil {
			ser = append(ser, so.res.MFlups)
		}
		if po.err == nil {
			plain = append(plain, po.res.MFlups)
		}
		if to.err == nil {
			obsd = append(obsd, to.res.MFlups)
			for k, x := range tracedValues(s.cfg, to.res) {
				per[k] = append(per[k], x)
			}
		}
	})

	micro := (budget - time.Since(start)) / 4
	exUs, err := exchangeMicro(s.spans, root, s.cfg, micro)
	if err != nil {
		return nil, err
	}
	if msgFloats == 0 {
		// A single-rank workload sends nothing; use the size of one x face
		// of its local box.
		w := haloWidths(s.cfg)
		msgFloats = s.cfg.Model.Q * w[0] * (s.cfg.N.NY + 2*w[1]) * (s.cfg.N.NZ + 2*w[2])
	}
	pingUs, err := pingPong(s.spans, root, msgFloats, micro)
	if err != nil {
		return nil, err
	}
	dispatchUs := dispatchMicro(s.spans, root, s.cfg.Threads, micro)
	relaxNs, err := relaxRowsMicro(s.spans, root, s.cfg, micro)
	if err != nil {
		return nil, err
	}

	v := map[string]float64{}
	for k, xs := range per {
		v[k] = median(xs)
	}
	spec := machine.SpecForQ(s.cfg.Model.Q)
	v["core.roofline_frac"] = ratio(v["core.interior_gflops_computed"], roofline(host, spec))
	v["halo.exchange_us.x"], v["halo.exchange_us.y"], v["halo.exchange_us.z"] = exUs[0], exUs[1], exUs[2]
	v["comm.pingpong_us"] = pingUs
	v["parallel.dispatch_us"] = dispatchUs
	v["parallel.mflups_serial"] = median(ser)
	v["parallel.eff"] = ratio(median(plain), float64(workers)*median(ser))
	v["collision.relax_rows_ns_per_cell"] = relaxNs
	v["obs.overhead_frac"] = 1 - ratio(median(obsd), median(plain))
	v["machine.copy_gbs"], v["machine.triad_gbs"], v["machine.fma_gflops"] = host.copyGBs, host.triadGBs, host.fmaGFlops

	ms := make([]metric, 0, len(layerUnits))
	for _, lu := range layerUnits {
		ms = append(ms, metric{name: lu.name, value: v[lu.name], unit: lu.unit})
	}
	fmt.Printf("  rounds: %d serial, %d untraced, %d traced; halo message %d floats\n", len(ser), len(plain), len(obsd), msgFloats)
	return ms, nil
}

// layerUnits lists every per-layer metric in report order with its unit.
var layerUnits = []struct{ name, unit string }{
	{"core.interior_ms", "ms"},
	{"core.rim_ms", "ms"},
	{"core.interior_ns_per_cell", "ns"},
	{"core.interior_gbs_computed", "GB/s"},
	{"core.interior_gflops_computed", "GFlop/s"},
	{"core.roofline_frac", "ratio"},
	{"core.fixup_ms", "ms"},
	{"core.face_ms", "ms"},
	{"core.ghost_update_frac", "ratio"},
	{"halo.pack_ms", "ms"},
	{"halo.unpack_ms", "ms"},
	{"halo.exchange_us.x", "us"},
	{"halo.exchange_us.y", "us"},
	{"halo.exchange_us.z", "us"},
	{"comm.wire_ms", "ms"},
	{"comm.bytes_per_step", "B"},
	{"comm.msgs_per_step", "count"},
	{"comm.pingpong_us", "us"},
	{"parallel.dispatch_us", "us"},
	{"parallel.worker_imbalance", "ratio"},
	{"parallel.mflups_serial", "MFlup/s"},
	{"parallel.eff", "ratio"},
	{"collision.relax_rows_ns_per_cell", "ns"},
	{"decomp.fluid_imbalance", "ratio"},
	{"obs.overhead_frac", "ratio"},
	{"machine.copy_gbs", "GB/s"},
	{"machine.triad_gbs", "GB/s"},
	{"machine.fma_gflops", "GFlop/s"},
}
