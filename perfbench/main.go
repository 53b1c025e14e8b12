// Command perfbench is the repository's benchmark. It runs one named
// workload through core.Run as a closed loop of back-to-back runs, checks
// every result, and prints each metric by name and unit; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 26, "failed": 0, "metrics": {"mflups": {"value": 9.7, "unit": "MFlup/s"}, ...}}
//
// With -trace 0 it reports the end-to-end metrics, measured with the
// solver's instrumentation off. With -trace 1 it repeats the workload with
// Config.Observe on, runs the layer microbenchmarks and the host roofline
// probe, and reports the per-layer metrics; the spans it recorded around
// each call go to .bench_out/ when it ends.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload cavity64 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // human-readable detail, not part of the JSON
	// printOnly metrics appear in the human-readable lines only.
	printOnly bool
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload name (cavity64, q39slab, bifurcation96)")
	seed := flag.Int64("seed", 1, "seed of the workload's initial perturbation")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d < 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	budget := time.Duration(seconds) * time.Second
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, seed, seconds, trace)
	fmt.Printf("  why: %s\n  exercises: %s\n  bypasses: %s\n", w.why, w.exercises, w.bypasses)

	var s *session
	var ms []metric
	if trace == 0 {
		s = newSession(w, seed, false, nil)
		ms = measureEndToEnd(s, budget)
	} else {
		spans := newSpanLog()
		s = newSession(w, seed, false, spans)
		ms, err = measureLayers(s, budget)
		if err != nil {
			return err
		}
		path := filepath.Join(".bench_out", fmt.Sprintf("%s-seed%d.spans.json", w.name, seed))
		if err := spans.write(path, map[string]any{"workload": w.name, "seed": seed, "seconds": seconds}); err != nil {
			return err
		}
		fmt.Printf("  spans: %d written to %s\n", len(spans.spans), path)
	}
	return report(s, ms)
}

// report prints every metric by name and unit, then the JSON line.
func report(s *session, ms []metric) error {
	out := result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]jsonMetric{}}
	// failed_frac is 0 on a healthy tree, so it is not a gated metric;
	// the JSON's attempted and failed fields carry it.
	ms = append(ms, metric{name: "failed_frac", value: s.failedFrac(), unit: "ratio",
		note: fmt.Sprintf("(%d of %d runs)", s.failed, s.attempted), printOnly: true})
	for _, m := range ms {
		fmt.Printf("  %-34s %14.6g %-8s %s\n", m.name, m.value, m.unit, m.note)
		if !m.printOnly {
			out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	for _, e := range s.errs {
		fmt.Println("  failure:", e)
	}
	buf, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(buf))
	return nil
}
