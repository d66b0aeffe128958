// Command perfbench is the repository's end-to-end benchmark.  It runs one
// workload in-process through the public APIs, checks its outputs, and
// prints every metric by name and unit; the last line of its output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) repeat the untraced pass, run a traced one, and report the
// per-layer metrics.  README.md beside this file defines every metric.
//
//	python3 perfbench/run.py --workload cxl-stream --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

const (
	// defaultSeed is the seed runs use unless told otherwise.
	defaultSeed = 1
	// heldOutSeed is kept out of tuning, so a claim made on other seeds
	// can be re-checked on it.
	heldOutSeed = 1009
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of untraced runs, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"heap_live_mb", "MiB"},
}

// perLayer are the metrics of traced runs, reported on every workload; a
// layer the workload does not enter reads 0.
var perLayer = []metricDef{
	{"sim.mcycles_per_s", "Mcycles/s"},
	{"sim.run_ns_per_kcycle", "ns"},
	{"sim.run_ns_per_op", "ns"},
	{"sim.inline_steps_per_kcycle", "count"},
	{"sim.dispatched_events_per_kcycle", "count"},
	{"sim.pending_events", "count"},
	{"sim.windows_per_mcycle", "count"},
	{"sim.window_span_p50_cycles", "cycles"},
	{"sim.build_ms", "ms"},
	{"sim.warm_ns_per_kcycle", "ns"},
	{"sim.auto_lanes_slowdown_x", "x"},
	{"sim.ipc", "inst/cycle"},
	{"sim.l1d_hit_pct", "%"},
	{"sim.llc_hit_pct", "%"},
	{"sim.sb_stall_pct", "%"},
	{"cxl.read_lat_ns", "ns"},
	{"cxl.gbps", "GB/s"},
	{"cxl.flexbus_queue", "entries"},
	{"cxl.dimm_queue", "entries"},
	{"obs.flight_records_per_kcycle", "count"},
	{"obs.flight_promoted", "count"},
	{"core.capture_us", "us"},
	{"core.pathmap_us", "us"},
	{"core.estimate_us", "us"},
	{"core.analyze_us", "us"},
	{"core.snapshot_pool_hit_pct", "%"},
	{"core.queue_err_pct", "%"},
	{"core.culprit_match_pct", "%"},
	{"core.lfb_err_pct", "%"},
	{"core.flexbus_err_pct", "%"},
	{"core.dimm_err_pct", "%"},
	{"tsdb.record_us", "us"},
	{"tsdb.locality_ms", "ms"},
	{"experiments.fig78_s", "s"},
	{"experiments.fig910_s", "s"},
	{"experiments.fig11_s", "s"},
	{"experiments.fig12_s", "s"},
	{"experiments.faults_s", "s"},
	{"experiments.sweep_s", "s"},
	{"experiments.pool_busy_pct", "%"},
	{"experiments.checkpoint_forks", "count"},
	{"experiments.checkpoint_image_mb", "MiB"},
	{"runtime.alloc_mb", "MiB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"host.raw_setup_s", "s"},
	{"host.raw_cpu_s", "s"},
	{"host.raw_wall_s", "s"},
	{"host.raw_sim_mcycles_per_s", "Mcycles/s"},
	{"host.ref_slowdown_x", "x"},
	{"host.ref_iqr_pct", "%"},
	{"host.steal_s", "s"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

var workloads = map[string]func(options) (*result, error){
	"cxl-stream":  runCXLStream,
	"profile-mix": runProfileMix,
	"fig-suite":   runFigSuite,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: cxl-stream, profile-mix or fig-suite")
	seed := flag.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (default %d; %d is held out of tuning)", defaultSeed, heldOutSeed))
	seconds := flag.Int("seconds", 20, "run length: scales the measured phase's fixed work")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	outDir := flag.String("trace-out", ".bench_build/perfbench", "directory a traced run writes its spans to")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v), -seconds >= 1 and -trace 0 or 1\n", names)
		os.Exit(2)
	}
	steal0 := stealSeconds()
	res, err := run(options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if _, ok := res.e2e["peak_rss_mb"]; !ok {
		res.e2e["peak_rss_mb"] = peakRSSMB()
	}
	res.layer["host.steal_s"] = stealSeconds() - steal0

	for _, d := range res.lines {
		fmt.Println(d)
	}
	for _, p := range res.problems {
		fmt.Println("FAILED:", p)
	}
	defs, vals := endToEnd, res.e2e
	if *trace == 1 {
		defs, vals = perLayer, res.layer
	}
	out := summary{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	out.Correct = res.failed == 0 && res.attempted > 0
	for _, d := range defs {
		v := vals[d.name]
		if !finite(v) {
			fmt.Printf("FAILED: %s is %v\n", d.name, v)
			out.Correct, v = false, 0
		}
		fmt.Printf("%-36s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
