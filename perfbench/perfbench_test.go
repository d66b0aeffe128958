package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"pathfinder/internal/core"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestScaleToRef(t *testing.T) {
	nominal := refNominal.Seconds()
	cases := []struct {
		raw, refTotal float64
		slices        int
		want          float64
	}{
		{10, 4 * nominal, 4, 10},       // slices at nominal speed: unchanged
		{10, 4 * 2 * nominal, 4, 5},    // host twice as slow: half the seconds
		{10, 3 * 0.5 * nominal, 3, 20}, // host twice as fast: double
		{10, 0, 0, 10},                 // no slices: raw
	}
	for _, c := range cases {
		if got := scaleToRef(c.raw, c.refTotal, c.slices); !near(got, c.want) {
			t.Errorf("scaleToRef(%v, %v, %d) = %v, want %v", c.raw, c.refTotal, c.slices, got, c.want)
		}
	}
	p := phase{raw: 9 * time.Second, cpu: 6 * time.Second, refDur: 2 * refNominal * 3, slices: []float64{1, 1, 1}}
	if got := p.scaledS(); !near(got, 3) {
		t.Errorf("phase.scaledS = %v, want 3", got)
	}
	if got := p.slowdown(); !near(got, 2) {
		t.Errorf("phase.slowdown = %v, want 2", got)
	}
}

// The sampler's slices, taken on its own thread while this goroutine
// works, reach the phase once it finishes, and their CPU time is not
// charged to the work.
func TestSamplerChargesPhase(t *testing.T) {
	var p phase
	s := startSampler(newRefKernel(), time.Millisecond)
	p.smp = s
	for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); {
		p.timed(func() { time.Sleep(time.Millisecond) })
	}
	s.finish(&p)
	if len(p.slices) < 2 || p.refDur <= 0 {
		t.Fatalf("sampler charged %d slices, %v", len(p.slices), p.refDur)
	}
	// The sampler ran slices nearly back to back for 100 ms; the work only
	// slept.  A slice still running as a sleep ends is charged to it.
	if sampled := p.refDur - p.refDur/time.Duration(len(p.slices)); p.cpu >= sampled/2 {
		t.Errorf("work charged %v of CPU time beside %v of sampler slices", p.cpu, sampled)
	}
	if got := p.scaledS(); !(got > 0) {
		t.Errorf("scaled seconds %v", got)
	}
}

// The seed permutes fig-suite's experiments, keeping sweep last.
func TestFigOrder(t *testing.T) {
	orders := map[string]bool{}
	for seed := uint64(1); seed <= 10; seed++ {
		seen := map[string]bool{}
		key := ""
		for _, e := range figOrder(seed) {
			seen[e.name] = true
			key += e.name + " "
		}
		if got := figOrder(seed); len(got) != len(figExps) || len(seen) != len(figExps) || got[len(got)-1].name != "sweep" {
			t.Errorf("seed %d: order %s, want a permutation of all %d experiments ending in sweep", seed, key, len(figExps))
		}
		orders[key] = true
	}
	if len(orders) < 2 {
		t.Error("every seed gives the same order")
	}
}

// The expected quartiles are statistics.quantiles(xs, n=4) from Python.
func TestMedianQuartiles(t *testing.T) {
	cases := []struct {
		xs        []float64
		med       float64
		q1, q3    float64
		spreadPct float64
	}{
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75, 100},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25, 100},
		{[]float64{1, 2, 3, 4, 5}, 3, 1.5, 4.5, 100},
		{[]float64{7, 7}, 7, 7, 7, 0},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); !near(m, c.med) || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("%v: median %v quartiles (%v, %v), want %v (%v, %v)", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
		if s := spreadPct(c.xs); !near(s, c.spreadPct) {
			t.Errorf("%v: spread %v%%, want %v%%", c.xs, s, c.spreadPct)
		}
	}
	if xs := []float64{3, 1, 2}; median(xs) != 2 || xs[0] != 3 {
		t.Error("median must not reorder its input")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "epoch", Parent: -1, Start: 0, End: 100},
		{Name: "sim.run", Parent: 0, Start: 10, End: 30},
		{Name: "core.capture", Parent: 0, Start: 20, End: 50},  // overlaps its sibling
		{Name: "core.analyze", Parent: 0, Start: 90, End: 120}, // runs past the parent
		{Name: "sim.run", Parent: -1, Start: 200, End: 210},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"epoch": 50, "sim.run": 30, "core.capture": 30, "core.analyze": 30}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, self[name], d)
		}
	}

	var off *tracer
	off.end(off.begin("x", 0)) // tracing off: no-ops
	tr := newTracer()
	outer := tr.begin("epoch", 1)
	inner := tr.begin("sim.run", 1)
	tr.endSim(inner, 1000, 10)
	tr.end(outer)
	if tr.spans[1].Parent != 0 || tr.spans[1].Cycles != 1000 || tr.spans[0].Parent != -1 {
		t.Errorf("nesting not recorded: %+v", tr.spans)
	}
}

func TestFidelityFormula(t *testing.T) {
	qr := func(lfb, flex, dimm float64) *core.QueueReport {
		r := &core.QueueReport{}
		// Read paths are summed; DWr must be ignored.
		r.Q[core.PathDRd][core.CompLFB] = lfb
		r.Q[core.PathHWPF][core.CompFlexBusMC] = flex / 2
		r.Q[core.PathRFO][core.CompFlexBusMC] = flex / 2
		r.Q[core.PathDRd][core.CompCXLDIMM] = dimm
		r.Q[core.PathDWr][core.CompCXLDIMM] = 99
		return r
	}
	meas := func(lfb, flex, dimm float64) [core.CompCount]float64 {
		var q [core.CompCount]float64
		q[core.CompLFB], q[core.CompFlexBusMC], q[core.CompCXLDIMM] = lfb, flex, dimm
		return q
	}
	var f fidelity
	// Device estimates sum to 12 (flex) and 3 (dimm) against 10 and 4.
	f.add([]*core.QueueReport{qr(11, 8, 1), qr(2, 4, 2)},
		[][core.CompCount]float64{meas(10, 10, 4), meas(4, 10, 4)})
	// A zero measurement is skipped, not divided by.
	f.add([]*core.QueueReport{qr(1, 0, 0), qr(1, 0, 0)},
		[][core.CompCount]float64{meas(0, 0, 0), meas(2, 0, 0)})
	l := map[string]float64{}
	f.report(l)
	lfb := (10.0 + 50 + 50) / 3 // |11-10|/10, |2-4|/4, |1-2|/2
	flex, dimm := 20.0, 25.0
	want := map[string]float64{
		"core.lfb_err_pct":     lfb,
		"core.flexbus_err_pct": flex,
		"core.dimm_err_pct":    dimm,
		"core.queue_err_pct":   (lfb + flex + dimm) / 3,
		// Culprits: app 0 est LFB 11 vs flex 12 -> flex, measured flex 10
		// ties LFB 10 -> LFB (first wins): miss.  App 1: est flex, meas
		// flex: match.  Second epoch: est LFB (1 vs 0, 0), measured LFB
		// for app 1 (2), all-zero ties -> LFB for app 0: both match.
		"core.culprit_match_pct": 75,
	}
	for k, v := range want {
		if !near(l[k], v) {
			t.Errorf("%s = %v, want %v", k, l[k], v)
		}
	}
}

// A short fixed profile-mix run scores the profiler identically twice,
// with finite errors and a culprit share in range.
func TestFidelityShortRun(t *testing.T) {
	run := func() (*mixPass, *result) {
		res := newResult()
		p, err := runMixPass(options{seed: 3}, mixSweepLanes, 3, 1, nil, nil, res)
		if err != nil {
			t.Fatal(err)
		}
		return p, res
	}
	a, res := run()
	b, _ := run()
	if res.attempted != 3*len(mixApps) || res.failed != 0 {
		t.Fatalf("attempted %d failed %d (%v)", res.attempted, res.failed, res.problems)
	}
	la, lb := map[string]float64{}, map[string]float64{}
	a.fid.report(la)
	b.fid.report(lb)
	for k, v := range la {
		if v != lb[k] {
			t.Errorf("%s differs between identical runs: %v vs %v", k, v, lb[k])
		}
	}
	if q := la["core.queue_err_pct"]; !(q > 0) || !finite(q) {
		t.Errorf("queue_err_pct = %v", q)
	}
	if !near(la["core.queue_err_pct"], (la["core.lfb_err_pct"]+la["core.flexbus_err_pct"]+la["core.dimm_err_pct"])/3) {
		t.Error("queue_err_pct is not the mean of the component errors")
	}
	if c := la["core.culprit_match_pct"]; c < 0 || c > 100 {
		t.Errorf("culprit_match_pct = %v", c)
	}
	if a.dig.hex() != b.dig.hex() {
		t.Error("PMU digest differs between identical runs")
	}
}

// Each workload runs traced end to end, checks its outputs, and fills
// every metric it declares.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := run(options{seed: defaultSeed, seconds: 1, trace: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Fatalf("attempted %d failed %d: %v", res.attempted, res.failed, res.problems)
			}
			for _, d := range endToEnd {
				if d.name != "peak_rss_mb" && !(res.e2e[d.name] > 0) {
					t.Errorf("%s = %v, want > 0", d.name, res.e2e[d.name])
				}
			}
			if res.layer["trace.spans"] == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// BENCHMARK.json declares the metrics this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Work {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
