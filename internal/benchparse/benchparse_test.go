package benchparse

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: pathfinder
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimCXLStream-8   	  300000	       992.9 ns/op	      43 B/op	       1 allocs/op
BenchmarkCaptureSnapshot-8	    9337	    125968 ns/op	    2906 B/op	      88 allocs/op
BenchmarkEpochLoop-8      	   53414	     22706 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	pathfinder	15.294s
`

func parseSample(t *testing.T) *Doc {
	t.Helper()
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestParse(t *testing.T) {
	doc := parseSample(t)
	if doc.GoOS != "linux" || doc.GoArch != "amd64" || doc.Pkg != "pathfinder" {
		t.Fatalf("header: %+v", doc)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks", len(doc.Benchmarks))
	}
	b := doc.Find("BenchmarkSimCXLStream")
	if b == nil {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if b.Iterations != 300000 || b.Metrics["ns/op"] != 992.9 || b.Metrics["allocs/op"] != 1 {
		t.Fatalf("parsed: %+v", b)
	}
	if b.SimOpsSec < 1e6 || b.SimOpsSec > 1.1e6 {
		t.Fatalf("sim_ops_per_sec = %v", b.SimOpsSec)
	}
	if doc.Find("BenchmarkMissing") != nil {
		t.Fatal("Find invented a benchmark")
	}
}

func TestParseCapturesGoMaxProcs(t *testing.T) {
	doc := parseSample(t)
	if doc.GoMaxProcs != 8 {
		t.Fatalf("GoMaxProcs = %d, want 8 (from the -8 name suffix)", doc.GoMaxProcs)
	}

	// go test omits the suffix entirely when GOMAXPROCS is 1.
	doc, err := Parse(strings.NewReader("BenchmarkSimCXLStream   300000   992.9 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GoMaxProcs != 1 {
		t.Fatalf("suffixless GoMaxProcs = %d, want 1", doc.GoMaxProcs)
	}

	// No benchmark lines at all: the run's GOMAXPROCS is unknown, not 1.
	doc, err = Parse(strings.NewReader("goos: linux\n"))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GoMaxProcs != 0 {
		t.Fatalf("empty-run GoMaxProcs = %d, want 0", doc.GoMaxProcs)
	}
}

func TestLaneMismatch(t *testing.T) {
	base := &Doc{GoMaxProcs: 8}
	cur := &Doc{GoMaxProcs: 8}
	if err := LaneMismatch(base, cur); err != nil {
		t.Fatalf("matching configs refused: %v", err)
	}

	if err := LaneMismatch(base, &Doc{GoMaxProcs: 1}); err == nil {
		t.Fatal("GOMAXPROCS 8 vs 1 accepted")
	}

	// A committed snapshot from before the window scheduler went still
	// carries "lanes": "auto"; it must load and gate like any other.
	old, err := ReadDoc("../../BENCH_20260808c.json")
	if err != nil {
		t.Fatalf("snapshot with a lanes field: %v", err)
	}
	if old.GoMaxProcs != 1 || old.Find("BenchmarkSimCXLStream") == nil {
		t.Fatalf("snapshot with a lanes field decoded as gomaxprocs=%d, %d benchmarks",
			old.GoMaxProcs, len(old.Benchmarks))
	}
	if err := LaneMismatch(old, &Doc{GoMaxProcs: 1}); err != nil {
		t.Fatalf("snapshot with a lanes field refused: %v", err)
	}

	// Sides that predate the fields are unknown, not mismatched: old
	// baselines must age out gracefully rather than brick the gate.
	if err := LaneMismatch(&Doc{}, cur); err != nil {
		t.Fatalf("legacy baseline refused: %v", err)
	}
	if err := LaneMismatch(base, &Doc{}); err != nil {
		t.Fatalf("unknown current refused: %v", err)
	}
}

func TestBestCollapsesRepetitions(t *testing.T) {
	doc := parseSample(t)
	noisy, _ := ParseLine("BenchmarkSimCXLStream-8   200000   1250.0 ns/op   53 B/op   1 allocs/op")
	doc.Benchmarks = append(doc.Benchmarks, noisy)
	if got := doc.Best("BenchmarkSimCXLStream").Metrics["ns/op"]; got != 992.9 {
		t.Fatalf("Best picked %v ns/op, want the 992.9 run", got)
	}
	if doc.Best("BenchmarkMissing") != nil {
		t.Fatal("Best invented a benchmark")
	}
}

func TestCompare(t *testing.T) {
	base := parseSample(t)
	cur := parseSample(t)
	watch := []string{"BenchmarkSimCXLStream", "BenchmarkCaptureSnapshot"}

	if regs := Compare(base, cur, watch, 0.20); len(regs) != 0 {
		t.Fatalf("identical runs flagged: %v", regs)
	}

	// +25% on one watched benchmark crosses the 20% gate.
	cur.Find("BenchmarkSimCXLStream").Metrics["ns/op"] = 992.9 * 1.25
	regs := Compare(base, cur, watch, 0.20)
	if len(regs) != 1 || regs[0].Name != "BenchmarkSimCXLStream" {
		t.Fatalf("regressions: %v", regs)
	}
	if regs[0].Growth < 0.24 || regs[0].Growth > 0.26 {
		t.Fatalf("growth = %v", regs[0].Growth)
	}

	// +25% under a 30% tolerance passes.
	if regs := Compare(base, cur, watch, 0.30); len(regs) != 0 {
		t.Fatalf("within-tolerance run flagged: %v", regs)
	}

	// A watched benchmark missing from either side fails loudly rather than
	// silently passing the gate.
	regs = Compare(base, cur, []string{"BenchmarkNotInBaseline"}, 0.20)
	if len(regs) != 1 || !regs[0].MissingBaseline {
		t.Fatalf("missing-baseline: %v", regs)
	}
	cur.Benchmarks = cur.Benchmarks[:1] // drop CaptureSnapshot from the current run
	regs = Compare(base, cur, []string{"BenchmarkCaptureSnapshot"}, 0.20)
	if len(regs) != 1 || !regs[0].MissingCurrent {
		t.Fatalf("missing-current: %v", regs)
	}
}

func TestComparePairs(t *testing.T) {
	cur := parseSample(t)
	v := *cur.Find("BenchmarkSimCXLStream")
	v.Name = "BenchmarkSimCXLStreamTracerOff"
	v.Metrics = map[string]float64{"ns/op": 992.9 * 1.01}
	cur.Benchmarks = append(cur.Benchmarks, v)
	pair := []string{"BenchmarkSimCXLStreamTracerOff=BenchmarkSimCXLStream"}

	// +1% passes a 2% pair gate.
	regs, err := ComparePairs(cur, pair, 0.02)
	if err != nil || len(regs) != 0 {
		t.Fatalf("within-tolerance pair flagged: %v %v", regs, err)
	}

	// +5% fails it, reporting both sides.
	cur.Find("BenchmarkSimCXLStreamTracerOff").Metrics["ns/op"] = 992.9 * 1.05
	regs, err = ComparePairs(cur, pair, 0.02)
	if err != nil || len(regs) != 1 {
		t.Fatalf("pair regression missed: %v %v", regs, err)
	}
	if regs[0].Growth < 0.04 || regs[0].Growth > 0.06 {
		t.Fatalf("pair growth = %v", regs[0].Growth)
	}

	// A missing side fails loudly.
	regs, err = ComparePairs(cur, []string{"BenchmarkNope=BenchmarkSimCXLStream"}, 0.02)
	if err != nil || len(regs) != 1 || !regs[0].MissingCurrent {
		t.Fatalf("missing variant: %v %v", regs, err)
	}
	regs, err = ComparePairs(cur, []string{"BenchmarkSimCXLStreamTracerOff=BenchmarkNope"}, 0.02)
	if err != nil || len(regs) != 1 || !regs[0].MissingBaseline {
		t.Fatalf("missing base: %v %v", regs, err)
	}

	// A malformed pair is a usage error, not a silent skip.
	if _, err := ComparePairs(cur, []string{"NoEqualsSign"}, 0.02); err == nil {
		t.Fatal("malformed pair accepted")
	}
}

// TestComparePairsNegativeTolerance: a negative tolerance demands the
// variant be FASTER than its base by at least that fraction — the shape of
// the `make bench-sweep` gate, where the forked sweep must run at most
// half the scratch sweep's ns/op.
func TestComparePairsNegativeTolerance(t *testing.T) {
	cur := parseSample(t)
	v := *cur.Find("BenchmarkSimCXLStream")
	v.Name = "BenchmarkForked"
	v.Metrics = map[string]float64{"ns/op": 992.9 * 0.30}
	cur.Benchmarks = append(cur.Benchmarks, v)
	pair := []string{"BenchmarkForked=BenchmarkSimCXLStream"}

	// 3.3x faster passes a "must be ≥2x faster" (-0.5) gate.
	regs, err := ComparePairs(cur, pair, -0.5)
	if err != nil || len(regs) != 0 {
		t.Fatalf("fast variant flagged: %v %v", regs, err)
	}

	// Only 1.4x faster fails it.
	cur.Find("BenchmarkForked").Metrics["ns/op"] = 992.9 * 0.70
	regs, err = ComparePairs(cur, pair, -0.5)
	if err != nil || len(regs) != 1 {
		t.Fatalf("insufficient speedup passed the gate: %v %v", regs, err)
	}
}

func TestCompareMax(t *testing.T) {
	cur := parseSample(t)

	// 43 B/op under a 64 ceiling passes.
	regs, err := CompareMax(cur, []string{"BenchmarkSimCXLStream:B/op:64"})
	if err != nil || len(regs) != 0 {
		t.Fatalf("within-ceiling flagged: %v %v", regs, err)
	}

	// 43 B/op over a 32 ceiling fails with the asserted unit.
	regs, err = CompareMax(cur, []string{"BenchmarkSimCXLStream:B/op:32"})
	if err != nil || len(regs) != 1 || regs[0].Metric != "B/op" || regs[0].CurNS != 43 {
		t.Fatalf("ceiling breach missed: %v %v", regs, err)
	}

	// Repetitions collapse to the fastest run, matching Compare.
	noisy, _ := ParseLine("BenchmarkSimCXLStream-8   200000   900.0 ns/op   20 B/op   1 allocs/op")
	cur.Benchmarks = append(cur.Benchmarks, noisy)
	regs, err = CompareMax(cur, []string{"BenchmarkSimCXLStream:B/op:32"})
	if err != nil || len(regs) != 0 {
		t.Fatalf("fastest-run collapse failed: %v %v", regs, err)
	}

	// A missing benchmark or unreported metric fails loudly.
	regs, err = CompareMax(cur, []string{"BenchmarkNope:B/op:32"})
	if err != nil || len(regs) != 1 || !regs[0].MissingCurrent {
		t.Fatalf("missing benchmark: %v %v", regs, err)
	}
	regs, err = CompareMax(cur, []string{"BenchmarkSimCXLStream:J/op:32"})
	if err != nil || len(regs) != 1 || !regs[0].MissingCurrent {
		t.Fatalf("unreported metric: %v %v", regs, err)
	}

	// Malformed specs are usage errors.
	for _, bad := range []string{"NoColons", "Name:B/op", "Name:B/op:abc"} {
		if _, err := CompareMax(cur, []string{bad}); err == nil {
			t.Fatalf("malformed spec %q accepted", bad)
		}
	}
}
