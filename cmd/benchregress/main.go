// Command benchregress gates perf regressions on the profiler hot paths:
// it parses a current `go test -bench` run (stdin or a file argument),
// compares the watched benchmarks against the committed BENCH_*.json
// baseline, and exits nonzero when any ns/op grew beyond the tolerance
// (see `make bench-regress`).  -pairs additionally gates Variant=Base
// pairs within the same run (e.g. the tracer-off overhead bound), which
// supports much tighter tolerances than a committed baseline.
//
//	go test -run '^$' -bench 'SimCXLStream|CaptureSnapshot' -benchmem . | benchregress
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pathfinder/internal/benchparse"
)

func main() {
	baseline := flag.String("baseline", "", "baseline BENCH_*.json (default: latest in the current directory)")
	watch := flag.String("watch", "BenchmarkSimCXLStream,BenchmarkCaptureSnapshot,BenchmarkEpochLoop",
		"comma-separated benchmark names to gate")
	tolerance := flag.Float64("tolerance", 0.20, "allowed ns/op growth fraction")
	pairs := flag.String("pairs", "",
		"comma-separated Variant=Base same-run pairs to gate (e.g. BenchmarkSimCXLStreamTracerOff=BenchmarkSimCXLStream)")
	pairTolerance := flag.Float64("pair-tolerance", 0.02,
		"allowed ns/op growth of a pair's variant over its base, same run")
	maxes := flag.String("max", "",
		"comma-separated absolute metric ceilings (Name:metric:limit, e.g. BenchmarkSimCXLStream:B/op:64)")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	cur, err := benchparse.Parse(in)
	if err != nil {
		fatal(err)
	}

	basePath := *baseline
	if basePath == "" {
		basePath, err = benchparse.LatestBaseline(".")
		if err != nil {
			fatal(err)
		}
	}
	base, err := benchparse.ReadDoc(basePath)
	if err != nil {
		fatal(err)
	}
	// A baseline measured under a different GOMAXPROCS is a different
	// experiment, and "comparing" it would gate on noise.
	if err := benchparse.LaneMismatch(base, cur); err != nil {
		fatal(fmt.Errorf("refusing to compare against %s: %w", basePath, err))
	}

	// -watch '' gates pairs/ceilings only (e.g. `make bench-sweep`, whose
	// benchmarks are deliberately absent from the committed baseline).
	var names []string
	if *watch != "" {
		names = strings.Split(*watch, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
	}
	regs := benchparse.Compare(base, cur, names, *tolerance)

	var pairRegs []benchparse.Regression
	var pairList []string
	if *pairs != "" {
		pairList = strings.Split(*pairs, ",")
		pairRegs, err = benchparse.ComparePairs(cur, pairList, *pairTolerance)
		if err != nil {
			fatal(err)
		}
	}

	var maxRegs []benchparse.Regression
	var maxList []string
	if *maxes != "" {
		maxList = strings.Split(*maxes, ",")
		maxRegs, err = benchparse.CompareMax(cur, maxList)
		if err != nil {
			fatal(err)
		}
	}

	if len(regs) == 0 && len(pairRegs) == 0 && len(maxRegs) == 0 {
		fmt.Printf("benchregress: %d watched benchmarks within %.0f%% of %s",
			len(names), *tolerance*100, basePath)
		if len(pairList) > 0 {
			fmt.Printf("; %d same-run pairs within %.0f%%", len(pairList), *pairTolerance*100)
		}
		if len(maxList) > 0 {
			fmt.Printf("; %d metric ceilings held", len(maxList))
		}
		fmt.Println()
		return
	}
	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "benchregress: regression vs %s:\n", basePath)
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
	}
	if len(pairRegs) > 0 {
		fmt.Fprintf(os.Stderr, "benchregress: same-run pair regression (tolerance %.0f%%):\n",
			*pairTolerance*100)
		for _, r := range pairRegs {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
	}
	if len(maxRegs) > 0 {
		fmt.Fprintln(os.Stderr, "benchregress: pinned metric ceiling exceeded:")
		for _, r := range maxRegs {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
	}
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchregress:", err)
	os.Exit(1)
}
