// Command benchregress gates perf regressions on the profiler hot paths:
// it parses a current `go test -bench` run (stdin or a file argument),
// compares the watched benchmarks against the committed BENCH_*.json
// baseline, and exits nonzero when any ns/op grew beyond the tolerance
// (see `make bench-regress`).  -pairs additionally gates Variant=Base
// pairs within the same run (e.g. the tracer-off overhead bound), which
// supports much tighter tolerances than a committed baseline.  With an
// empty -watch list no row is compared against a baseline, so none is
// loaded: the pair and -max gates then run on any host, whatever
// GOMAXPROCS the committed snapshot recorded.
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
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the command with its arguments and streams as parameters; it
// returns the exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchregress", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "", "baseline BENCH_*.json (default: latest in the current directory)")
	watch := fs.String("watch", "BenchmarkSimCXLStream,BenchmarkCaptureSnapshot,BenchmarkEpochLoop",
		"comma-separated benchmark names to gate")
	tolerance := fs.Float64("tolerance", 0.20, "allowed ns/op growth fraction")
	pairs := fs.String("pairs", "",
		"comma-separated Variant=Base same-run pairs to gate (e.g. BenchmarkSimCXLStreamTracerOff=BenchmarkSimCXLStream)")
	pairTolerance := fs.Float64("pair-tolerance", 0.02,
		"allowed ns/op growth of a pair's variant over its base, same run")
	maxes := fs.String("max", "",
		"comma-separated absolute metric ceilings (Name:metric:limit, e.g. BenchmarkSimCXLStream:B/op:64)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "benchregress:", err)
		return 1
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		in = f
	}
	cur, err := benchparse.Parse(in)
	if err != nil {
		return fatal(err)
	}

	// -watch '' gates pairs/ceilings only (e.g. `make bench-sweep`, whose
	// benchmarks are deliberately absent from the committed baseline), so
	// it neither loads a baseline nor checks one's GOMAXPROCS.
	var names []string
	var regs []benchparse.Regression
	basePath := *baseline
	if *watch != "" {
		names = strings.Split(*watch, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		if basePath == "" {
			basePath, err = benchparse.LatestBaseline(".")
			if err != nil {
				return fatal(err)
			}
		}
		base, err := benchparse.ReadDoc(basePath)
		if err != nil {
			return fatal(err)
		}
		// A baseline measured under a different GOMAXPROCS is a different
		// experiment, and "comparing" it would gate on noise.
		if err := benchparse.LaneMismatch(base, cur); err != nil {
			return fatal(fmt.Errorf("refusing to compare against %s: %w", basePath, err))
		}
		regs = benchparse.Compare(base, cur, names, *tolerance)
	}

	var pairRegs []benchparse.Regression
	var pairList []string
	if *pairs != "" {
		pairList = strings.Split(*pairs, ",")
		pairRegs, err = benchparse.ComparePairs(cur, pairList, *pairTolerance)
		if err != nil {
			return fatal(err)
		}
	}

	var maxRegs []benchparse.Regression
	var maxList []string
	if *maxes != "" {
		maxList = strings.Split(*maxes, ",")
		maxRegs, err = benchparse.CompareMax(cur, maxList)
		if err != nil {
			return fatal(err)
		}
	}

	if len(regs) == 0 && len(pairRegs) == 0 && len(maxRegs) == 0 {
		if len(names) > 0 {
			fmt.Fprintf(stdout, "benchregress: %d watched benchmarks within %.0f%% of %s",
				len(names), *tolerance*100, basePath)
		} else {
			fmt.Fprint(stdout, "benchregress: no watched benchmarks")
		}
		if len(pairList) > 0 {
			fmt.Fprintf(stdout, "; %d same-run pairs within %.0f%%", len(pairList), *pairTolerance*100)
		}
		if len(maxList) > 0 {
			fmt.Fprintf(stdout, "; %d metric ceilings held", len(maxList))
		}
		fmt.Fprintln(stdout)
		return 0
	}
	if len(regs) > 0 {
		fmt.Fprintf(stderr, "benchregress: regression vs %s:\n", basePath)
		for _, r := range regs {
			fmt.Fprintf(stderr, "  %s\n", r)
		}
	}
	if len(pairRegs) > 0 {
		fmt.Fprintf(stderr, "benchregress: same-run pair regression (tolerance %.0f%%):\n",
			*pairTolerance*100)
		for _, r := range pairRegs {
			fmt.Fprintf(stderr, "  %s\n", r)
		}
	}
	if len(maxRegs) > 0 {
		fmt.Fprintln(stderr, "benchregress: pinned metric ceiling exceeded:")
		for _, r := range maxRegs {
			fmt.Fprintf(stderr, "  %s\n", r)
		}
	}
	return 1
}
