// Command benchjson converts `go test -bench` output into a stable JSON
// document so the perf trajectory of the simulator hot paths is
// comparable across commits (see `make bench-json`).
//
//	go test -run '^$' -bench Sim -benchmem . | benchjson -o BENCH_20260101.json
//
// Every "<value> <unit>" pair of each benchmark line is kept, and a
// derived sim_ops_per_sec is added for benchmarks reporting ns/op: the
// micro-benchmarks simulate one workload operation per iteration, so
// 1e9/ns-per-op is the simulator's operation throughput.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pathfinder/internal/benchparse"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
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

	doc, err := benchparse.Parse(in)
	if err != nil {
		fatal(err)
	}
	doc.Date = time.Now().UTC().Format("2006-01-02T15:04:05Z")
	// GoMaxProcs is parsed from the -N benchmark-name suffixes, so
	// benchregress can refuse to compare runs measured on different CPU
	// counts.

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
