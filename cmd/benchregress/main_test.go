package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchRun is `go test -bench` output at GOMAXPROCS 2.
const benchRun = `goos: linux
goarch: amd64
pkg: pathfinder
BenchmarkSimCXLStream-2        	  200000	      1300 ns/op	      12 B/op	       0 allocs/op
BenchmarkSimLocalStream-2      	  200000	      1100 ns/op	      10 B/op	       0 allocs/op
PASS
`

// oneProcBaseline is a committed snapshot recorded at GOMAXPROCS 1.
const oneProcBaseline = `{"gomaxprocs": 1, "benchmarks": [
  {"name": "BenchmarkSimCXLStream", "iterations": 200000, "metrics": {"ns/op": 700, "allocs/op": 0}}
]}`

// inBaselineDir runs the test from a directory whose latest BENCH_*.json
// was recorded at GOMAXPROCS 1, as the repository root's is.
func inBaselineDir(t *testing.T) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCH_20260101.json"), []byte(oneProcBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
}

func runWith(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := run(args, strings.NewReader(benchRun), &out, &errb)
	return code, out.String(), errb.String()
}

// TestNoWatchSkipsBaseline: with no watched rows, the same-run gates run
// whatever GOMAXPROCS the committed baseline recorded.
func TestNoWatchSkipsBaseline(t *testing.T) {
	inBaselineDir(t)
	code, out, errs := runWith("-watch", "", "-max", "BenchmarkSimCXLStream:allocs/op:0,BenchmarkSimLocalStream:allocs/op:0")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	if !strings.Contains(out, "2 metric ceilings held") {
		t.Fatalf("stdout %q does not report the ceilings", out)
	}

	// The -max gate itself still bites.
	code, _, errs = runWith("-watch", "", "-max", "BenchmarkSimCXLStream:B/op:8")
	if code != 1 || !strings.Contains(errs, "ceiling exceeded") {
		t.Fatalf("B/op ceiling breach: exit %d, stderr %q", code, errs)
	}
	// So does the pair gate: Local is 15% faster than CXL, not within 2%.
	code, _, errs = runWith("-watch", "", "-pairs", "BenchmarkSimCXLStream=BenchmarkSimLocalStream")
	if code != 1 || !strings.Contains(errs, "same-run pair regression") {
		t.Fatalf("pair breach: exit %d, stderr %q", code, errs)
	}
}

// TestWatchRefusesMismatchedBaseline: a watched row is compared against
// the committed snapshot, so a GOMAXPROCS mismatch still refuses.
func TestWatchRefusesMismatchedBaseline(t *testing.T) {
	inBaselineDir(t)
	code, _, errs := runWith("-watch", "BenchmarkSimCXLStream")
	if code != 1 || !strings.Contains(errs, "refusing to compare") {
		t.Fatalf("exit %d, stderr %q; want a GOMAXPROCS refusal", code, errs)
	}
}
