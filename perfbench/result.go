package main

import (
	"fmt"
	"runtime/debug"
)

// options are one run's settings, from the command line.
type options struct {
	seed    uint64
	seconds int
	trace   bool
	outDir  string // where a traced run writes its spans
}

// result is what one workload run reports.
type result struct {
	attempted, failed int
	problems          []string // the first failures, for the log
	lines             []string // digests and file paths, printed for review

	e2e   map[string]float64 // end-to-end metrics (untraced run)
	layer map[string]float64 // per-layer metrics (traced run)
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// op records one attempted operation; a non-nil err marks it failed.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail counts a failure against an operation already attempted.
func (r *result) fail(err error) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, err.Error())
	}
}

// guard runs f, turning a panic into an error so one broken operation is
// counted as failed instead of ending the run.
func guard(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	return f()
}
