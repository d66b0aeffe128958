package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pathfinder/internal/obs"
)

// The experiment layer fans independent Machine runs across a worker
// pool.  Every Machine is single-goroutine internally and every rig in
// this package is built fresh per run (own AddressSpace, own PMU banks,
// fixed workload seeds), so runs never share mutable state and each
// one is deterministic in isolation.  Determinism of the *aggregate*
// result then only requires that results land in slots keyed by loop
// index rather than by completion order — which is what runIndexed
// guarantees.  Serial and parallel runs therefore produce byte-identical
// counters (enforced by TestSerialParallelIdentical).

// parallelism is the worker-pool width used by runPool.  Zero or
// negative means "one worker per available CPU".
var parallelism atomic.Int64

// SetParallelism sets the number of worker goroutines used to fan out
// independent experiment runs.  n <= 0 restores the default
// (GOMAXPROCS).  It returns the previous setting so callers can
// restore it.
func SetParallelism(n int) int {
	return int(parallelism.Swap(int64(n)))
}

// Parallelism reports the effective worker count.
func Parallelism() int {
	n := int(parallelism.Load())
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// SetLanes does nothing and returns 0: every rig runs the sequential
// sweep.
//
// Deprecated: window lanes are gone; perfbench is its last caller.
func SetLanes(int) int { return 0 }

// workerMetrics returns the dispatch counter and the per-worker busy-time
// counter of the pool, published to the process-wide registry;
// perfbench's fig-suite reads the busy time back as pool utilization.
func workerMetrics(w int) (tasks, busy *obs.Counter) {
	tasks = obs.Default.Counter("pf_runner_tasks_total", "experiment runs completed by the pool")
	busy = obs.Default.Counter(
		"pf_runner_busy_ns{worker=\""+strconv.Itoa(w)+"\"}",
		"wall-clock nanoseconds each pool worker spent running experiments")
	return tasks, busy
}

// panicError carries a recovered panic value and the stack it was raised
// on.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.val) }

// runPool is the worker pool: it invokes fn(0..n-1) on up to Parallelism()
// goroutines (the caller's own when one worker suffices) and returns once
// every call has completed.  Each index runs exactly once.  A call that
// panics is recovered into its own slot of the returned slice, nil for
// calls that returned, so one failure neither stops the other calls nor
// kills the process from a bare goroutine.  runIndexed and Supervise are
// the policies on top: fail fast, or contain.
//
// label names the experiment in CPU-profile label sets: pprof labels do
// not cross goroutine spawns, so each worker applies its own
// {experiment, worker} labels — `pfbench -cpuprofile` samples then
// attribute to experiment names.
func runPool(label string, n int, fn func(i int)) []*panicError {
	if n <= 0 {
		return nil
	}
	panics := make([]*panicError, n)
	var next atomic.Int64
	worker := func(w int) {
		tasks, busy := workerMetrics(w)
		pprof.Do(context.Background(), pprof.Labels("experiment", label, "worker", strconv.Itoa(w)),
			func(context.Context) {
				for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
					t0 := time.Now()
					panics[i] = runTask(fn, i)
					busy.Add(uint64(time.Since(t0)))
					tasks.Inc()
				}
			})
	}
	workers := min(Parallelism(), n)
	if workers <= 1 {
		worker(0)
		return panics
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			worker(w)
		}(w)
	}
	wg.Wait()
	return panics
}

// runTask runs fn(i), recovering a panic with the stack it was raised on.
func runTask(fn func(i int), i int) (pe *panicError) {
	defer func() {
		if r := recover(); r != nil {
			pe = &panicError{val: r, stack: debug.Stack()}
		}
	}()
	fn(i)
	return nil
}

// runIndexed invokes fn(0..n-1) on the pool and fails the whole run on
// any panic: every index still runs, then the panic is re-raised on the
// calling goroutine — the lowest index's, with the stack it was raised on
// — so experiment bugs surface the same way at any width.  Callers store results into
// pre-sized slices at their own index, which keeps result ordering
// identical to a serial loop regardless of scheduling.
func runIndexed(label string, n int, fn func(i int)) {
	for i, p := range runPool(label, n, fn) {
		if p != nil {
			panic(fmt.Sprintf("experiments: run %d of %d panicked: %v\n\n%s", i, n, p.val, p.stack))
		}
	}
}
