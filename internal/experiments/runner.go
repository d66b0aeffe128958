package experiments

import (
	"context"
	"fmt"
	"runtime"
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

// parallelism is the worker-pool width used by runIndexed.  Zero or
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
// counter of the pool, published to the process-wide registry so
// `pathfinder -serve` exposes runner utilization mid-flight.
func workerMetrics(w int) (tasks, busy *obs.Counter) {
	tasks = obs.Default.Counter("pf_runner_tasks_total", "experiment runs completed by the pool")
	busy = obs.Default.Counter(
		"pf_runner_busy_ns{worker=\""+strconv.Itoa(w)+"\"}",
		"wall-clock nanoseconds each pool worker spent running experiments")
	return tasks, busy
}

// runIndexed invokes fn(0..n-1), possibly concurrently, and returns
// once every call has completed.  Each index runs exactly once; callers
// store results into pre-sized slices at their own index, which keeps
// result ordering identical to a serial loop regardless of scheduling.
// A panic in any fn is re-raised on the calling goroutine (first one
// wins, by index) so experiment bugs surface the same way they would
// serially.
//
// label names the experiment in CPU-profile label sets: pprof labels do
// not cross goroutine spawns, so each worker applies its own
// {experiment, worker} labels — `pfbench -cpuprofile` samples then
// attribute to experiment names.
func runIndexed(label string, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		tasks, busy := workerMetrics(0)
		pprof.Do(context.Background(), pprof.Labels("experiment", label, "worker", "0"),
			func(context.Context) {
				for i := 0; i < n; i++ {
					t0 := time.Now()
					fn(i)
					busy.Add(uint64(time.Since(t0)))
					tasks.Inc()
				}
			})
		return
	}

	panics := make([]any, n)
	var panicked atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			tasks, busy := workerMetrics(w)
			pprof.Do(context.Background(),
				pprof.Labels("experiment", label, "worker", strconv.Itoa(w)),
				func(context.Context) {
					for {
						i := int(next.Add(1)) - 1
						if i >= n {
							return
						}
						func() {
							defer func() {
								if r := recover(); r != nil {
									panics[i] = r
									panicked.Store(true)
								}
							}()
							t0 := time.Now()
							fn(i)
							busy.Add(uint64(time.Since(t0)))
							tasks.Inc()
						}()
					}
				})
		}(w)
	}
	wg.Wait()
	if panicked.Load() {
		for i, p := range panics {
			if p != nil {
				panic(fmt.Sprintf("experiments: run %d of %d panicked: %v", i, n, p))
			}
		}
	}
}
