package experiments

import (
	"sync"

	"pathfinder/internal/obs"
	"pathfinder/internal/sim"
)

// SetWarmCache does nothing and returns true: Sweep always forks its
// points from a warmed checkpoint.
//
// Deprecated: the warm cache is always on; perfbench's fig-suite is its
// last caller.
func SetWarmCache(bool) bool { return true }

// SweepSpec describes a warm-then-fork experiment matrix: one machine is
// built and warmed to the barrier cycle, checkpointed once, and every
// config point runs on a fork of the frozen image instead of re-simulating
// the warm prefix from scratch.  The warm prefix amortizes across the whole
// matrix — a 16-point sweep whose points share a long warm phase pays for
// it once.
type SweepSpec struct {
	// Label names the sweep in the pool's pprof label sets and metrics.
	Label string

	// Key identifies the warmed image in the process-wide checkpoint
	// cache.  It must capture everything that determines the image —
	// machine spec, workload selection and seeds, warm cycles — because a
	// cache hit skips Base and Warm entirely.  Empty disables caching:
	// the sweep still warms once and forks per point, it just does not
	// keep the image for later sweeps.
	Key string

	// Base builds the machine and attaches its workloads, positioned at
	// cycle zero.  On a cache hit it is never called.
	Base func() *sim.Machine

	// Warm is the barrier cycle the shared prefix runs to before the
	// checkpoint is taken.
	Warm sim.Cycles

	// Points is the number of config points in the matrix.
	Points int

	// Run executes point i on a machine positioned exactly at the warm
	// barrier.  Runs may execute concurrently on the worker pool, one
	// machine each; the machine is recycled after Run returns, so no
	// references to it may escape.
	Run func(i int, m *sim.Machine)
}

// checkpointCache is the in-process warmed-image cache of Sweep.  Entries
// live for the process lifetime (a pfbench or perfbench run), keyed by
// SweepSpec.Key.
var checkpointCache = struct {
	mu sync.Mutex
	m  map[string]*sim.Checkpoint
}{m: make(map[string]*sim.Checkpoint)}

// checkpointMetrics are the pf_checkpoint_* series on the process-wide
// registry, read back by CheckpointCache.
func checkpointMetrics() (hits, misses, forks *obs.Counter, bytes *obs.Gauge) {
	hits = obs.Default.Counter("pf_checkpoint_cache_hits_total",
		"sweeps that reused a cached warmed checkpoint")
	misses = obs.Default.Counter("pf_checkpoint_cache_misses_total",
		"sweeps that had to warm a machine from scratch")
	forks = obs.Default.Counter("pf_checkpoint_forks_total",
		"machines forked from a warmed checkpoint")
	bytes = obs.Default.Gauge("pf_checkpoint_cache_bytes",
		"hot-state bytes held by cached warmed checkpoints")
	return
}

// CheckpointCacheStats summarizes the warmed-image cache: pfbench prints it
// after a run that forked, and perfbench reads its forks and bytes.
type CheckpointCacheStats struct {
	Entries int
	Bytes   int
	Hits    uint64
	Misses  uint64
	Forks   uint64
}

// CheckpointCache reports the current cache contents and lifetime
// hit/miss/fork totals.
func CheckpointCache() CheckpointCacheStats {
	hits, misses, forks, _ := checkpointMetrics()
	s := CheckpointCacheStats{
		Hits:   hits.Value(),
		Misses: misses.Value(),
		Forks:  forks.Value(),
	}
	checkpointCache.mu.Lock()
	defer checkpointCache.mu.Unlock()
	for _, cp := range checkpointCache.m {
		s.Entries++
		s.Bytes += cp.Bytes()
	}
	return s
}

// ResetCheckpointCache drops every cached image (tests; memory pressure).
func ResetCheckpointCache() {
	checkpointCache.mu.Lock()
	checkpointCache.m = make(map[string]*sim.Checkpoint)
	checkpointCache.mu.Unlock()
	_, _, _, bytes := checkpointMetrics()
	bytes.Set(0)
}

// warmCheckpoint returns the warmed image for spec, from cache when keyed
// and present, else by building, warming, and checkpointing a machine.  A
// nil return means the machine cannot be checkpointed (a non-forkable
// generator) and the sweep must run from scratch (sweepScratch).
func warmCheckpoint(spec *SweepSpec) *sim.Checkpoint {
	hits, misses, _, bytes := checkpointMetrics()
	if spec.Key != "" {
		checkpointCache.mu.Lock()
		cp := checkpointCache.m[spec.Key]
		checkpointCache.mu.Unlock()
		if cp != nil {
			hits.Inc()
			return cp
		}
	}
	misses.Inc()
	m := spec.Base()
	if spec.Warm > 0 {
		m.Run(spec.Warm)
	}
	cp, err := m.Checkpoint()
	if err != nil {
		return nil
	}
	if spec.Key != "" {
		checkpointCache.mu.Lock()
		checkpointCache.m[spec.Key] = cp
		total := 0
		for _, c := range checkpointCache.m {
			total += c.Bytes()
		}
		checkpointCache.mu.Unlock()
		bytes.Set(float64(total))
	}
	return cp
}

// Sweep fans the config points of a warm-shared matrix across the worker
// pool: one machine is warmed to the barrier, checkpointed, and every point
// runs on a fork of the frozen image; forked machines are recycled through
// a pool so steady-state forks reuse buffers (RestoreInto) instead of
// rebuilding (Restore).
//
// Results are deterministic and identical to warming each point from
// scratch: restore-equivalence is proven by digest in the golden suites
// and by TestWarmSweepForkedMatchesScratch, and result ordering follows
// runIndexed's index-keyed contract.  If the warmed machine cannot be
// checkpointed — a generator without workload.Forkable — Sweep degrades to
// sweepScratch and still produces identical results.
func Sweep(spec SweepSpec) {
	if spec.Points <= 0 {
		return
	}
	cp := warmCheckpoint(&spec)
	if cp == nil {
		sweepScratch(spec)
		return
	}
	_, _, forks, _ := checkpointMetrics()
	var machines sync.Pool
	runIndexed(spec.Label, spec.Points, func(i int) {
		var m *sim.Machine
		if v := machines.Get(); v != nil {
			m = v.(*sim.Machine)
			if err := cp.RestoreInto(m); err != nil {
				m = cp.Restore()
			}
		} else {
			m = cp.Restore()
		}
		forks.Inc()
		spec.Run(i, m)
		machines.Put(m)
	})
}

// sweepScratch runs every point of spec on its own machine, built and
// warmed from scratch: Sweep's fallback for a machine it cannot
// checkpoint, and the reference the forked path is tested against.
func sweepScratch(spec SweepSpec) {
	runIndexed(spec.Label, spec.Points, func(i int) {
		m := spec.Base()
		if spec.Warm > 0 {
			m.Run(spec.Warm)
		}
		spec.Run(i, m)
	})
}
