package experiments

import (
	"sync"
	"sync/atomic"

	"pathfinder/internal/obs"
	"pathfinder/internal/sim"
)

// warmCacheOn gates the checkpoint-fork path of Sweep (see SetWarmCache).
// Off by default: the conservative mode warms every point from scratch,
// and `pfbench -warm-cache` (or a test) opts into forking.
var warmCacheOn atomic.Bool

// SetWarmCache toggles warm-prefix forking for Sweep matrices: when on,
// each sweep warms one machine, checkpoints it (cached under SweepSpec.Key
// for the process lifetime), and forks per config point; when off, every
// point warms from scratch.  Results are byte-identical either way —
// restore-equivalence is proven by digest in the golden suites — only
// wall-clock differs.  Returns the previous setting.
func SetWarmCache(on bool) bool { return warmCacheOn.Swap(on) }

// WarmCacheEnabled reports whether Sweep forks from warmed checkpoints.
func WarmCacheEnabled() bool { return warmCacheOn.Load() }

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

// checkpointCache is the in-process warmed-image cache shared by pfbench's
// figure suite and chaos's run-twice replay.  Entries live for the process
// lifetime (a soak or bench run), keyed by SweepSpec.Key.
var checkpointCache = struct {
	mu sync.Mutex
	m  map[string]*sim.Checkpoint
}{m: make(map[string]*sim.Checkpoint)}

// checkpointMetrics are the pf_checkpoint_* series on the process-wide
// registry; `pathfinder -serve` republishes them under /status so soak runs
// can confirm prefix reuse is engaging.
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

// CheckpointCacheStats is the /status view of the warmed-image cache.
type CheckpointCacheStats struct {
	Entries int    `json:"entries"`
	Bytes   int    `json:"bytes"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Forks   uint64 `json:"forks"`
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
// generator) and the sweep must run from scratch.
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
// pool.  With the warm cache enabled (SetWarmCache), one machine is warmed
// to the barrier, checkpointed, and every point runs on a fork of the
// frozen image; forked machines are recycled through a pool so
// steady-state forks reuse buffers (RestoreInto) instead of rebuilding
// (Restore).  With it disabled (the default), every point warms from
// scratch.
//
// Results are deterministic and identical to warming each point from
// scratch: restore-equivalence is proven by digest in the golden suites,
// and result ordering follows runIndexed's index-keyed contract.  If the
// warmed machine cannot be checkpointed — a generator without
// workload.Forkable — Sweep transparently degrades to per-point scratch
// warming and still produces identical results.
func Sweep(spec SweepSpec) {
	if spec.Points <= 0 {
		return
	}
	var cp *sim.Checkpoint
	if warmCacheOn.Load() {
		cp = warmCheckpoint(&spec)
	}
	if cp == nil {
		runIndexed(spec.Label, spec.Points, func(i int) {
			m := spec.Base()
			if spec.Warm > 0 {
				m.Run(spec.Warm)
			}
			spec.Run(i, m)
		})
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
