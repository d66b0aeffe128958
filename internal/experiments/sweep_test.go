package experiments

import (
	"reflect"
	"testing"

	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// TestWarmSweepForkedMatchesScratch: the warm-forked fault matrix must
// produce byte-identical numbers whether every point re-warms from scratch
// or forks from one cached checkpoint, and the cache must actually engage
// (one miss on the first forked run, a hit on the second, one fork per
// point).
func TestWarmSweepForkedMatchesScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("warm-sweep matrix")
	}
	ResetCheckpointCache()

	spec, scratch := warmSweepSpec(sim.SPR(), true)
	sweepScratch(spec)
	if s := CheckpointCache(); s.Entries != 0 {
		t.Fatalf("scratch run populated the cache: %+v", s)
	}

	before := CheckpointCache()
	forked := RunWarmSweep(sim.SPR(), true)
	after := CheckpointCache()
	if !reflect.DeepEqual(scratch, forked) {
		t.Errorf("forked sweep diverged from scratch:\nscratch: %+v\nforked:  %+v", scratch, forked)
	}
	if after.Misses != before.Misses+1 || after.Entries != 1 || after.Bytes <= 0 {
		t.Errorf("first forked run should miss once and cache one image: before %+v after %+v", before, after)
	}
	if got := after.Forks - before.Forks; got != uint64(len(forked.Labels)) {
		t.Errorf("forks = %d, want one per point (%d)", got, len(forked.Labels))
	}

	again := RunWarmSweep(sim.SPR(), true)
	final := CheckpointCache()
	if !reflect.DeepEqual(forked, again) {
		t.Errorf("cache-hit sweep diverged from first forked run")
	}
	if final.Hits != after.Hits+1 || final.Entries != 1 {
		t.Errorf("second forked run should hit the cache: %+v -> %+v", after, final)
	}
}

// opaqueGen wraps a generator while hiding its Forkable implementation, so
// Checkpoint must refuse the machine.
type opaqueGen struct{ g workload.Generator }

func (o *opaqueGen) Next(op *workload.Op) bool { return o.g.Next(op) }

// TestSweepScratchFallback: a sweep whose machine cannot be checkpointed
// (non-forkable generator) must transparently degrade to per-point scratch
// warming and still run every point.
func TestSweepScratchFallback(t *testing.T) {
	ResetCheckpointCache()

	ran := make([]int, 4)
	Sweep(SweepSpec{
		Label: "fallback-test",
		Base: func() *sim.Machine {
			rig := NewRig(RigOptions{Cores: 1, Scale: 8})
			rig.Machine.Attach(0, &opaqueGen{workload.NewStream(rig.Alloc(mb, rig.CXLNode), 0, 0, 1)})
			return rig.Machine
		},
		Warm:   10_000,
		Points: len(ran),
		Run: func(i int, m *sim.Machine) {
			m.Run(1000)
			ran[i]++
		},
	})
	for i, n := range ran {
		if n != 1 {
			t.Errorf("point %d ran %d times, want 1", i, n)
		}
	}
	if s := CheckpointCache(); s.Entries != 0 {
		t.Errorf("uncheckpointable sweep cached an image: %+v", s)
	}
}
