package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// bankValues snapshots every PMU counter of every bank of a machine,
// keyed by bank name, after syncing all trackers.
func bankValues(m *sim.Machine) map[string][]uint64 {
	m.Sync()
	out := make(map[string][]uint64)
	for _, b := range m.Banks() {
		out[b.Name()] = b.Values()
	}
	return out
}

// runFixture builds a rig with a mixed local+CXL workload on several
// cores and runs it for a fixed horizon — enough traffic to exercise
// every level of the observer lane and every payload it applies.
func runFixture(t *testing.T) map[string][]uint64 {
	t.Helper()
	rig := NewRig(RigOptions{Scale: 4})
	local := rig.Alloc(8*mb, rig.LocalNode)
	cxl := rig.Alloc(8*mb, rig.CXLNode)
	rig.Machine.Attach(0, workload.NewStream(cxl, 0, 0.2, 1))
	rig.Machine.Attach(1, workload.NewStream(local, 2, 0.1, 2))
	rig.Machine.Attach(2, workload.NewPointerChase(cxl, 1, 3))
	rig.Machine.Attach(3, workload.NewGUPS(cxl, 0, 0, 0, 4))
	rig.Machine.Run(400_000)
	return bankValues(rig.Machine)
}

// TestSameSeedIdentical: two machines with identical config, seeds, and
// horizon must produce bit-identical counters in every bank — the
// engine's (when, seq) total order leaves no room for nondeterminism.
func TestSameSeedIdentical(t *testing.T) {
	a := runFixture(t)
	b := runFixture(t)
	if len(a) == 0 {
		t.Fatal("no banks captured")
	}
	for name, av := range a {
		if !reflect.DeepEqual(av, b[name]) {
			t.Errorf("bank %s diverged between identical runs", name)
		}
	}
}

// TestSerialParallelIdentical: experiment entry points must return
// byte-identical results whether the machine runs fan out across one
// worker or many — the runner's index-slotted results make completion
// order invisible.
func TestSerialParallelIdentical(t *testing.T) {
	cfg := sim.SPR()

	prev := SetParallelism(1)
	defer SetParallelism(prev)
	serialFaults := RunFaults(cfg, true)
	serialMLC := RunMLC(cfg, true)

	SetParallelism(4)
	parallelFaults := RunFaults(cfg, true)
	parallelMLC := RunMLC(cfg, true)

	if !reflect.DeepEqual(serialFaults, parallelFaults) {
		t.Errorf("RunFaults diverged: serial %+v vs parallel %+v",
			serialFaults.Sweep.Y, parallelFaults.Sweep.Y)
	}
	if !reflect.DeepEqual(serialMLC, parallelMLC) {
		t.Errorf("RunMLC diverged: serial %+v vs parallel %+v",
			serialMLC.Rows, parallelMLC.Rows)
	}
}

// TestRunIndexedOrdering: results land at their own index regardless of
// worker count, and every index runs exactly once.
func TestRunIndexedOrdering(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		prev := SetParallelism(workers)
		const n = 97
		got := make([]int, n)
		runIndexed("test", n, func(i int) { got[i] = i + 1 })
		SetParallelism(prev)
		for i, v := range got {
			if v != i+1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, v/(i+1))
			}
		}
	}
}

// TestRunIndexedPanic: runIndexed fails fast, serially and on four
// workers alike — every index that does not panic still runs, then the
// caller gets the lowest panicking index's panic with the stack it was
// raised on, not a process killed from a bare goroutine.
func TestRunIndexedPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := SetParallelism(workers)
			defer SetParallelism(prev)
			const n = 8
			ran := make([]bool, n)
			var msg string
			func() {
				defer func() { msg = fmt.Sprint(recover()) }()
				runIndexed("test", n, func(i int) {
					if i == 2 || i == 5 {
						explode(i)
					}
					ran[i] = true
				})
			}()
			for i, ok := range ran {
				if !ok && i != 2 && i != 5 {
					t.Errorf("index %d never ran", i)
				}
			}
			if !strings.Contains(msg, "run 2 of 8 panicked: boom 2") {
				t.Errorf("re-raised panic does not name index 2 first: %q", msg)
			}
			if !strings.Contains(msg, "experiments.explode(") {
				t.Errorf("re-raised panic lacks the panicking stack: %q", msg)
			}
		})
	}
}

// explode panics from a frame of its own, which the re-raised stack must
// carry.
//
//go:noinline
func explode(i int) { panic(fmt.Sprintf("boom %d", i)) }
