package sim

import (
	"runtime"
	"testing"

	"pathfinder/internal/mem"
	"pathfinder/internal/workload"
)

// White-box tests for the sequential sweep (DESIGN.md §12): mid-run
// transitions between the sweep and the dispatch oracle, a sweep that
// starts no goroutines, and the deprecated lane stubs.  The step-order
// tests in engine_test.go compare the two at same-cycle ties.

// windowRig builds a 4-core machine with one local and one CXL region.
func windowRig(t *testing.T) (*Machine, workload.Region, workload.Region) {
	t.Helper()
	as := testSpace(t)
	local, err := as.Alloc(8<<20, mem.Fixed(0))
	if err != nil {
		t.Fatal(err)
	}
	cxlr, err := as.Alloc(8<<20, mem.Fixed(2))
	if err != nil {
		t.Fatal(err)
	}
	m := New(smallConfig(), as)
	return m, workload.Region{Base: local.Base, Size: local.Size},
		workload.Region{Base: cxlr.Base, Size: cxlr.Size}
}

// bankSums returns every PMU counter of every bank, concatenated — a
// cheap in-package digest for mode-equivalence checks.
func bankSums(m *Machine) []uint64 {
	var out []uint64
	for _, b := range m.Banks() {
		out = append(out, b.Values()...)
	}
	return out
}

func sameSums(t *testing.T, tag string, a, b []uint64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: digest lengths differ: %d vs %d", tag, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: counter %d differs: %d vs %d", tag, i, a[i], b[i])
		}
	}
}

// TestWindowLaneTransitions switches between the sweep and the dispatch
// oracle mid-run and requires the final counters to match a run that never
// left the oracle.  This pins the absorbCoreEvents/flushStepMirror handoff
// in both directions.
func TestWindowLaneTransitions(t *testing.T) {
	drive := func(m *Machine, local, cxlr workload.Region) {
		m.Attach(0, workload.NewStream(local, 2, 0.2, 5))
		m.Attach(1, workload.NewStream(cxlr, 2, 0.1, 6))
		m.Attach(2, workload.NewPointerChase(cxlr, 2, 7))
		m.Attach(3, workload.NewStream(local, 0, 0.5, 8))
	}
	base, blocal, bcxl := windowRig(t)
	base.SetDispatchOracle(true)
	drive(base, blocal, bcxl)
	base.Run(400_000)

	m, local, cxlr := windowRig(t)
	drive(m, local, cxlr)
	for i, oracle := range []bool{false, true, false, true, false, false, true, false} {
		m.SetDispatchOracle(oracle)
		m.Run(50_000)
		if m.Now() != Cycles((i+1)*50_000) {
			t.Fatalf("after slice %d: now=%d", i, m.Now())
		}
	}
	if m.Now() != base.Now() {
		t.Fatalf("final clocks differ: %d vs %d", m.Now(), base.Now())
	}
	sameSums(t, "transitions", bankSums(m), bankSums(base))
}

// TestSweepStartsNoGoroutines: stepping is single-threaded, so a
// multi-core Run at default settings leaves no goroutine behind, even when
// GOMAXPROCS offers more than one CPU.
func TestSweepStartsNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m, local, cxlr := windowRig(t)
	m.Attach(0, workload.NewStream(local, 2, 0.2, 1))
	m.Attach(1, workload.NewStream(local, 2, 0.1, 2))
	m.Attach(2, workload.NewStream(cxlr, 2, 0, 3))
	m.Attach(3, workload.NewStream(local, 2, 0.3, 4))
	before := runtime.NumGoroutine()
	m.Run(300_000)
	if m.InlineSteps() == 0 {
		t.Fatal("the default machine stepped no ops inline")
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("Run left %d goroutines running, had %d before", after, before)
	}
}

// TestWindowStatsPopulated: the deprecated lane stubs select nothing.  Any
// SetLanes value, negative included, leaves the sweep on, and the window
// counters stay zero, since the sweep opens no windows.
func TestWindowStatsPopulated(t *testing.T) {
	for _, lanes := range []int{-1, 0, 1, 2} {
		m, local, cxlr := windowRig(t)
		m.SetLanes(lanes)
		m.Attach(0, workload.NewStream(local, 2, 0.2, 1))
		m.Attach(1, workload.NewStream(cxlr, 2, 0.3, 2))
		m.Run(100_000)
		if ws := m.WindowStats(); ws != (WindowStats{}) {
			t.Fatalf("SetLanes(%d): window counters = %+v, want zero", lanes, ws)
		}
		if m.InlineSteps() == 0 || m.DispatchedEvents() != 0 {
			t.Fatalf("SetLanes(%d) left the sweep: %d inline steps, %d dispatched",
				lanes, m.InlineSteps(), m.DispatchedEvents())
		}
	}
}
