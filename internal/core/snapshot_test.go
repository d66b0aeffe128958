package core

import (
	"strings"
	"sync"
	"testing"

	"pathfinder/internal/pmu"
	"pathfinder/internal/workload"
)

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("expected string panic, got %T: %v", r, r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	f()
}

// TestSnapshotUnknownBankPanics is the regression test for the old
// silent-zero behaviour: reads of banks the layout does not carry used to
// return 0 and quietly corrupt analyses; they must now panic with the bank
// kind and instance, matching the Machine.Bank convention.
func TestSnapshotUnknownBankPanics(t *testing.T) {
	idx := NewBankIndex([]string{"core0", "core1", "cha0", "imc0", "m2pcie0", "cxl0"}, pmu.Default.Len())
	s := &Snapshot{End: 1000, idx: idx, arena: make([]uint64, idx.ArenaLen())}

	mustPanic(t, `no "core" bank 2`, func() { s.Core(2, pmu.CPUClkUnhalted) })
	mustPanic(t, `no "core" bank 7`, func() { s.CoreSum([]int{0, 7}, pmu.CPUClkUnhalted) })
	mustPanic(t, `no "cha" bank 1`, func() { s.CHA(1, pmu.TORInsertsIA[pmu.IAAll]) })
	mustPanic(t, `no "m2pcie" bank 3`, func() { s.M2P(3, pmu.M2PRxInserts) })
	mustPanic(t, `no "cxl" bank 1`, func() { s.CXL(1, pmu.CXLDevCASRd) })
	mustPanic(t, `no bank "imc9"`, func() { s.bankDelta("imc9") })

	// Plan reads of an absent device panic at the read, not at compile time
	// (BuildPathMap never touches the port, so a portless layout is legal).
	noPort := NewBankIndex([]string{"core0", "cha0", "imc0"}, pmu.Default.Len())
	sp := &Snapshot{End: 1000, idx: noPort, arena: make([]uint64, noPort.ArenaLen())}
	p := NewPlan(noPort, nil, 0)
	mustPanic(t, `no "m2pcie" bank 0`, func() { p.M2P(sp, pmu.M2PRxInserts) })
	mustPanic(t, `no "cxl" bank 0`, func() { p.CXL(sp, pmu.CXLDevCASRd) })

	// Compiling a plan for a core the layout lacks is an immediate bug.
	mustPanic(t, `no "core" bank 5`, func() { NewPlan(idx, []int{5}, 0) })
}

// TestPlanLayoutMismatchPanics: a plan compiled against one machine must
// refuse snapshots captured under another layout.
func TestPlanLayoutMismatchPanics(t *testing.T) {
	idxA := NewBankIndex([]string{"core0", "cha0", "imc0", "m2pcie0", "cxl0"}, pmu.Default.Len())
	idxB := NewBankIndex([]string{"core0", "core1", "cha0", "imc0", "m2pcie0", "cxl0"}, pmu.Default.Len())
	p := NewPlan(idxA, nil, 0)
	s := &Snapshot{End: 1000, idx: idxB, arena: make([]uint64, idxB.ArenaLen())}
	mustPanic(t, "different bank layout", func() {
		var q QueueReport
		p.AnalyzeQueuesInto(s, Consts{}, &q)
	})
}

// TestSnapshotRecycler: Release returns capturer snapshots to the pool, a
// recycled snapshot is reinitialized on the next Capture, double-Release is
// a no-op, and foreign snapshots ignore Release.
func TestSnapshotRecycler(t *testing.T) {
	m, _, cxlReg := testRig(t)
	cap := NewCapturer(m)
	m.Attach(0, workload.NewStream(region(cxlReg), 1, 0.2, 1))

	m.Run(100_000)
	s1 := cap.Capture()
	if s1.Seq != 0 || s1.Start != 0 || s1.End == s1.Start {
		t.Fatalf("bad first epoch window: seq=%d [%d,%d)", s1.Seq, s1.Start, s1.End)
	}
	first, end1 := s1, s1.End
	s1.Release()
	s1.Release() // double-Release must not corrupt the pool

	m.Run(100_000)
	s2 := cap.Capture()
	if s2 != first {
		t.Error("capture after Release did not reuse the pooled snapshot")
	}
	if s2.Seq != 1 || s2.Start != end1 {
		t.Fatalf("recycled snapshot not reinitialized: seq=%d start=%d (want 1, %d)",
			s2.Seq, s2.Start, end1)
	}
	if got := s2.Core(0, pmu.CPUClkUnhalted); got <= 0 {
		t.Fatalf("recycled snapshot has no fresh deltas: clk=%v", got)
	}

	// A hand-built snapshot (no pool) must ignore Release.
	idx := NewBankIndex([]string{"core0"}, pmu.Default.Len())
	loose := &Snapshot{idx: idx, arena: make([]uint64, idx.ArenaLen())}
	loose.Release()
}

// TestSnapshotReleaseConcurrent: snapshots released from several
// goroutines at once land on the capturer's free list up to its bound, a
// second Release of each is a no-op, and the next captures recycle exactly
// the listed snapshots.
func TestSnapshotReleaseConcurrent(t *testing.T) {
	m, _, cxlReg := testRig(t)
	cap := NewCapturer(m)
	m.Attach(0, workload.NewStream(region(cxlReg), 1, 0.2, 1))

	snaps := make([]*Snapshot, 2*snapshotPoolMax)
	released := map[*Snapshot]bool{}
	for i := range snaps {
		m.Run(10_000)
		snaps[i] = cap.Capture()
		released[snaps[i]] = true
	}
	var wg sync.WaitGroup
	for _, s := range snaps {
		wg.Add(1)
		go func(s *Snapshot) {
			defer wg.Done()
			s.Release()
		}(s)
	}
	wg.Wait()
	for _, s := range snaps {
		s.Release()
	}

	hits0, misses0 := cap.PoolStats()
	for i := 0; i < snapshotPoolMax; i++ {
		if s := cap.Capture(); !released[s] {
			t.Fatalf("capture %d after concurrent releases allocated a new snapshot", i)
		}
	}
	hits, misses := cap.PoolStats()
	if hits-hits0 != snapshotPoolMax || misses != misses0 {
		t.Fatalf("pool hits/misses moved by %d/%d, want %d/0",
			hits-hits0, misses-misses0, snapshotPoolMax)
	}
	if s := cap.Capture(); released[s] {
		t.Fatal("free list held more snapshots than its bound")
	}
}

// TestCaptureSteadyStateAllocs: after warmup, a capture+release epoch loop
// must not allocate.
func TestCaptureSteadyStateAllocs(t *testing.T) {
	m, _, cxlReg := testRig(t)
	cap := NewCapturer(m)
	m.Attach(0, workload.NewStream(region(cxlReg), 1, 0.2, 1))
	m.Run(50_000)
	cap.Capture().Release() // warm the pool
	k := ConstsFor(m.Config())
	plan := NewPlan(cap.Index(), []int{0}, 0)
	var pm PathMap
	var bd StallBreakdown
	var qr QueueReport
	buf := make(Digest, 0, 4096)

	// The capture-and-analyze pipeline (simulation excluded — the machine
	// allocates per op) must stay under the issue's <=2 allocs/epoch budget.
	allocs := testing.AllocsPerRun(20, func() {
		s := cap.Capture()
		plan.BuildPathMapInto(s, &pm)
		plan.EstimateStallsInto(s, k, &bd)
		plan.AnalyzeQueuesInto(s, k, &qr)
		buf = AppendDigest(buf[:0], s)
		s.Release()
	})
	if allocs > 2 {
		t.Fatalf("capture epoch loop allocates %.1f allocs/epoch, want <= 2", allocs)
	}
}
