package sim

import (
	"testing"

	"pathfinder/internal/mem"
	"pathfinder/internal/obs"
	"pathfinder/internal/workload"
)

// ckptRig builds a machine exercising all three memory paths with forkable
// generators: a store-mixed stream on local DRAM, GUPS on the CXL device,
// and a Zipf working set on the remote socket.
func ckptRig(t *testing.T) *Machine {
	t.Helper()
	as := testSpace(t)
	local, err := as.Alloc(4<<20, mem.Fixed(0))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := as.Alloc(4<<20, mem.Fixed(1))
	if err != nil {
		t.Fatal(err)
	}
	cxl, err := as.Alloc(8<<20, mem.Fixed(2))
	if err != nil {
		t.Fatal(err)
	}
	m := New(smallConfig(), as)
	m.Attach(0, workload.NewStream(workload.Region{Base: local.Base, Size: local.Size}, 2, 0.25, 1))
	m.Attach(1, workload.NewGUPS(workload.Region{Base: cxl.Base, Size: cxl.Size}, 1, 0.1, 0.5, 2))
	m.Attach(2, workload.NewZipf(workload.Region{Base: remote.Base, Size: remote.Size}, 0.9, 0.8, 4, 1, 3))
	m.Attach(3, workload.NewMix(
		workload.NewStream(workload.Region{Base: cxl.Base, Size: cxl.Size / 2}, 0, 0, 4),
		workload.NewPointerChase(workload.Region{Base: local.Base, Size: local.Size}, 2, 5),
		0.7))
	return m
}

// bankValues flattens every PMU counter of the machine after a Sync.
func bankValues(m *Machine) []uint64 {
	m.Sync()
	var out []uint64
	for _, b := range m.Banks() {
		out = append(out, b.Values()...)
	}
	return out
}

func diffBanks(t *testing.T, label string, want, got []uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: bank shapes differ (%d vs %d values)", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: counter value %d differs: want %d, got %d", label, i, want[i], got[i])
		}
	}
}

const (
	ckptWarm   = Cycles(2_000_000)
	ckptSuffix = Cycles(1_500_000)
)

// TestCheckpointRestoreEquivalence is the core restore-equivalence proof at
// the sim layer: a machine restored from a mid-run checkpoint produces
// byte-identical PMU counters to (a) a scratch machine that ran the whole
// span and (b) the source machine continuing past the checkpoint.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	scratch := ckptRig(t)
	scratch.Run(ckptWarm + ckptSuffix)
	want := bankValues(scratch)

	src := ckptRig(t)
	src.Run(ckptWarm)
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Cycle() != ckptWarm {
		t.Fatalf("checkpoint cycle = %d, want %d", cp.Cycle(), ckptWarm)
	}
	if cp.Bytes() <= 0 {
		t.Fatalf("checkpoint reports %d bytes", cp.Bytes())
	}

	// The source keeps running unperturbed.
	src.Run(ckptSuffix)
	diffBanks(t, "source continued", want, bankValues(src))

	// A fresh restore runs the identical suffix.
	fork := cp.Restore()
	if fork.Now() != ckptWarm {
		t.Fatalf("restored machine at cycle %d, want %d", fork.Now(), ckptWarm)
	}
	fork.Run(ckptSuffix)
	diffBanks(t, "restored", want, bankValues(fork))

	// The checkpoint is reusable: a second fork is just as good.
	fork2 := cp.Restore()
	fork2.Run(ckptSuffix)
	diffBanks(t, "second restore", want, bankValues(fork2))
}

// TestCheckpointRestoreInto proves the buffer-reusing path: restoring over
// a machine that already ran an arbitrary suffix repositions it exactly.
func TestCheckpointRestoreInto(t *testing.T) {
	src := ckptRig(t)
	src.Run(ckptWarm)
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	src.Run(ckptSuffix)
	want := bankValues(src)

	m := cp.Restore()
	m.Run(ckptSuffix / 3) // dirty the machine with a partial suffix
	m.Sync()
	if err := cp.RestoreInto(m); err != nil {
		t.Fatal(err)
	}
	if m.Now() != ckptWarm {
		t.Fatalf("RestoreInto left machine at cycle %d, want %d", m.Now(), ckptWarm)
	}
	m.Run(ckptSuffix)
	diffBanks(t, "restore-into", want, bankValues(m))

	// And again, from a fully-run machine.
	if err := cp.RestoreInto(m); err != nil {
		t.Fatal(err)
	}
	m.Run(ckptSuffix)
	diffBanks(t, "restore-into twice", want, bankValues(m))
}

// TestCheckpointAcrossLaneModes forks one image warmed on the sweep into
// the dispatch oracle and the sweep; both must match the scratch counters
// (digests do not depend on the stepping mode, so the checkpoint must not
// either).
func TestCheckpointAcrossLaneModes(t *testing.T) {
	scratch := ckptRig(t)
	scratch.Run(ckptWarm + ckptSuffix)
	want := bankValues(scratch)

	src := ckptRig(t)
	src.Run(ckptWarm)
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []int{-1, 0} {
		m := cp.Restore()
		m.SetLanes(lanes)
		m.Run(ckptSuffix)
		diffBanks(t, "lanes", want, bankValues(m))
	}
}

// TestCheckpointRestoreThenAttachFlight proves attach-after-restore: a
// flight recorder attached to a restored machine files the same records,
// stage by stage, as one attached to a fresh machine at the same cycle.
func TestCheckpointRestoreThenAttachFlight(t *testing.T) {
	attachRun := func(m *Machine) *obs.Flight {
		f := obs.NewFlight(m.Cores(), 1024, 64)
		f.Enable()
		m.SetFlight(f)
		m.Run(ckptSuffix)
		m.Sync()
		return f
	}

	fresh := ckptRig(t)
	fresh.Run(ckptWarm)
	fA := attachRun(fresh)
	if fA.RecordsTotal() == 0 {
		t.Fatal("flight recorder on fresh machine recorded nothing")
	}

	src := ckptRig(t)
	src.Run(ckptWarm)
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fB := attachRun(cp.Restore())
	if fA.RecordsTotal() != fB.RecordsTotal() {
		t.Fatalf("flight records: fresh %d, restored %d", fA.RecordsTotal(), fB.RecordsTotal())
	}
	for _, cl := range []int{obs.FlightLoad, obs.FlightStore} {
		if fA.Seen(cl) != fB.Seen(cl) {
			t.Fatalf("flight class %d: fresh %d, restored %d", cl, fA.Seen(cl), fB.Seen(cl))
		}
	}
	if a, b := fA.Stages(), fB.Stages(); a != b {
		t.Fatalf("flight stages: fresh %+v, restored %+v", a, b)
	}
}

// TestCheckpointRestoreThenAttachTracer: the trace a recorder attached to
// a restored machine exports is, record for record, the one a recorder
// attached to a fresh machine at the same cycle exports.
func TestCheckpointRestoreThenAttachTracer(t *testing.T) {
	export := func(m *Machine) []obs.TraceRec {
		f := obs.NewFlight(m.Cores(), 1024, 16)
		f.Enable()
		m.SetFlight(f)
		m.Run(ckptSuffix)
		m.Sync()
		return f.Sample(4)
	}

	fresh := ckptRig(t)
	fresh.Run(ckptWarm)
	want := export(fresh)
	if len(want) == 0 {
		t.Fatal("recorder on fresh machine exported nothing")
	}

	src := ckptRig(t)
	src.Run(ckptWarm)
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	m := cp.Restore()
	if m.Flight() != nil {
		t.Fatal("restored machine came with a flight recorder attached")
	}
	got := export(m)
	if len(got) != len(want) {
		t.Fatalf("restored-then-attached recorder exported %d records, fresh %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("export[%d]: restored %+v, fresh %+v", i, got[i], want[i])
		}
	}
}

// TestCheckpointRejectsNonForkableGenerator: attached generators must
// implement workload.Forkable.
func TestCheckpointRejectsNonForkableGenerator(t *testing.T) {
	as := testSpace(t)
	r, _ := as.Alloc(1<<20, mem.Fixed(0))
	m := New(smallConfig(), as)
	m.Attach(0, &loopGen{ops: seqLoads(r.Base, 64, 64, false)})
	m.Run(100_000)
	if _, err := m.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded with a non-Forkable generator")
	}
}

// TestRestoreIntoRejectsConfigMismatch: forks only land on machines built
// from the same spec.
func TestRestoreIntoRejectsConfigMismatch(t *testing.T) {
	src := ckptRig(t)
	src.Run(ckptWarm)
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	other := smallConfig()
	other.LFBEntries++
	m := New(other, testSpace(t))
	if err := cp.RestoreInto(m); err == nil {
		t.Fatal("RestoreInto accepted a machine with a different Config")
	}
}

// TestRestoreIntoDropsCachesOfIdleCores: an image carries only the caches
// of cores that have run.  Restoring an SPR image in which cores 1-31
// never ran over a machine whose core 5 has run drops core 5's caches, and
// attaching core 5 afterwards runs exactly as on a fresh machine.  The
// restore must also stay allocation-free in steady state.
func TestRestoreIntoDropsCachesOfIdleCores(t *testing.T) {
	const late = 5
	var cxl workload.Region
	build := func() *Machine {
		as := testSpace(t)
		local, _ := as.Alloc(2<<20, mem.Fixed(0))
		r, _ := as.Alloc(4<<20, mem.Fixed(2))
		cxl = workload.Region{Base: r.Base, Size: r.Size}
		m := New(SPR(), as)
		m.Attach(0, workload.NewStream(workload.Region{Base: local.Base, Size: local.Size}, 1, 0.2, 11))
		return m
	}
	lateGen := func() workload.Generator { return workload.NewGUPS(cxl, 1, 0.1, 0.5, 12) }

	fresh := build()
	fresh.Run(ckptWarm)
	fresh.Attach(late, lateGen())
	fresh.Run(ckptSuffix)
	want := bankValues(fresh)

	src := build()
	src.Run(ckptWarm)
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cp.shadow.cores {
		if (c.l1 != nil) != (c.id == 0) {
			t.Fatalf("image core %d has caches = %v; only core 0 ran", c.id, c.l1 != nil)
		}
	}

	m := build()
	m.Attach(late, workload.NewStream(cxl, 2, 0.5, 99))
	m.Run(ckptWarm / 2)
	if err := cp.RestoreInto(m); err != nil {
		t.Fatal(err)
	}
	if m.cores[late].l1 != nil || m.cores[late].l2 != nil {
		t.Fatal("RestoreInto kept the caches of a core that never ran in the image")
	}
	if allocs := testing.AllocsPerRun(3, func() {
		if err := cp.RestoreInto(m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state RestoreInto allocates %.0f times", allocs)
	}
	m.Attach(late, lateGen())
	m.Run(ckptSuffix)
	diffBanks(t, "late attach after RestoreInto", want, bankValues(m))
}

// TestCheckpointIdleMachine: the degenerate image (cycle 0, nothing
// attached) round-trips too.
func TestCheckpointIdleMachine(t *testing.T) {
	m := New(smallConfig(), testSpace(t))
	cp, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fork := cp.Restore()
	if fork.Now() != 0 || !fork.Idle() {
		t.Fatalf("restored idle machine: now=%d idle=%v", fork.Now(), fork.Idle())
	}
}

// FuzzCheckpointRoundTrip checkpoints at a fuzzed cycle mid-run — including
// inside hit-dominated runs, with a fault plan active, and on both the
// sweep and the dispatch oracle (a negative lanes argument) — restores,
// runs both to completion, and requires identical counters.  With
// lateCore, core 1 never runs before the checkpoint: the fork lands by
// RestoreInto on a machine whose core 1 has run, and core 1 attaches only
// after it.  Warm-up and suffix are short enough (at most 350k simulated
// cycles per input) that the fuzzer's baseline pass over the seeds ends in
// about a second and a short fuzzing budget goes to mutated inputs.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add(uint32(1_000), int8(-1), false, false)
	f.Add(uint32(50_000), int8(1), true, false)
	f.Add(uint32(99_999), int8(2), false, false)
	f.Add(uint32(137), int8(0), true, false)
	f.Add(uint32(80_000), int8(0), false, true)
	f.Add(uint32(30_000), int8(-1), true, true)
	f.Fuzz(func(t *testing.T, warmRaw uint32, lanes int8, withFaults, lateCore bool) {
		warm := Cycles(warmRaw%100_000) + 1
		suffix := Cycles(50_000)
		laneMode := int(lanes) // SetLanes: negative is the oracle
		var cxl workload.Region
		build := func() *Machine {
			as := testSpace(t)
			local, _ := as.Alloc(2<<20, mem.Fixed(0))
			r, _ := as.Alloc(4<<20, mem.Fixed(2))
			cxl = workload.Region{Base: r.Base, Size: r.Size}
			cfg := smallConfig()
			m := New(cfg, as)
			if withFaults {
				m.SetFaultPlan(0, faultyPlan(0.05))
			}
			m.Attach(0, workload.NewStream(workload.Region{Base: local.Base, Size: local.Size}, 1, 0.2, 11))
			if !lateCore {
				m.Attach(1, workload.NewGUPS(cxl, 1, 0.1, 0.5, 12))
			}
			return m
		}
		attachLate := func(m *Machine) {
			if lateCore {
				m.Attach(1, workload.NewGUPS(cxl, 1, 0.1, 0.5, 12))
			}
		}
		// The reference never pauses, so the round-trip is checked against
		// an uninterrupted run; only a late core must wait for its cycle.
		scratch := build()
		scratch.SetLanes(laneMode)
		if lateCore {
			scratch.Run(warm)
			attachLate(scratch)
			scratch.Run(suffix)
		} else {
			scratch.Run(warm + suffix)
		}
		want := bankValues(scratch)

		src := build()
		src.SetLanes(laneMode)
		src.Run(warm)
		cp, err := src.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		var fork *Machine
		if lateCore {
			// Land the fork on a machine whose core 1 has run.
			fork = build()
			fork.Attach(1, workload.NewStream(cxl, 2, 0.5, 99))
			fork.Run(warm/2 + 1)
			if err := cp.RestoreInto(fork); err != nil {
				t.Fatal(err)
			}
		} else {
			fork = cp.Restore()
		}
		fork.SetLanes(laneMode)
		attachLate(fork)
		fork.Run(suffix)
		got := bankValues(fork)
		if len(want) != len(got) {
			t.Fatalf("bank shapes differ (%d vs %d)", len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("counter %d diverged after round-trip at cycle %d: %d vs %d",
					i, warm, want[i], got[i])
			}
		}
	})
}
