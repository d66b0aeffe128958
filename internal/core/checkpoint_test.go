package core

import (
	"bytes"
	"testing"

	"pathfinder/internal/sim"
)

// Checkpoint restore-equivalence golden suite: for every fastpath golden
// scenario — including the fault-plan, viral-escalation, and surprise-
// removal cases — a machine restored from a warm checkpoint must produce
// byte-identical per-epoch snapshot digests to a scratch machine that ran
// the same span, on the sweep and on the dispatch oracle.  The Capturer is
// delta-based, so both machines get their capturer attached at the warm
// barrier and only suffix epochs are compared.

// runCheckpointGolden runs scenario `name` three ways — scratch, source
// continued past its own checkpoint, and a fork restored on the dispatch
// oracle or the sweep — and requires identical digests from all three.
func runCheckpointGolden(t *testing.T, name string, oracle bool) {
	epochs, cyc, setup := goldenScenario(t, name)
	warm := cyc // first epoch's worth of cycles is the shared prefix

	scratchDigests := func() []Digest {
		m, localReg, cxlReg := testRig(t)
		cleanup := setup(t, m, region(localReg), region(cxlReg))
		m.Run(warm)
		cap := NewCapturer(m)
		var out []Digest
		for e := 0; e < epochs; e++ {
			m.Run(cyc)
			out = append(out, EncodeDigest(cap.Capture()))
		}
		if cleanup != nil {
			cleanup()
		}
		return out
	}
	want := scratchDigests()

	src, localReg, cxlReg := testRig(t)
	cleanup := setup(t, src, region(localReg), region(cxlReg))
	src.Run(warm)
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatalf("scenario %s: %v", name, err)
	}

	// The source continues unperturbed.
	srcCap := NewCapturer(src)
	for e := 0; e < epochs; e++ {
		src.Run(cyc)
		got := EncodeDigest(srcCap.Capture())
		if !bytes.Equal(want[e], got) {
			t.Errorf("scenario %s: source epoch %d digest diverged after Checkpoint", name, e)
			diffDigests(t, want[e], got)
		}
	}
	if cleanup != nil {
		cleanup()
	}

	// The fork runs the identical suffix on the requested stepping mode.
	fork := cp.Restore()
	fork.SetDispatchOracle(oracle)
	forkCap := NewCapturer(fork)
	for e := 0; e < epochs; e++ {
		fork.Run(cyc)
		got := EncodeDigest(forkCap.Capture())
		if !bytes.Equal(want[e], got) {
			t.Errorf("scenario %s oracle=%v: restored epoch %d digest differs from scratch", name, oracle, e)
			diffDigests(t, want[e], got)
		}
	}
}

func checkpointGoldenAllLanes(t *testing.T, name string) {
	t.Helper()
	for _, oracle := range []bool{true, false} {
		runCheckpointGolden(t, name, oracle)
	}
}

func TestCheckpointGoldenSingleCoreLocal(t *testing.T) {
	checkpointGoldenAllLanes(t, "SingleCoreLocal")
}

func TestCheckpointGoldenSingleCoreCXL(t *testing.T) {
	checkpointGoldenAllLanes(t, "SingleCoreCXL")
}

func TestCheckpointGoldenMultiCoreMixed(t *testing.T) {
	checkpointGoldenAllLanes(t, "MultiCoreMixed")
}

func TestCheckpointGoldenFaultPlan(t *testing.T) {
	checkpointGoldenAllLanes(t, "FaultPlan")
}

func TestCheckpointGoldenSurpriseRemoval(t *testing.T) {
	checkpointGoldenAllLanes(t, "SurpriseRemoval")
}

// TestCheckpointGoldenLaneTransitions pins restore-then-SetDispatchOracle
// ordering: switching between the sweep and the dispatch oracle between
// suffix epochs on a restored machine must match a fresh machine making the
// same transitions at the same cycles.
func TestCheckpointGoldenLaneTransitions(t *testing.T) {
	const name = "MultiCoreMixed"
	epochs, cyc, setup := goldenScenario(t, name)
	warm := cyc
	transitions := []bool{false, true, false}

	run := func(m *sim.Machine) []Digest {
		cap := NewCapturer(m)
		var out []Digest
		for e := 0; e < epochs; e++ {
			m.SetDispatchOracle(transitions[e%len(transitions)])
			m.Run(cyc)
			out = append(out, EncodeDigest(cap.Capture()))
		}
		return out
	}

	fresh, localReg, cxlReg := testRig(t)
	setup(t, fresh, region(localReg), region(cxlReg))
	fresh.Run(warm)
	want := run(fresh)

	src, localReg2, cxlReg2 := testRig(t)
	setup(t, src, region(localReg2), region(cxlReg2))
	src.Run(warm)
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	got := run(cp.Restore())
	for e := range want {
		if !bytes.Equal(want[e], got[e]) {
			t.Errorf("epoch %d digest differs across restore-then-SetDispatchOracle transitions", e)
			diffDigests(t, want[e], got[e])
		}
	}
}
