package core

import (
	"bytes"
	"testing"

	"pathfinder/internal/cxl"
	"pathfinder/internal/obs"
	"pathfinder/internal/pmu"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// Sweep equivalence: the sequential sweep executes every op inline,
// advancing the engine clock without event-engine round-trips.  It must be
// invisible to every observable: these tests run identical fixed-seed
// scenarios on the sweep and on the dispatch oracle (one queued core step
// per op, SetDispatchOracle(true)), and require the captured snapshot
// digests — every PMU counter of every bank, serialized — to be
// byte-identical per epoch.

// fastpathScenario configures a freshly built rig (workloads, fault
// plans, flight recorder).  It runs twice per test, once per engine mode, so both
// machines see identical construction order and workload seeds.  The
// returned cleanup (may be nil) runs after each machine finishes.
type fastpathScenario func(t *testing.T, m *sim.Machine, local, cxlReg workload.Region) func()

type fastpathRun struct {
	digests []Digest
	now     sim.Cycles
	inline  uint64
}

func runFastpath(t *testing.T, fast bool, epochs int, cyc sim.Cycles, setup fastpathScenario) fastpathRun {
	t.Helper()
	m, localReg, cxlReg := testRig(t)
	m.SetDispatchOracle(!fast)
	cleanup := setup(t, m, region(localReg), region(cxlReg))
	cap := NewCapturer(m)
	var out fastpathRun
	for e := 0; e < epochs; e++ {
		m.Run(cyc)
		out.digests = append(out.digests, EncodeDigest(cap.Capture()))
	}
	if cleanup != nil {
		cleanup()
	}
	out.now = m.Now()
	out.inline = m.InlineSteps()
	return out
}

// fastpathGolden asserts byte-identical digests between the two modes and
// that the fast-path run actually exercised inline stepping.
func fastpathGolden(t *testing.T, epochs int, cyc sim.Cycles, setup fastpathScenario) {
	t.Helper()
	on := runFastpath(t, true, epochs, cyc, setup)
	off := runFastpath(t, false, epochs, cyc, setup)
	if on.now != off.now {
		t.Fatalf("final clock differs: fast=%d dispatch=%d", on.now, off.now)
	}
	if on.inline == 0 {
		t.Fatal("sweep run executed zero inline steps")
	}
	if off.inline != 0 {
		t.Fatalf("dispatch-only run reported %d inline steps", off.inline)
	}
	for e := range on.digests {
		if !bytes.Equal(on.digests[e], off.digests[e]) {
			t.Errorf("epoch %d digest differs between the sweep and the dispatch oracle", e)
			diffDigests(t, on.digests[e], off.digests[e])
		}
	}
}

// diffDigests decodes both digests and reports the first few differing
// counters, so a divergence points at the responsible subsystem instead
// of an opaque byte offset.
func diffDigests(t *testing.T, a, b Digest) {
	t.Helper()
	sa, ea := DecodeDigest(a, pmu.Default.Len())
	sb, eb := DecodeDigest(b, pmu.Default.Len())
	if ea != nil || eb != nil {
		t.Logf("decode failed: %v / %v", ea, eb)
		return
	}
	shown := 0
	for _, name := range sa.idx.names {
		da, db := sa.bankDelta(name), sb.bankDelta(name)
		for e := range da {
			if da[e] != db[e] && shown < 8 {
				t.Logf("  %s[%d]: fast=%d dispatch=%d", name, e, da[e], db[e])
				shown++
			}
		}
	}
}

// goldenScenarios is the shared scenario table: the sweep-equivalence
// suite (this file) and the checkpoint goldens run each entry against the
// dispatch oracle and require byte-identical digests.  The tracer scenario
// stays a standalone test because it captures tracer statistics.
var goldenScenarios = []struct {
	name   string
	epochs int
	cyc    sim.Cycles
	setup  fastpathScenario
}{
	{"SingleCoreLocal", 3, 1_000_000,
		func(t *testing.T, m *sim.Machine, local, _ workload.Region) func() {
			m.Attach(0, workload.NewStream(local, 2, 0.2, 1))
			return nil
		}},
	{"SingleCoreCXL", 3, 1_000_000,
		func(t *testing.T, m *sim.Machine, _, cxlReg workload.Region) func() {
			m.Attach(0, workload.NewStream(cxlReg, 2, 0.2, 2))
			return nil
		}},
	{"MultiCoreMixed", 3, 1_500_000,
		func(t *testing.T, m *sim.Machine, local, cxlReg workload.Region) func() {
			m.Attach(0, workload.NewStream(local, 2, 0.2, 1))
			m.Attach(1, workload.NewStream(cxlReg, 2, 0.3, 2))
			m.Attach(2, workload.NewPointerChase(cxlReg, 2, 3))
			m.Attach(3, workload.NewStream(local, 0, 0, 4))
			return nil
		}},
	{"FaultPlan", 3, 1_500_000,
		func(t *testing.T, m *sim.Machine, local, cxlReg workload.Region) func() {
			m.SetFaultPlan(0, &cxl.FaultPlan{
				Seed:    7,
				CRCRate: [2]float64{0.01, 0.01},
				Bursts: []cxl.Burst{
					{Dir: cxl.DirS2M, Start: 200_000, Len: 100_000, Period: 500_000, Rate: 0.4},
				},
				Timeouts:       []cxl.Episode{{Start: 400_000, Len: 50_000, Period: 600_000}},
				PoisonBase:     0,
				PoisonLen:      1 << 10,
				ViralThreshold: 64,
				ViralReset:     300_000,
			})
			m.Attach(0, workload.NewStream(cxlReg, 2, 0.2, 3))
			m.Attach(2, workload.NewStream(local, 2, 0.2, 4))
			return nil
		}},
	{"SurpriseRemoval", 3, 800_000,
		func(t *testing.T, m *sim.Machine, local, cxlReg workload.Region) func() {
			m.SetFaultPlan(0, &cxl.FaultPlan{Seed: 1, RemoveAt: 500_000})
			m.Attach(0, workload.NewStream(cxlReg, 0, 0, 1))
			m.Attach(1, workload.NewStream(local, 2, 0.2, 2))
			return nil
		}},
}

// goldenScenario returns the named entry of goldenScenarios.
func goldenScenario(t *testing.T, name string) (int, sim.Cycles, fastpathScenario) {
	t.Helper()
	for _, s := range goldenScenarios {
		if s.name == name {
			return s.epochs, s.cyc, s.setup
		}
	}
	t.Fatalf("unknown golden scenario %q", name)
	return 0, 0, nil
}

func TestFastpathGoldenSingleCoreLocal(t *testing.T) {
	e, c, s := goldenScenario(t, "SingleCoreLocal")
	fastpathGolden(t, e, c, s)
}

func TestFastpathGoldenSingleCoreCXL(t *testing.T) {
	e, c, s := goldenScenario(t, "SingleCoreCXL")
	fastpathGolden(t, e, c, s)
}

func TestFastpathGoldenMultiCoreMixed(t *testing.T) {
	e, c, s := goldenScenario(t, "MultiCoreMixed")
	fastpathGolden(t, e, c, s)
}

func TestFastpathGoldenFaultPlan(t *testing.T) {
	e, c, s := goldenScenario(t, "FaultPlan")
	fastpathGolden(t, e, c, s)
}

func TestFastpathGoldenSurpriseRemoval(t *testing.T) {
	e, c, s := goldenScenario(t, "SurpriseRemoval")
	fastpathGolden(t, e, c, s)
}

// traceScenario runs the flight recorder tests' two-stream load with a
// recorder whose rings wrap, and at cleanup stores into out the trace
// /trace would serve at -trace-sample 4: the records, rendered for
// Perfetto.
func traceScenario(out *[]byte) fastpathScenario {
	return func(t *testing.T, m *sim.Machine, local, cxlReg workload.Region) func() {
		fl := obs.NewFlight(m.Cores(), 512, 16)
		fl.Enable()
		m.SetFlight(fl)
		m.Attach(0, workload.NewStream(cxlReg, 2, 0.2, 5))
		m.Attach(1, workload.NewStream(local, 2, 0.2, 6))
		return func() {
			var buf bytes.Buffer
			if err := obs.WriteChromeTrace(&buf, fl.Sample(4), 2, nil); err != nil {
				t.Fatal(err)
			}
			*out = buf.Bytes()
		}
	}
}

// checkTrace fails unless the rendered trace draws both memory paths.
func checkTrace(t *testing.T, trace []byte) {
	t.Helper()
	for _, stage := range []obs.Stage{obs.StageCXLMedia, obs.StageIMC} {
		if !bytes.Contains(trace, []byte(`"name":"`+stage.String()+`"`)) {
			t.Fatalf("trace has no %s event", stage)
		}
	}
}

// TestFastpathGoldenTracerAttached: the exported trace is byte-identical
// between the sweep and the dispatch oracle.
func TestFastpathGoldenTracerAttached(t *testing.T) {
	var fast, oracle []byte
	i := 0
	fastpathGolden(t, 2, 1_000_000,
		func(t *testing.T, m *sim.Machine, local, cxlReg workload.Region) func() {
			out := &fast
			if i > 0 {
				out = &oracle
			}
			i++
			return traceScenario(out)(t, m, local, cxlReg)
		})
	checkTrace(t, fast)
	if !bytes.Equal(fast, oracle) {
		t.Fatal("trace differs between the sweep and the dispatch oracle")
	}
}

// TestFastpathGoldenFlightAttached: the always-on flight recorder files a
// record for every completed request, so it is active on every inline
// step.  Digests must stay byte-identical with it enabled, and the
// recorder must see the identical request population, stage by stage, in
// both stepping modes.
func TestFastpathGoldenFlightAttached(t *testing.T) {
	var stats [2]struct {
		records, promoted uint64
		stages            obs.StageTotals
	}
	i := 0
	fastpathGolden(t, 2, 1_000_000,
		func(t *testing.T, m *sim.Machine, local, cxlReg workload.Region) func() {
			fl := obs.NewFlight(m.Cores(), 2048, 128)
			fl.Enable()
			m.SetFlight(fl)
			m.Attach(0, workload.NewStream(cxlReg, 2, 0.2, 5))
			m.Attach(1, workload.NewStream(local, 2, 0.2, 6))
			slot := &stats[i]
			i++
			return func() {
				slot.records = fl.RecordsTotal()
				slot.promoted = fl.Promoted()
				slot.stages = fl.Stages()
			}
		})
	if stats[0] != stats[1] {
		t.Fatalf("flight stats differ: fast=%+v dispatch=%+v", stats[0], stats[1])
	}
	if stats[0].records == 0 {
		t.Fatal("flight recorder filed no records")
	}
	checkStagePartition(t, stats[0].stages, obs.StageCXLMedia, obs.StageIMC)
	if stats[0].promoted == 0 {
		t.Fatal("no promotions over a mixed local/CXL run; threshold pipeline dead")
	}
}

// TestFastpathStepEquivalence drives the same workload via one long Run
// and via many short Run slices, requiring identical digests: the sweep
// must never step past a Run bound in an observable way.
func TestFastpathStepEquivalence(t *testing.T) {
	run := func(slices int, each sim.Cycles) Digest {
		m, localReg, cxlReg := testRig(t)
		m.Attach(0, workload.NewStream(region(localReg), 2, 0.2, 9))
		m.Attach(1, workload.NewStream(region(cxlReg), 2, 0.1, 10))
		cap := NewCapturer(m)
		for i := 0; i < slices; i++ {
			m.Run(each)
		}
		return EncodeDigest(cap.Capture())
	}
	whole := run(1, 1_200_000)
	sliced := run(1200, 1_000)
	if !bytes.Equal(whole, sliced) {
		t.Fatal("digest differs between one Run and 1200 sliced Runs")
	}
	finer := run(300, 4_000)
	if !bytes.Equal(whole, finer) {
		t.Fatal("digest differs between one Run and 300 sliced Runs")
	}
}

// TestFastpathCounters checks the introspection counters behave as
// documented: inline steps dominate dispatches on a hit-heavy stream, and
// the dispatch oracle routes every op through the engine.
func TestFastpathCounters(t *testing.T) {
	m, localReg, _ := testRig(t)
	m.Attach(0, workload.NewStream(region(localReg), 2, 0.2, 1))
	m.Run(500_000)
	in, ev := m.InlineSteps(), m.DispatchedEvents()
	if in == 0 {
		t.Fatal("no inline steps on a hit-dominated stream")
	}
	if in < ev {
		t.Errorf("inline steps (%d) should dominate dispatched events (%d) on a local stream", in, ev)
	}
	m2, localReg2, _ := testRig(t)
	m2.SetDispatchOracle(true)
	m2.Attach(0, workload.NewStream(region(localReg2), 2, 0.2, 1))
	m2.Run(500_000)
	if m2.InlineSteps() != 0 {
		t.Fatalf("dispatch oracle recorded %d inline steps", m2.InlineSteps())
	}
	if m2.DispatchedEvents() == 0 {
		t.Fatal("dispatch-only run recorded no dispatched events")
	}
}
