package core

import (
	"bytes"
	"fmt"
	"testing"

	"pathfinder/internal/obs"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// Lane-count equivalence: SetLanes still accepts the lane counts of the
// removed window scheduler, and every n >= 0 must select the sequential
// sweep.  perfbench and old scripts pass such counts, so each scenario runs
// a short prefix at each count and must match the dispatch oracle byte for
// byte.  The full-length sweep-vs-oracle comparison is fastpath_test.go's.

// windowPrefix is the span each lane-count row runs: long enough for every
// scenario to miss to CXL and contend, short enough that the table stays
// cheap next to the full-length goldens.
const windowPrefix = sim.Cycles(100_000)

// runWindowMode executes a golden scenario with the given SetLanes value:
// -1 is the dispatch oracle, anything else the sweep.
func runWindowMode(t *testing.T, lanes, epochs int, cyc sim.Cycles, setup fastpathScenario) fastpathRun {
	t.Helper()
	m, localReg, cxlReg := testRig(t)
	m.SetLanes(lanes)
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

// windowLaneConfigs are the former lane settings: the sequential sweep, two
// parallel lanes, one lane per core, and auto.
var windowLaneConfigs = []int{1, 2, 4, 0}

// sameRun fails unless got matches the oracle run base: same final clock,
// same digest every epoch, and inline stepping actually used.
func sameRun(t *testing.T, tag string, got, base fastpathRun) {
	t.Helper()
	if got.now != base.now {
		t.Fatalf("%s: final clock differs: %d vs oracle %d", tag, got.now, base.now)
	}
	if got.inline == 0 {
		t.Fatalf("%s: executed zero inline steps", tag)
	}
	for e := range got.digests {
		if !bytes.Equal(got.digests[e], base.digests[e]) {
			t.Errorf("%s: epoch %d digest differs from the dispatch oracle", tag, e)
			diffDigests(t, got.digests[e], base.digests[e])
		}
	}
}

func TestWindowGoldenScenarios(t *testing.T) {
	for _, sc := range goldenScenarios {
		t.Run(sc.name, func(t *testing.T) {
			base := runWindowMode(t, -1, 1, windowPrefix, sc.setup)
			if base.inline != 0 {
				t.Fatalf("oracle run reported %d inline steps", base.inline)
			}
			for _, lanes := range windowLaneConfigs {
				t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
					sameRun(t, "sweep", runWindowMode(t, lanes, 1, windowPrefix, sc.setup), base)
				})
			}
		})
	}
}

// TestWindowGoldenTracerEnabled: with an enabled sampling tracer, every
// lane count still runs the sweep, and the tracer observes the same
// request population as on the oracle.
func TestWindowGoldenTracerEnabled(t *testing.T) {
	type stats struct{ committed, dropped uint64 }
	run := func(lanes int) (fastpathRun, stats) {
		var st stats
		out := runWindowMode(t, lanes, 2, windowPrefix,
			func(t *testing.T, m *sim.Machine, local, cxlReg workload.Region) func() {
				tr := obs.NewTracer(1<<14, 4)
				tr.Enable()
				m.SetTracer(tr)
				m.Attach(0, workload.NewStream(cxlReg, 2, 0.2, 5))
				m.Attach(1, workload.NewStream(local, 2, 0.2, 6))
				return func() { _, st.committed, st.dropped = tr.Stats() }
			})
		return out, st
	}
	base, baseStats := run(-1)
	if baseStats.committed == 0 {
		t.Fatal("tracer committed no records")
	}
	for _, lanes := range windowLaneConfigs {
		got, gotStats := run(lanes)
		sameRun(t, fmt.Sprintf("lanes=%d", lanes), got, base)
		if gotStats != baseStats {
			t.Fatalf("lanes=%d: tracer stats differ: %+v vs %+v", lanes, gotStats, baseStats)
		}
	}
}

// TestWindowGoldenFlightEnabled: with an enabled flight recorder, every
// lane count still runs the sweep, and the recorder files the same records
// as on the oracle.
func TestWindowGoldenFlightEnabled(t *testing.T) {
	run := func(lanes int) (fastpathRun, uint64) {
		var records uint64
		out := runWindowMode(t, lanes, 2, windowPrefix,
			func(t *testing.T, m *sim.Machine, local, cxlReg workload.Region) func() {
				fl := obs.NewFlight(m.Cores(), 2048, 128)
				fl.Enable()
				m.SetFlight(fl)
				m.Attach(0, workload.NewStream(cxlReg, 2, 0.2, 5))
				m.Attach(1, workload.NewStream(local, 2, 0.2, 6))
				return func() { records = fl.RecordsTotal() }
			})
		return out, records
	}
	base, baseRecords := run(-1)
	if baseRecords == 0 {
		t.Fatal("flight recorder filed no records")
	}
	for _, lanes := range windowLaneConfigs {
		got, records := run(lanes)
		sameRun(t, fmt.Sprintf("lanes=%d", lanes), got, base)
		if records != baseRecords {
			t.Fatalf("lanes=%d: flight saw %d records, oracle %d", lanes, records, baseRecords)
		}
	}
}

// TestWindowStepEquivalence drives the same two-core workload through one
// oracle Run and through many short sweep slices at a former parallel lane
// count: the sweep must never step past a Run bound in an observable way.
func TestWindowStepEquivalence(t *testing.T) {
	run := func(lanes, slices int, each sim.Cycles) Digest {
		m, localReg, cxlReg := testRig(t)
		m.SetLanes(lanes)
		m.Attach(0, workload.NewStream(region(localReg), 2, 0.2, 9))
		m.Attach(1, workload.NewStream(region(cxlReg), 2, 0.1, 10))
		cap := NewCapturer(m)
		for i := 0; i < slices; i++ {
			m.Run(each)
		}
		return EncodeDigest(cap.Capture())
	}
	whole := run(-1, 1, 3*windowPrefix)
	if sliced := run(2, 300, windowPrefix/100); !bytes.Equal(whole, sliced) {
		t.Fatal("digest differs between one oracle Run and 300 sliced sweep Runs")
	}
}

// TestWindowStatsPopulated: the deprecated window counters stay zero, since
// the sweep opens no windows at any lane count.
func TestWindowStatsPopulated(t *testing.T) {
	m, localReg, cxlReg := testRig(t)
	m.SetLanes(2)
	m.Attach(0, workload.NewStream(region(localReg), 2, 0.2, 1))
	m.Attach(1, workload.NewStream(region(cxlReg), 2, 0.3, 2))
	m.Run(windowPrefix)
	if ws := m.WindowStats(); ws != (sim.WindowStats{}) {
		t.Fatalf("window counters = %+v, want zero", ws)
	}
	if m.InlineSteps() == 0 {
		t.Fatal("SetLanes(2) did not select the sweep")
	}
}
