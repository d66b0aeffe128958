package core

import (
	"math"
	"strings"
	"testing"

	"pathfinder/internal/mem"
	"pathfinder/internal/obs"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// TestSpanResidencyMatchesQueueAnalysis is the flight recorder's
// ground-truth check: for a pure pointer chase on CXL memory, the
// per-stage residency of every recorded request must agree with the
// Little's-law queue estimates AnalyzeQueues derives from the PMU
// occupancy integrals — the CXL-path acceptance criterion (within 10%).
func TestSpanResidencyMatchesQueueAnalysis(t *testing.T) {
	as := mem.NewAddressSpace(12, []mem.Node{
		{ID: 0, Kind: mem.LocalDRAM, Capacity: 8 << 30},
		{ID: 1, Kind: mem.CXLDRAM, Device: 0, Capacity: 8 << 30},
	})
	cxl, err := as.Alloc(16<<20, mem.Fixed(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.SPR()
	cfg.Cores = 4
	cfg.LLCSlices = 8
	cfg.LLCSize = 4 << 20
	// Demand-only traffic: with prefetchers on, unrecorded prefetch
	// requests would widen the PMU integrals relative to the demand stages.
	cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
	m := sim.New(cfg, as)

	fl := obs.NewFlight(m.Cores(), 64, 8)
	fl.Enable()
	m.SetFlight(fl)
	m.Attach(0, workload.NewPointerChase(region(cxl), 2, 7))

	c := NewCapturer(m)
	m.Run(2_000_000)
	snap := c.Capture()
	k := ConstsFor(cfg)
	plan := NewPlan(c.Index(), []int{0}, 0)
	var qr QueueReport
	plan.AnalyzeQueuesInto(snap, k, &qr)

	if fl.RecordsTotal() == 0 {
		t.Fatal("no records filed")
	}
	st := fl.Stages()
	checkStagePartition(t, st, obs.StageCXLMedia, obs.StageCXLRet)
	clocks := snap.Cycles()

	within := func(name string, got, want, tol float64) {
		t.Helper()
		if want == 0 {
			t.Fatalf("%s: estimate is zero (got %g observed)", name, got)
		}
		if rel := math.Abs(got-want) / want; rel > tol {
			t.Fatalf("%s: observed %.4f vs estimated %.4f (%.1f%% off, tol %.0f%%)",
				name, got, want, rel*100, tol*100)
		}
	}

	// CXL DIMM queue: the estimate prices Σ(data - devArrive) through the
	// RPQ + packing-buffer occupancy integrals; the records hold the same
	// interval directly as the cxl_devq + cxl_media stages.
	obsDIMM := float64(st.Cycles[obs.StageCXLDevQ]+st.Cycles[obs.StageCXLMedia]) / clocks
	within("CXL DIMM queue", obsDIMM, qr.Q[PathDRd][CompCXLDIMM], 0.10)

	// FlexBus+MC: estimate is rate x (M2PCIe ingress residency + link
	// transit); the observed analog uses the m2pcie stage and the count
	// of records that crossed it.
	nReads := float64(st.Spans[obs.StageM2PCIe])
	obsFlex := float64(st.Cycles[obs.StageM2PCIe])/clocks + (nReads/clocks)*k.LinkTransit
	within("FlexBus+MC queue", obsFlex, qr.Q[PathDRd][CompFlexBusMC], 0.10)
}

// checkStagePartition fails unless the stages partition the requests —
// their cycles sum to the "req" stage's — and every stage in want was
// reached by some record.
func checkStagePartition(t *testing.T, st obs.StageTotals, want ...obs.Stage) {
	t.Helper()
	var sum uint64
	for s := obs.StageCore; s < obs.StageLRSM; s++ {
		sum += st.Cycles[s]
	}
	if sum != st.Cycles[obs.StageReq] {
		t.Fatalf("stages sum to %d cycles, requests took %d: %+v", sum, st.Cycles[obs.StageReq], st)
	}
	for _, s := range want {
		if st.Spans[s] == 0 {
			t.Fatalf("no record reached stage %s: %+v", s, st)
		}
	}
}

// TestProfilerPublishesMetrics checks the epoch loop's registry series:
// exactly the names one profiler registers, epochs counted, pool
// effectiveness, and every epoch's snapshot spanning the full EpochCycles.
func TestProfilerPublishesMetrics(t *testing.T) {
	as := mem.NewAddressSpace(12, []mem.Node{
		{ID: 0, Kind: mem.LocalDRAM, Capacity: 8 << 30},
		{ID: 1, Kind: mem.CXLDRAM, Device: 0, Capacity: 8 << 30},
	})
	cxl, err := as.Alloc(1<<20, mem.Fixed(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.SPR()
	cfg.Cores = 2
	cfg.LLCSlices = 2
	cfg.LLCSize = 1 << 20
	m := sim.New(cfg, as)

	reg := obs.NewRegistry()
	p, err := NewProfiler(Spec{
		Machine:     m,
		Apps:        []AppRun{{Label: "chase", Core: 0, Gen: workload.NewPointerChase(region(cxl), 2, 3)}},
		EpochCycles: 100_000,
		Epochs:      3,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r, err := p.Step()
		if err != nil {
			t.Fatal(err)
		}
		if span := r.Snapshot.End - r.Snapshot.Start; span != 100_000 {
			t.Fatalf("epoch %d snapshot spans %d cycles, want 100000", i, span)
		}
		if r.Truncated || r.Note != "" {
			t.Fatalf("epoch %d: truncated=%v note=%q", i, r.Truncated, r.Note)
		}
		r.Snapshot.Release() // recycle so later captures hit the pool
	}

	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(text.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			names = append(names, f[2])
		}
	}
	want := []string{
		"pf_cxl_error_completions_total",
		"pf_cxl_fast_fails_total",
		"pf_cxl_isolated_devices",
		"pf_cxl_link_crc_errors_total",
		"pf_cxl_link_replay_bytes_total",
		"pf_cxl_link_retries_total",
		"pf_cxl_viral_entries_total",
		"pf_engine_inline_steps",
		"pf_profiler_epochs_total",
		"pf_snapshot_pool_hits_total",
		"pf_snapshot_pool_misses_total",
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("registered series:\n  %s\nwant:\n  %s",
			strings.Join(names, "\n  "), strings.Join(want, "\n  "))
	}

	if got := reg.Counter("pf_profiler_epochs_total", "").Value(); got != 3 {
		t.Fatalf("pf_profiler_epochs_total = %d, want 3", got)
	}
	hits := reg.Counter("pf_snapshot_pool_hits_total", "").Value()
	misses := reg.Counter("pf_snapshot_pool_misses_total", "").Value()
	if hits+misses != 3 {
		t.Fatalf("pool hits+misses = %d+%d, want 3 captures", hits, misses)
	}
	if hits < 2 {
		t.Fatalf("released snapshots not recycled: hits=%d misses=%d", hits, misses)
	}
	if reg.Counter("pf_engine_inline_steps", "").Value() == 0 {
		t.Fatal("pf_engine_inline_steps is 0: the sweep did not step inline")
	}
}
