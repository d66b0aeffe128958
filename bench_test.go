// Package bench is the benchmark harness that regenerates every table and
// figure of the paper (DESIGN.md's per-experiment index) plus
// micro-benchmarks of the simulator and profiler hot paths and ablations
// of the design choices.  Run with:
//
//	go test -bench=. -benchmem
package bench

import (
	"testing"

	"pathfinder/internal/core"
	"pathfinder/internal/experiments"
	"pathfinder/internal/mem"
	"pathfinder/internal/obs"
	"pathfinder/internal/pmu"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// --- Paper artifacts (E0-E12) ----------------------------------------------

// BenchmarkMLC regenerates the §2.3 latency/bandwidth table (E0).
func BenchmarkMLC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunMLC(sim.SPR(), true)
		b.ReportMetric(r.Rows[0].LatencyNS, "local_ns")
		b.ReportMetric(r.Rows[2].LatencyNS, "cxl_ns")
		b.ReportMetric(r.Rows[2].BandwidthGB, "cxl_GBps")
	}
}

// BenchmarkFig2CorePMU regenerates Figure 2 (E1).
func BenchmarkFig2CorePMU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig2(sim.SPR(), true)
		if idx := r.WrOnly.MetricIndex("sb_stall_frac"); idx >= 0 {
			b.ReportMetric(r.WrOnly.MeanRatio(idx), "sb_stall_x")
		}
		if idx := r.Main.MetricIndex("cycle_activity.cycles_l1d_miss"); idx >= 0 {
			b.ReportMetric(r.Main.MeanRatio(idx), "l1d_cycles_x")
		}
	}
}

// BenchmarkFig3CHAPMU regenerates Figure 3 (E2).
func BenchmarkFig3CHAPMU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig3(sim.SPR(), true)
		if idx := r.MetricIndex("cycle_activity.stalls_l3_miss"); idx >= 0 {
			b.ReportMetric(r.MeanRatio(idx), "llc_stall_x")
		}
		if idx := r.MetricIndex("llc_miss_drd"); idx >= 0 {
			b.ReportMetric(r.MeanRatio(idx), "drd_miss_x")
		}
	}
}

// BenchmarkFig4UncorePMU regenerates Figure 4 (E3).
func BenchmarkFig4UncorePMU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig4(sim.SPR(), true)
		if idx := r.MetricIndex("imc_rpq_occ"); idx >= 0 {
			b.ReportMetric(r.MeanRatio(idx), "imc_rpq_x")
		}
	}
}

// BenchmarkEMRCharacterization regenerates Figures 14-16 (E4).
func BenchmarkEMRCharacterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig2(sim.EMR(), true)
		if idx := r.Main.MetricIndex("cycle_activity.cycles_l1d_miss"); idx >= 0 {
			b.ReportMetric(r.Main.MeanRatio(idx), "emr_l1d_cycles_x")
		}
	}
}

// BenchmarkTable7PathMap regenerates Table 7 (E5).
func BenchmarkTable7PathMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable7(sim.SPR(), true)
		b.ReportMetric(r.FOTSUncoreHWPF*100, "fots_hwpf_pct")
		b.ReportMetric(r.GCCSReqGrowth, "gccs_growth_x")
	}
}

// BenchmarkFig6StallBreakdown regenerates Figure 6 (E6).
func BenchmarkFig6StallBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig6(sim.SPR(), true)
		b.ReportMetric(r.DownstreamShare()*100, "downstream_pct")
	}
}

// BenchmarkFig7Fig8Interference regenerates Figures 7 and 8 (E7).
func BenchmarkFig7Fig8Interference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig78(sim.SPR(), true)
		b.ReportMetric(r.CoreStallGrowth(), "core_stall_x")
	}
}

// BenchmarkFig9Fig10Contention regenerates Figures 9 and 10 (E8).
func BenchmarkFig9Fig10Contention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig910(sim.SPR(), true)
		b.ReportMetric(r.ThroughputDrop()*100, "tput_drop_pct")
		b.ReportMetric(r.FlexLatencyGrowth(), "flexlat_x")
	}
}

// BenchmarkFig11Bandwidth regenerates Figure 11 (E9).
func BenchmarkFig11Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := experiments.RunFig11(sim.SPR(), true)
		b.ReportMetric(rs[0].Pearson, "mbw_pearson")
		b.ReportMetric(rs[1].Pearson, "gups_pearson")
	}
}

// BenchmarkFig12Locality regenerates Figure 12 (E10).
func BenchmarkFig12Locality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig12(sim.SPR(), true)
		b.ReportMetric(float64(len(r.Runs)), "scenarios")
	}
}

// BenchmarkFig13TPP regenerates Figure 13 / Case 7 (E11).
func BenchmarkFig13TPP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig13(sim.SPR(), true)
		if r.Apps[1].OpsOff > 0 {
			b.ReportMetric(r.Apps[1].OpsOn/r.Apps[1].OpsOff, "gups_speedup_x")
		}
		if r.ColloidOps > 0 {
			b.ReportMetric(r.GuidedOps/r.ColloidOps, "guided_x")
		}
	}
}

// BenchmarkProfilerOverhead regenerates the §5.9 overhead numbers (E12).
func BenchmarkProfilerOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunOverhead(sim.SPR(), true)
		b.ReportMetric(r.CPUOverhead*100, "cpu_overhead_pct")
		b.ReportMetric(r.MemOverheadMB, "mem_MB")
	}
}

// --- Micro-benchmarks of the hot paths ---------------------------------------

func benchRig(b *testing.B, node mem.NodeID) (*sim.Machine, workload.Region) {
	b.Helper()
	as := mem.NewAddressSpace(12, []mem.Node{
		{ID: 0, Kind: mem.LocalDRAM, Capacity: 8 << 30},
		{ID: 1, Kind: mem.CXLDRAM, Device: 0, Capacity: 8 << 30},
	})
	r, err := as.Alloc(64<<20, mem.Fixed(node))
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.SPR()
	cfg.Cores = 4
	cfg.LLCSlices = 8
	cfg.LLCSize = 8 << 20
	return sim.New(cfg, as), workload.Region{Base: r.Base, Size: r.Size}
}

// BenchmarkSimLocalStream measures simulator throughput (ops simulated per
// second) for a local streaming core.
func BenchmarkSimLocalStream(b *testing.B) {
	m, r := benchRig(b, 0)
	g := workload.NewStream(r, 2, 0.2, 1)
	g.Reuse = 4
	m.Attach(0, workload.NewLimit(g, uint64(b.N)))
	b.ResetTimer()
	for m.Core(0).Running() {
		m.Run(1_000_000)
	}
}

// BenchmarkSimCXLStream measures simulator throughput for a CXL stream.
func BenchmarkSimCXLStream(b *testing.B) {
	m, r := benchRig(b, 1)
	g := workload.NewStream(r, 2, 0.2, 1)
	g.Reuse = 4
	m.Attach(0, workload.NewLimit(g, uint64(b.N)))
	b.ResetTimer()
	for m.Core(0).Running() {
		m.Run(1_000_000)
	}
}

// BenchmarkSimMultiCoreStream measures throughput with all four cores
// streaming (two local, two CXL).  Per-op cost is higher than the
// single-core streams because four cores contend in the shared uncore
// and the sweep picks the earliest of four pending steps for every op.
func BenchmarkSimMultiCoreStream(b *testing.B) {
	m, r := benchRig(b, 0)
	rc, err := m.AddressSpace().Alloc(64<<20, mem.Fixed(1))
	if err != nil {
		b.Fatal(err)
	}
	cxlReg := workload.Region{Base: rc.Base, Size: rc.Size}
	g := workload.NewStream(r, 2, 0.2, 1)
	g.Reuse = 4
	m.Attach(0, workload.NewLimit(g, uint64(b.N)))
	for c := 1; c < 4; c++ {
		reg := r
		if c >= 2 {
			reg = cxlReg
		}
		gc := workload.NewStream(reg, 2, 0.2, uint64(c+10))
		gc.Reuse = 4
		m.Attach(c, gc)
	}
	b.ResetTimer()
	for m.Core(0).Running() {
		m.Run(1_000_000)
	}
}

// BenchmarkSimThinkHeavyStream measures a compute-bound core (200 think
// cycles between accesses): long quiet gaps between memory events, the
// sweep's best case.
func BenchmarkSimThinkHeavyStream(b *testing.B) {
	m, r := benchRig(b, 0)
	g := workload.NewStream(r, 200, 0.2, 1)
	g.Reuse = 4
	m.Attach(0, workload.NewLimit(g, uint64(b.N)))
	b.ResetTimer()
	for m.Core(0).Running() {
		m.Run(1_000_000)
	}
}

// BenchmarkCaptureSnapshot measures the cost of a full-machine snapshot
// (formerly BenchmarkSnapshotCapture; the arena capturer recycles snapshots
// through Release, so steady state is allocation-free).
func BenchmarkCaptureSnapshot(b *testing.B) {
	m, r := benchRig(b, 1)
	m.Attach(0, workload.NewStream(r, 2, 0, 1))
	m.Run(500_000)
	cap := core.NewCapturer(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(1000)
		cap.Capture().Release()
	}
}

// BenchmarkPFBuilder measures path-map construction per snapshot.
func BenchmarkPFBuilder(b *testing.B) {
	m, r := benchRig(b, 1)
	m.Attach(0, workload.NewStream(r, 2, 0.2, 1))
	cap := core.NewCapturer(m)
	m.Run(2_000_000)
	s := cap.Capture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.BuildPathMap(s, []int{0})
	}
}

// BenchmarkPFEstimator measures the back-propagation per snapshot.
func BenchmarkPFEstimator(b *testing.B) {
	m, r := benchRig(b, 1)
	k := core.ConstsFor(m.Config())
	m.Attach(0, workload.NewStream(r, 2, 0.2, 1))
	cap := core.NewCapturer(m)
	m.Run(2_000_000)
	s := cap.Capture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.EstimateStalls(s, []int{0}, 0, k)
	}
}

// BenchmarkPFAnalyzer measures the queue estimation per snapshot.
func BenchmarkPFAnalyzer(b *testing.B) {
	m, r := benchRig(b, 1)
	k := core.ConstsFor(m.Config())
	m.Attach(0, workload.NewStream(r, 2, 0.2, 1))
	cap := core.NewCapturer(m)
	m.Run(2_000_000)
	s := cap.Capture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.AnalyzeQueues(s, []int{0}, 0, k)
	}
}

// BenchmarkAnalyzeQueues measures the wait-time attribution per snapshot.
func BenchmarkAnalyzeQueues(b *testing.B) {
	m, r := benchRig(b, 1)
	k := core.ConstsFor(m.Config())
	m.Attach(0, workload.NewStream(r, 2, 0.2, 1))
	cap := core.NewCapturer(m)
	m.Run(2_000_000)
	s := cap.Capture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.AnalyzeQueues(s, []int{0}, 0, k)
	}
}

// BenchmarkEpochLoop measures one full profiler epoch in steady state:
// capture, path map, stall estimate, queue report, digest, release.  The
// simulator is advanced outside the timed region — this is the profiler's
// per-epoch overhead, the number the snapshot arena exists to shrink.  The
// pre-arena pipeline cost ~214us and ~400 allocs per epoch (SnapshotCapture
// + PFBuilder + PFEstimator + PFAnalyzer in pfbench_full.txt); the arena
// target is >=2x faster at <=2 allocs per epoch.
func BenchmarkEpochLoop(b *testing.B) {
	m, r := benchRig(b, 1)
	k := core.ConstsFor(m.Config())
	m.Attach(0, workload.NewStream(r, 2, 0.2, 1))
	cap := core.NewCapturer(m)
	m.Run(2_000_000)
	plan := core.NewPlan(cap.Index(), []int{0}, 0)
	var pm core.PathMap
	var bd core.StallBreakdown
	var qr core.QueueReport
	buf := make(core.Digest, 0, 4096)
	cap.Capture().Release() // warm the recycler
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := cap.Capture()
		plan.BuildPathMapInto(s, &pm)
		plan.EstimateStallsInto(s, k, &bd)
		plan.AnalyzeQueuesInto(s, k, &qr)
		buf = core.AppendDigest(buf[:0], s)
		s.Release()
	}
}

// --- Flight-recorder overhead (always-on must be near-free) --------------------

// BenchmarkSimCXLStreamFlightOff is BenchmarkSimCXLStream with a flight
// recorder attached but disabled: the completion hook costs one nil check
// plus an inlined atomic load.  `make bench-regress` gates this against its
// recorder-free twin from the same run at ≤2% — the flight recorder is
// meant to ride along in production.
func BenchmarkSimCXLStreamFlightOff(b *testing.B) {
	m, r := benchRig(b, 1)
	m.SetFlight(obs.NewFlight(m.Cores(), 4096, 512)) // attached, never enabled
	g := workload.NewStream(r, 2, 0.2, 1)
	g.Reuse = 4
	m.Attach(0, workload.NewLimit(g, uint64(b.N)))
	b.ResetTimer()
	for m.Core(0).Running() {
		m.Run(1_000_000)
	}
}

// BenchmarkSimMultiCoreStreamFlightOff is BenchmarkSimMultiCoreStream with
// a disabled flight recorder attached, gated as a same-run pair at ≤2%.
func BenchmarkSimMultiCoreStreamFlightOff(b *testing.B) {
	m, r := benchRig(b, 0)
	m.SetFlight(obs.NewFlight(m.Cores(), 4096, 512)) // attached, never enabled
	rc, err := m.AddressSpace().Alloc(64<<20, mem.Fixed(1))
	if err != nil {
		b.Fatal(err)
	}
	cxlReg := workload.Region{Base: rc.Base, Size: rc.Size}
	g := workload.NewStream(r, 2, 0.2, 1)
	g.Reuse = 4
	m.Attach(0, workload.NewLimit(g, uint64(b.N)))
	for c := 1; c < 4; c++ {
		reg := r
		if c >= 2 {
			reg = cxlReg
		}
		gc := workload.NewStream(reg, 2, 0.2, uint64(c+10))
		gc.Reuse = 4
		m.Attach(c, gc)
	}
	b.ResetTimer()
	for m.Core(0).Running() {
		m.Run(1_000_000)
	}
}

// BenchmarkSimCXLStreamFlightOn is BenchmarkSimCXLStream with the recorder
// enabled: every completion files a packed record through the per-core
// ring, the quantile sketch, and the histogram.  Gated against the
// FlightOff twin in the same run at 25% — the measured cost is ~18% on
// this stream (the worst case: every op completes a record), and the
// bound catches an accidental allocation or lock-contention regression
// without gating on scheduler noise.
func BenchmarkSimCXLStreamFlightOn(b *testing.B) {
	m, r := benchRig(b, 1)
	fl := obs.NewFlight(m.Cores(), 4096, 512)
	fl.Enable()
	m.SetFlight(fl)
	g := workload.NewStream(r, 2, 0.2, 1)
	g.Reuse = 4
	m.Attach(0, workload.NewLimit(g, uint64(b.N)))
	b.ResetTimer()
	for m.Core(0).Running() {
		m.Run(1_000_000)
	}
}

// --- Checkpoint fork vs scratch sweep (E13, `make bench-sweep`) ---------------

// A warm-heavy 16-point sweep: every config point shares a long warm
// prefix and differs only in a short measured suffix — the shape the
// copy-on-write checkpoint layer exists for.  Scratch re-simulates the
// prefix per point; Forked pays it once, checkpoints, and forks.
const (
	sweepPoints = 16
	sweepWarm   = sim.Cycles(2_000_000)
	sweepSuffix = sim.Cycles(250_000)
)

// sweepBenchRig builds the 4-core mixed local/CXL machine the sweep pair
// forks; every generator is workload.Forkable.
func sweepBenchRig(b *testing.B) *sim.Machine {
	b.Helper()
	as := mem.NewAddressSpace(12, []mem.Node{
		{ID: 0, Kind: mem.LocalDRAM, Capacity: 8 << 30},
		{ID: 1, Kind: mem.CXLDRAM, Device: 0, Capacity: 8 << 30},
	})
	local, err := as.Alloc(32<<20, mem.Fixed(0))
	if err != nil {
		b.Fatal(err)
	}
	cxlr, err := as.Alloc(32<<20, mem.Fixed(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.SPR()
	cfg.Cores = 4
	cfg.LLCSlices = 8
	cfg.LLCSize = 8 << 20
	m := sim.New(cfg, as)
	lr := workload.Region{Base: local.Base, Size: local.Size}
	cr := workload.Region{Base: cxlr.Base, Size: cxlr.Size}
	g0 := workload.NewStream(lr, 2, 0.2, 1)
	g0.Reuse = 4
	m.Attach(0, g0)
	g1 := workload.NewStream(cr, 2, 0.2, 2)
	g1.Reuse = 4
	m.Attach(1, g1)
	m.Attach(2, workload.NewGUPS(cr, 1, 0.1, 0.5, 3))
	m.Attach(3, workload.NewPointerChase(lr, 2, 4))
	return m
}

// BenchmarkSweepScratch is the baseline: every point of the 16-point sweep
// re-simulates the warm prefix before its measured suffix.
func BenchmarkSweepScratch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for p := 0; p < sweepPoints; p++ {
			m := sweepBenchRig(b)
			m.Run(sweepWarm + sweepSuffix)
		}
	}
}

// BenchmarkSweepForked warms once, checkpoints, and runs the same 16-point
// sweep by restoring the frozen image into a reused machine per point —
// the steady-state of experiments.Sweep with a warm cache.  The timed fork
// loop must stay at 0 allocs/op: RestoreInto copies into the machine's
// existing buffers.  `make bench-sweep` gates this at ≤0.5x the Scratch
// twin from the same run (the measured ratio is far lower; the warm/suffix
// cycle ratio alone is 9x).
func BenchmarkSweepForked(b *testing.B) {
	src := sweepBenchRig(b)
	src.Run(sweepWarm)
	cp, err := src.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	m := cp.Restore()
	m.Run(sweepSuffix) // grow every reused buffer before the timed region
	if err := cp.RestoreInto(m); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < sweepPoints; p++ {
			if err := cp.RestoreInto(m); err != nil {
				b.Fatal(err)
			}
			m.Run(sweepSuffix)
		}
	}
}

// --- Ablations of DESIGN.md's called-out choices ------------------------------

// BenchmarkAblationPrefetch quantifies the hardware prefetchers' latency
// hiding on a CXL stream: achieved lines per kilocycle with and without.
func BenchmarkAblationPrefetch(b *testing.B) {
	run := func(pf bool) float64 {
		as := mem.NewAddressSpace(12, []mem.Node{
			{ID: 0, Kind: mem.LocalDRAM, Capacity: 8 << 30},
			{ID: 1, Kind: mem.CXLDRAM, Device: 0, Capacity: 8 << 30},
		})
		r, _ := as.Alloc(64<<20, mem.Fixed(1))
		cfg := sim.SPR()
		cfg.Cores = 2
		cfg.LLCSlices = 8
		cfg.LLCSize = 8 << 20
		if !pf {
			cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
		}
		m := sim.New(cfg, as)
		g := workload.NewStream(workload.Region{Base: r.Base, Size: r.Size}, 1, 0, 3)
		g.Reuse = 4
		m.Attach(0, g)
		m.Run(2_000_000)
		m.Sync()
		return float64(m.Bank("cxl0").Read(pmu.CXLDevCASRd)) / 2000
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(true), "lines_per_kcyc_pf")
		b.ReportMetric(run(false), "lines_per_kcyc_nopf")
	}
}

// BenchmarkAblationPackBuf quantifies the credit-limited throughput effect
// of the device ingress packing-buffer depth.
func BenchmarkAblationPackBuf(b *testing.B) {
	run := func(entries int) float64 {
		as := mem.NewAddressSpace(12, []mem.Node{
			{ID: 0, Kind: mem.LocalDRAM, Capacity: 8 << 30},
			{ID: 1, Kind: mem.CXLDRAM, Device: 0, Capacity: 8 << 30},
		})
		cfg := sim.SPR()
		cfg.Cores = 8
		cfg.LLCSlices = 8
		cfg.LLCSize = 8 << 20
		cfg.PackBufEntries = entries
		m := sim.New(cfg, as)
		for c := 0; c < 8; c++ {
			r, _ := as.Alloc(16<<20, mem.Fixed(1))
			m.Attach(c, workload.NewStream(workload.Region{Base: r.Base, Size: r.Size}, 0, 0, uint64(c+1)))
		}
		m.Run(2_000_000)
		m.Sync()
		return float64(m.Bank("cxl0").Read(pmu.CXLDevCASRd)) * 64 / 1e-3 / 1e9
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(8), "GBps_8credits")
		b.ReportMetric(run(48), "GBps_48credits")
	}
}

// BenchmarkAblationSBDrain quantifies the in-order store-commit constraint:
// SB-full stall share with a fast versus slow drain.
func BenchmarkAblationSBDrain(b *testing.B) {
	run := func(drain sim.Cycles) float64 {
		as := mem.NewAddressSpace(12, []mem.Node{
			{ID: 0, Kind: mem.LocalDRAM, Capacity: 8 << 30},
			{ID: 1, Kind: mem.CXLDRAM, Device: 0, Capacity: 8 << 30},
		})
		r, _ := as.Alloc(32<<20, mem.Fixed(1))
		cfg := sim.SPR()
		cfg.Cores = 2
		cfg.LLCSlices = 8
		cfg.LLCSize = 8 << 20
		cfg.SBDrainCycles = drain
		m := sim.New(cfg, as)
		g := workload.NewStream(workload.Region{Base: r.Base, Size: r.Size}, 1, 1.0, 5)
		g.Reuse = 2
		m.Attach(0, g)
		m.Run(1_500_000)
		m.Sync()
		bank := m.Core(0).Bank()
		clk := float64(bank.Read(pmu.CPUClkUnhalted))
		if clk == 0 {
			return 0
		}
		return float64(bank.Read(pmu.ResourceStallsSB)+bank.Read(pmu.ExeBoundOnStores)) / clk
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(1), "stall_frac_fast")
		b.ReportMetric(run(8), "stall_frac_slow")
	}
}

// --- Extension benchmarks ------------------------------------------------------

// BenchmarkBaselineTMA runs the TMA-vs-PathFinder comparison (the prior
// solution of §2.3 implemented as the baseline).
func BenchmarkBaselineTMA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTMABaseline(sim.SPR(), true)
		// The CXL row's PathFinder CXL-wait share, in percent.
		b.ReportMetric(r.Rows[1].PFCXLFraction*100, "pf_cxl_pct")
		b.ReportMetric(r.Rows[1].TMADRAMBound*100, "tma_dram_pct")
	}
}

// BenchmarkPooledDevices measures bandwidth scaling from one to two pooled
// CXL devices.
func BenchmarkPooledDevices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunPool(sim.SPR(), true)
		b.ReportMetric(r.Bandwidth[0], "GBps_1dev")
		b.ReportMetric(r.Bandwidth[1], "GBps_2dev")
	}
}

// BenchmarkAblationSNC quantifies sub-NUMA clustering: with two clusters,
// a thread's LLC hits split between the near and distant cluster (the
// "snc LLC" serves of Table 7); with clustering off they are all near.
func BenchmarkAblationSNC(b *testing.B) {
	run := func(clusters int) (snc, local float64) {
		as := mem.NewAddressSpace(12, []mem.Node{
			{ID: 0, Kind: mem.LocalDRAM, Capacity: 8 << 30},
			{ID: 1, Kind: mem.CXLDRAM, Device: 0, Capacity: 8 << 30},
		})
		r, _ := as.Alloc(4<<20, mem.Fixed(1))
		cfg := sim.SPR()
		cfg.Cores = 4
		cfg.LLCSlices = 8
		cfg.LLCSize = 16 << 20 // the working set fits: LLC hits dominate
		cfg.SNCClusters = clusters
		m := sim.New(cfg, as)
		// Warm the LLC, then chase within it.
		g := workload.NewPointerChase(workload.Region{Base: r.Base, Size: r.Size}, 1, 3)
		m.Attach(0, workload.NewLimit(g, 300_000))
		for m.Core(0).Running() {
			m.Run(5_000_000)
		}
		m.Sync()
		bank := m.Core(0).Bank()
		return float64(bank.Read(pmu.MemLoadL3HitRetired[2])), // xsnp_no_fwd: distant cluster
			float64(bank.Read(pmu.MemLoadL3HitRetired[0])) // xsnp_none: near slice
	}
	for i := 0; i < b.N; i++ {
		snc2, near2 := run(2)
		snc1, _ := run(1)
		if near2+snc2 > 0 {
			b.ReportMetric(snc2/(near2+snc2)*100, "snc_share_pct")
		}
		b.ReportMetric(snc1, "snc_hits_off")
	}
}
