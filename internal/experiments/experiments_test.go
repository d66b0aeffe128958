package experiments

import (
	"testing"

	"pathfinder/internal/core"
	"pathfinder/internal/sim"
)

// The experiment tests assert the paper's qualitative shapes (who wins, by
// roughly what factor, where crossovers fall) on quick runs.  The slower
// sweeps are skipped under -short.

func TestMLCShape(t *testing.T) {
	r := RunMLC(sim.SPR(), true)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	local, numa, cxl := r.Rows[0], r.Rows[1], r.Rows[2]
	// §2.3: 103.2 ns / 131.1 GB/s local; 163.6 / 94.4 NUMA; 355.3 / 17.6 CXL.
	within := func(got, want, tol float64) bool {
		return got > want*(1-tol) && got < want*(1+tol)
	}
	if !within(local.LatencyNS, 103.2, 0.10) {
		t.Errorf("local latency %.1f ns, want ~103", local.LatencyNS)
	}
	if !within(numa.LatencyNS, 163.6, 0.10) {
		t.Errorf("NUMA latency %.1f ns, want ~164", numa.LatencyNS)
	}
	if !within(cxl.LatencyNS, 355.3, 0.10) {
		t.Errorf("CXL latency %.1f ns, want ~355", cxl.LatencyNS)
	}
	if !within(local.BandwidthGB, 131.1, 0.15) {
		t.Errorf("local bandwidth %.1f GB/s, want ~131", local.BandwidthGB)
	}
	if !within(cxl.BandwidthGB, 17.6, 0.15) {
		t.Errorf("CXL bandwidth %.1f GB/s, want ~17.6", cxl.BandwidthGB)
	}
	if !(cxl.LatencyNS > numa.LatencyNS && numa.LatencyNS > local.LatencyNS) {
		t.Error("latency ordering violated")
	}
	if !(local.BandwidthGB > numa.BandwidthGB && numa.BandwidthGB > cxl.BandwidthGB) {
		t.Error("bandwidth ordering violated")
	}
}

func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization sweep")
	}
	r := RunFig2(sim.SPR(), true)
	// CXL raises miss-outstanding cycles and the response wait (Fig 2 b).
	for _, name := range []string{"cycle_activity.cycles_l1d_miss", "load_resp_wait",
		"cycle_activity.cycles_l2_miss"} {
		idx := r.Main.MetricIndex(name)
		if idx < 0 {
			t.Fatalf("metric %q missing", name)
		}
		if ratio := r.Main.MeanRatio(idx); ratio < 1.2 {
			t.Errorf("%s CXL/local = %.2f, want > 1.2", name, ratio)
		}
	}
	// WR-only SB stalls grow under CXL (paper: ~2x).
	idx := r.WrOnly.MetricIndex("sb_stall_frac")
	if ratio := r.WrOnly.MeanRatio(idx); ratio < 1.5 || ratio > 6 {
		t.Errorf("WR-only SB stall ratio = %.2f, want within [1.5, 6]", ratio)
	}
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization sweep")
	}
	r := RunFig3(sim.SPR(), true)
	// LLC stalls and DRd response grow; DRd misses grow (paper: 2.1x, 1.8x, 4.2x).
	for _, tc := range []struct {
		name string
		min  float64
	}{
		{"cycle_activity.stalls_l3_miss", 1.5},
		{"drd_l3_resp", 1.5},
		{"llc_miss_drd", 1.3},
	} {
		idx := r.MetricIndex(tc.name)
		if idx < 0 {
			t.Fatalf("metric %q missing", tc.name)
		}
		if ratio := r.MeanRatio(idx); ratio < tc.min {
			t.Errorf("%s ratio = %.2f, want > %.1f", tc.name, ratio, tc.min)
		}
	}
	// Misses are served by CXL, not local DRAM, in the CXL placement.
	iLocal := r.MetricIndex("serve_local_dram")
	iCXL := r.MetricIndex("serve_cxl")
	for a := range r.Apps {
		if r.CXL[a][iLocal] != 0 {
			t.Errorf("%s: CXL run served %f from local DRAM", r.Apps[a], r.CXL[a][iLocal])
		}
		if r.CXL[a][iCXL] == 0 {
			t.Errorf("%s: CXL run served nothing from CXL", r.Apps[a])
		}
	}
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization sweep")
	}
	r := RunFig4(sim.SPR(), true)
	// Figure 4-a: CXL streams leave the IMC queues empty.
	iRPQ := r.MetricIndex("imc_rpq_occ")
	for a := range r.Apps {
		if r.CXL[a][iRPQ] != 0 {
			t.Errorf("%s: CXL run queued %f in the IMC RPQ", r.Apps[a], r.CXL[a][iRPQ])
		}
		if r.Local[a][iRPQ] == 0 {
			t.Errorf("%s: local run left the IMC RPQ idle", r.Apps[a])
		}
	}
	// CXL loads flow through the M2PCIe port only in the CXL placement.
	iCXLLoads := r.MetricIndex("cxl_loads")
	for a := range r.Apps {
		if r.Local[a][iCXLLoads] != 0 || r.CXL[a][iCXLLoads] == 0 {
			t.Errorf("%s: cxl_loads local=%f cxl=%f", r.Apps[a],
				r.Local[a][iCXLLoads], r.CXL[a][iCXLLoads])
		}
	}
}

func TestTable7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization sweep")
	}
	r := RunTable7(sim.SPR(), true)
	// §5.2: FOTS per-core hot path is DRd; HWPF dominates the uncore.
	if r.FOTSHotCore != core.PathDRd {
		t.Errorf("FOTS core hot path = %v, want DRd", r.FOTSHotCore)
	}
	if r.FOTSHotUncore != core.PathHWPF {
		t.Errorf("FOTS uncore hot path = %v, want HW PF", r.FOTSHotUncore)
	}
	if r.FOTSUncoreHWPF < 0.4 {
		t.Errorf("FOTS HWPF uncore share = %.2f, want > 0.4 (paper: 0.59)", r.FOTSUncoreHWPF)
	}
	// GCCS snapshots differ substantially in request volume (paper: 5.8x).
	if r.GCCSReqGrowth < 1.5 {
		t.Errorf("GCCS snapshot growth = %.2f, want > 1.5", r.GCCSReqGrowth)
	}
	// Every workload shows CXL-served traffic on the DRd path.
	for i, pm := range r.Maps {
		if pm.Load[core.PathDRd][core.LvlCXL] == 0 {
			t.Errorf("%s: no CXL DRd traffic", r.Labels[i])
		}
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("stall-breakdown sweep")
	}
	r := RunFig6(sim.SPR(), true)
	// Figure 6: FlexBus+MC and the CXL DIMM dominate the DRd stall
	// (paper: e.g. 42.7% + 40.3% for fft).
	if share := r.DownstreamShare(); share < 0.5 {
		t.Errorf("downstream stall share = %.2f, want > 0.5", share)
	}
	// All apps produce a DRd breakdown that sums to 1.
	for i, bd := range r.Stalls {
		if bd.Total(core.PathDRd) == 0 {
			t.Errorf("%s: empty DRd breakdown", r.Apps[i])
			continue
		}
		var sum float64
		for _, c := range core.Components() {
			sum += bd.Share(core.PathDRd, c)
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: shares sum to %f", r.Apps[i], sum)
		}
	}
}

func TestFig78Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("interference sweep")
	}
	r := RunFig78(sim.SPR(), true)
	if len(r.Loads) != 5 {
		t.Fatalf("steps = %d", len(r.Loads))
	}
	// In-core CXL-induced stalls grow with the CXL share (paper: 1.7-2.4x).
	if g := r.CoreStallGrowth(); g < 1.5 {
		t.Errorf("core stall growth = %.2f, want > 1.5", g)
	}
	// FlexBus+MC queueing grows with the CXL share (Figure 8-d trend).
	flexIdx := -1
	for i, n := range r.Queues.Names {
		if n == "FlexBus+MC" {
			flexIdx = i
		}
	}
	n := len(r.Queues.X)
	if r.Queues.Y[flexIdx][n-1] <= r.Queues.Y[flexIdx][0] {
		t.Errorf("FlexBus queue did not grow: %v", r.Queues.Y[flexIdx])
	}
}

func TestFig910Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("contention sweep")
	}
	r := RunFig910(sim.SPR(), true)
	// Paper: throughput -77.4%; FlexBus latency 4.3x; L1D queue shrinks.
	if d := r.ThroughputDrop(); d < 0.4 {
		t.Errorf("throughput drop = %.2f, want > 0.4", d)
	}
	if g := r.FlexLatencyGrowth(); g < 1.5 {
		t.Errorf("FlexBus latency growth = %.2f, want > 1.5", g)
	}
	n := len(r.Queues.X)
	if r.Queues.Y[0][n-1] >= r.Queues.Y[0][0] {
		t.Errorf("L1D queue did not shrink under contention: %v", r.Queues.Y[0])
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("bandwidth-partition sweep")
	}
	rs := RunFig11(sim.SPR(), true)
	for _, r := range rs {
		// Paper: Pearson(request frequency, bandwidth) = 0.998.
		if r.Pearson < 0.9 {
			t.Errorf("%s: Pearson = %.3f, want > 0.9", r.Scenario, r.Pearson)
		}
		// Contention degrades every instance, non-uniformly.
		minDeg, maxDeg := 1.0, 0.0
		for i := range r.Solo {
			if r.Solo[i] <= 0 {
				t.Fatalf("%s-%d: no solo bandwidth", r.Scenario, i)
			}
			d := 1 - r.Contended[i]/r.Solo[i]
			if d < minDeg {
				minDeg = d
			}
			if d > maxDeg {
				maxDeg = d
			}
		}
		if maxDeg < 0.3 {
			t.Errorf("%s: max degradation %.2f, want > 0.3", r.Scenario, maxDeg)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("locality sweep")
	}
	r := RunFig12(sim.SPR(), true)
	if len(r.Runs) != 3 {
		t.Fatalf("scenarios = %d", len(r.Runs))
	}
	for _, run := range r.Runs {
		if run.MissBefore <= 0 {
			t.Errorf("%s: no baseline misses", run.Label)
		}
		if run.Windows < 1 {
			t.Errorf("%s: no locality windows detected", run.Label)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("tiering sweep")
	}
	r := RunFig13(sim.SPR(), true)
	if len(r.Apps) != 3 {
		t.Fatalf("apps = %d", len(r.Apps))
	}
	for _, a := range r.Apps {
		// TPP shifts serves from CXL to local (Figure 13-a) and never
		// hurts throughput.
		if a.CXLHitsOn >= a.CXLHitsOff {
			t.Errorf("%s: CXL serves did not drop (%f -> %f)", a.Name, a.CXLHitsOff, a.CXLHitsOn)
		}
		if a.LocalHitsOn <= a.LocalHitsOff {
			t.Errorf("%s: local serves did not rise", a.Name)
		}
		if a.OpsOn < a.OpsOff*0.95 {
			t.Errorf("%s: TPP hurt throughput (%f -> %f)", a.Name, a.OpsOff, a.OpsOn)
		}
		if a.Promoted == 0 {
			t.Errorf("%s: nothing promoted", a.Name)
		}
	}
	// GUPS gains substantially (paper: 3.0x; broad band here).
	if g := r.Apps[1]; g.OpsOn/g.OpsOff < 1.15 {
		t.Errorf("GUPS TPP speedup = %.2f, want > 1.15", g.OpsOn/g.OpsOff)
	}
	// The PathFinder-guided Colloid variant beats plain Colloid (paper: 1.1x).
	if r.GuidedOps <= r.ColloidOps {
		t.Errorf("guided Colloid (%f) did not beat plain (%f)", r.GuidedOps, r.ColloidOps)
	}
}

func TestOverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead measurement")
	}
	r := RunOverhead(sim.SPR(), true)
	// The profiler must stay lightweight (paper: 1.3% CPU, 38 MB).  The
	// simulated bound is generous: the analyses must not add more than
	// 30% on top of pure simulation, and memory stays bounded.
	if r.CPUOverhead > 0.30 {
		t.Errorf("CPU overhead = %.1f%%, want < 30%%", r.CPUOverhead*100)
	}
	if r.MemOverheadMB > 200 {
		t.Errorf("memory overhead = %.0f MB, want < 200", r.MemOverheadMB)
	}
}

func TestRigHelpers(t *testing.T) {
	rig := NewRig(RigOptions{Cores: 2, Scale: 4})
	if rig.Machine.Cores() != 2 {
		t.Fatalf("cores = %d", rig.Machine.Cores())
	}
	r := rig.Alloc(mb, rig.CXLNode)
	if r.Size != mb {
		t.Fatalf("alloc size = %d", r.Size)
	}
	if rig.Space.KindOf(r.Base).String() != "cxl" {
		t.Fatal("allocation not on CXL node")
	}
	if ns := rig.cyclesToNS(200); ns != 100 {
		t.Fatalf("cyclesToNS(200) = %v at 2 GHz", ns)
	}
}

func TestTMABaselineShape(t *testing.T) {
	r := RunTMABaseline(sim.SPR(), true)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	local, cxl := r.Rows[0], r.Rows[1]
	// The paper's argument: TMA's verdict is the same memory-bound label
	// for both placements, while PathFinder separates them.
	if local.TMABottleneck != cxl.TMABottleneck {
		t.Fatalf("TMA distinguished placements: %q vs %q", local.TMABottleneck, cxl.TMABottleneck)
	}
	if local.PFCXLFraction != 0 {
		t.Fatalf("PathFinder attributed %v CXL waiting to a local run", local.PFCXLFraction)
	}
	if cxl.PFCXLFraction < 0.8 {
		t.Fatalf("PathFinder CXL share = %v, want > 0.8", cxl.PFCXLFraction)
	}
	if cxl.PFTopComponent != "FlexBus+MC" && cxl.PFTopComponent != "CXL DIMM" {
		t.Fatalf("PF top component = %q", cxl.PFTopComponent)
	}
}

func TestPoolShape(t *testing.T) {
	if testing.Short() {
		t.Skip("pooling sweep")
	}
	r := RunPool(sim.SPR(), true)
	if len(r.Devices) != 2 {
		t.Fatalf("configs = %d", len(r.Devices))
	}
	// Two devices should deliver substantially more bandwidth and lower
	// latency than one under the same aggregate load.
	if r.Bandwidth[1] < r.Bandwidth[0]*1.5 {
		t.Fatalf("pool bandwidth scaling: %v -> %v", r.Bandwidth[0], r.Bandwidth[1])
	}
	if r.AvgLatency[1] >= r.AvgLatency[0] {
		t.Fatalf("pool latency did not improve: %v -> %v", r.AvgLatency[0], r.AvgLatency[1])
	}
	// Stall attribution splits roughly evenly across the two RCs.
	if s := r.StallSplit[1]; s < 0.3 || s > 0.7 {
		t.Fatalf("dev0 stall share = %v, want ~0.5", s)
	}
}

func TestFaultsShape(t *testing.T) {
	r := RunFaults(sim.SPR(), true)
	if len(r.Rates) != len(r.Culprits) || len(r.Rates) != len(r.Sweep.X) {
		t.Fatalf("ragged sweep: %d rates, %d culprits, %d points",
			len(r.Rates), len(r.Culprits), len(r.Sweep.X))
	}
	for i, rate := range r.Rates {
		crc := r.At(i, faultColCRCErrors)
		retries := r.At(i, faultColRetries)
		if rate == 0 {
			if crc != 0 || retries != 0 {
				t.Errorf("healthy link counted %v CRC errors, %v retries", crc, retries)
			}
			continue
		}
		if crc == 0 || retries == 0 {
			t.Errorf("rate %v injected nothing (crc=%v retries=%v)", rate, crc, retries)
		}
		if r.At(i, faultColReplayKiB) == 0 {
			t.Errorf("rate %v replayed no bytes", rate)
		}
	}
	// Fault-domain localization at -quick: media-bound when healthy,
	// link-bound once the CRC rate reaches 1e-3.
	if r.Culprits[0] != "CXL DIMM" {
		t.Errorf("healthy culprit = %q, want CXL DIMM", r.Culprits[0])
	}
	for i, rate := range r.Rates {
		if rate >= 1e-3 && r.Culprits[i] != "FlexBus+MC" {
			t.Errorf("culprit at rate %v = %q, want FlexBus+MC", rate, r.Culprits[i])
		}
	}
	// Dev-timeout episodes only fire at the top rate.
	if n := len(r.Rates) - 1; r.At(n, faultColTimeouts) == 0 {
		t.Errorf("no device timeouts at rate %v", r.Rates[n])
	}
	if d := r.ThroughputDrop(); d <= 0.05 {
		t.Errorf("throughput drop = %.3f, want noticeable loss", d)
	}
}

// TestFaultsFullLength runs the sweep at full length (2M-cycle epochs, as
// pfbench -exp faults without -quick).  The healthy link's culprit depends
// on the length: FlexBus+MC here (flexbus_q 57.01 against cxl_dimm_q
// 34.56), the CXL DIMM at -quick.  The shift to FlexBus+MC once the CRC
// rate reaches 1e-3 holds at both lengths.
func TestFaultsFullLength(t *testing.T) {
	r := RunFaults(sim.SPR(), false)
	for i, rate := range r.Rates {
		if rate >= 1e-3 && r.Culprits[i] != "FlexBus+MC" {
			t.Errorf("culprit at rate %v = %q (flexbus_q %.2f, cxl_dimm_q %.2f), want FlexBus+MC",
				rate, r.Culprits[i], r.At(i, faultColFlexQ), r.At(i, faultColDIMMQ))
		}
	}
}

func TestFaultsDeterministic(t *testing.T) {
	a := RunFaults(sim.SPR(), true)
	b := RunFaults(sim.SPR(), true)
	for col := range a.Sweep.Names {
		for i := range a.Sweep.X {
			if a.Sweep.Y[col][i] != b.Sweep.Y[col][i] {
				t.Fatalf("%s at rate %v differs across runs: %v vs %v",
					a.Sweep.Names[col], a.Rates[i], a.Sweep.Y[col][i], b.Sweep.Y[col][i])
			}
		}
	}
	for i := range a.Culprits {
		if a.Culprits[i] != b.Culprits[i] {
			t.Fatalf("culprit at rate %v differs: %q vs %q",
				a.Rates[i], a.Culprits[i], b.Culprits[i])
		}
	}
}
