package core

import (
	"testing"

	"pathfinder/internal/mem"
	"pathfinder/internal/pmu"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// testRig builds a small machine with a local and a CXL node and two
// allocated regions.
func testRig(t *testing.T) (*sim.Machine, mem.Region, mem.Region) {
	t.Helper()
	as := mem.NewAddressSpace(12, []mem.Node{
		{ID: 0, Kind: mem.LocalDRAM, Capacity: 8 << 30},
		{ID: 1, Kind: mem.CXLDRAM, Device: 0, Capacity: 8 << 30},
	})
	local, err := as.Alloc(16<<20, mem.Fixed(0))
	if err != nil {
		t.Fatal(err)
	}
	cxl, err := as.Alloc(16<<20, mem.Fixed(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.SPR()
	cfg.Cores = 4
	cfg.LLCSlices = 8
	cfg.LLCSize = 4 << 20
	return sim.New(cfg, as), local, cxl
}

func region(r mem.Region) workload.Region {
	return workload.Region{Base: r.Base, Size: r.Size}
}

func runProfiler(t *testing.T, m *sim.Machine, apps []AppRun, epochs int) (*Profiler, []*EpochResult) {
	t.Helper()
	p, err := NewProfiler(Spec{
		Machine:     m,
		Apps:        apps,
		EpochCycles: 400_000,
		Epochs:      epochs,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

// --- Model -----------------------------------------------------------------

func TestGraphModel(t *testing.T) {
	g := NewGraph(4, 8, 2, 1)
	if len(g.Vertices) == 0 || len(g.Edges) == 0 {
		t.Fatal("empty graph")
	}
	// Every core reaches the CXL DIMM through the Clos stages.
	for c := 0; c < 4; c++ {
		dimms := g.ReachableDIMMs(c)
		if len(dimms) != 1 {
			t.Fatalf("core %d reaches %d DIMMs", c, len(dimms))
		}
		if g.Vertices[dimms[0]].Kind != VtxCXLDIMM {
			t.Fatal("reachable vertex is not a DIMM")
		}
	}
	if g.FindVertex(VtxCore, 99) != -1 {
		t.Fatal("found nonexistent vertex")
	}
	v := g.FindVertex(VtxCHA, 3)
	if v < 0 || g.Vertices[v].Label != "cha3" {
		t.Fatalf("cha3 lookup: %d", v)
	}
	if g.ReachableDIMMs(99) != nil {
		t.Fatal("unknown core reached DIMMs")
	}
	// A CHA fans out to both IMCs and the M2PCIe port.
	succ := g.Succ(g.FindVertex(VtxCHA, 0))
	if len(succ) != 3 {
		t.Fatalf("CHA out-degree = %d, want 3 (2 IMC + 1 M2P)", len(succ))
	}
}

func TestEnumStrings(t *testing.T) {
	if PathDRd.String() != "DRd" || PathHWPF.String() != "HW PF" {
		t.Fatal("path names")
	}
	if CompFlexBusMC.String() != "FlexBus+MC" || CompCXLDIMM.String() != "CXL DIMM" {
		t.Fatal("component names")
	}
	if LvlSNCLLC.String() != "snc LLC" || LvlCXL.String() != "CXL Memory" {
		t.Fatal("level names")
	}
	f := MFlow{App: "redis", Core: 3, Target: LvlCXL}
	if f.String() != "redis: core3<->CXL Memory" {
		t.Fatalf("flow string: %q", f.String())
	}
	if len(Paths()) != int(PathCount) || len(Components()) != int(CompCount) || len(Levels()) != int(LevelCount) {
		t.Fatal("enum list lengths")
	}
}

// --- Snapshot ---------------------------------------------------------------

func TestSnapshotDeltas(t *testing.T) {
	m, local, _ := testRig(t)
	cap := NewCapturer(m)
	m.Attach(0, workload.NewStream(region(local), 2, 0, 1))

	m.Run(200_000)
	s1 := cap.Capture()
	m.Run(200_000)
	s2 := cap.Capture()

	if s1.Seq != 0 || s2.Seq != 1 {
		t.Fatalf("sequence numbers: %d, %d", s1.Seq, s2.Seq)
	}
	if s1.End != s2.Start {
		t.Fatal("epochs not contiguous")
	}
	l1 := s1.Core(0, pmu.MemInstAllLoads)
	l2 := s2.Core(0, pmu.MemInstAllLoads)
	if l1 == 0 || l2 == 0 {
		t.Fatalf("per-epoch loads: %v, %v", l1, l2)
	}
	m.Sync()
	total := float64(m.Core(0).Bank().Read(pmu.MemInstAllLoads))
	if l1+l2 != total {
		t.Fatalf("delta sum %v != total %v", l1+l2, total)
	}
	if s1.NumCores() != 4 || s1.NumCHA() != 8 || s1.NumCXL() != 1 {
		t.Fatalf("bank census: cores=%d cha=%d cxl=%d", s1.NumCores(), s1.NumCHA(), s1.NumCXL())
	}
}

func TestSnapshotScopedSums(t *testing.T) {
	m, local, _ := testRig(t)
	cap := NewCapturer(m)
	m.Attach(0, workload.NewStream(region(local), 2, 0, 1))
	m.Attach(1, workload.NewStream(region(local), 2, 0, 2))
	m.Run(300_000)
	s := cap.Capture()
	both := s.CoreSum([]int{0, 1}, pmu.MemInstAllLoads)
	all := s.CoreSum(nil, pmu.MemInstAllLoads)
	only0 := s.CoreSum([]int{0}, pmu.MemInstAllLoads)
	if both != all {
		t.Fatalf("scoped sum %v != all-core sum %v", both, all)
	}
	if only0 == 0 || only0 >= both {
		t.Fatalf("core0 share: %v of %v", only0, both)
	}
}

// --- PFBuilder ---------------------------------------------------------------

func TestPathMapLocalVsCXL(t *testing.T) {
	m, local, cxl := testRig(t)
	cap := NewCapturer(m)
	m.Attach(0, workload.NewStream(region(local), 1, 0.2, 1))
	m.Attach(1, workload.NewStream(region(cxl), 1, 0.2, 2))
	m.Run(3_000_000)
	s := cap.Capture()

	pmLocal := BuildPathMap(s, []int{0})
	pmCXL := BuildPathMap(s, []int{1})

	if pmLocal.Load[PathDRd][LvlCXL] != 0 {
		t.Fatalf("local flow shows CXL DRd traffic: %v", pmLocal.Load[PathDRd][LvlCXL])
	}
	if pmLocal.Load[PathDRd][LvlLocalDRAM] == 0 {
		t.Fatal("local flow shows no local-DRAM DRd traffic")
	}
	if pmCXL.Load[PathDRd][LvlCXL] == 0 {
		t.Fatal("CXL flow shows no CXL DRd traffic")
	}
	if pmCXL.Load[PathDRd][LvlLocalDRAM] != 0 {
		t.Fatalf("CXL flow shows local DRd traffic: %v", pmCXL.Load[PathDRd][LvlLocalDRAM])
	}
	// Streaming triggers the prefetchers: HWPF path must carry CXL traffic.
	if pmCXL.Load[PathHWPF][LvlCXL] == 0 {
		t.Fatal("CXL flow shows no HWPF CXL traffic")
	}
	// The L1D absorbs most hits for a sequential sweep.
	if pmCXL.Load[PathDRd][LvlL1D] == 0 {
		t.Fatal("no L1D hits recorded")
	}
	if got := pmCXL.CXLShare(PathDRd); got < 0.5 {
		t.Fatalf("CXL share of DRd uncore traffic = %v, want > 0.5", got)
	}
	if got := pmLocal.CXLShare(PathDRd); got != 0 {
		t.Fatalf("local flow CXL share = %v", got)
	}
}

func TestPathMapStores(t *testing.T) {
	m, _, cxl := testRig(t)
	cap := NewCapturer(m)
	// Write-only stream with word-granular reuse: the first store to each
	// line RFOs it, the rest are absorbed by the SB/L1 (M state).
	g := workload.NewStream(region(cxl), 1, 1.0, 3)
	g.Reuse = 8
	m.Attach(0, g)
	m.Run(5_000_000)
	s := cap.Capture()
	pm := BuildPathMap(s, []int{0})
	if pm.Load[PathDWr][LvlSB] == 0 {
		t.Fatal("no SB-absorbed stores")
	}
	if pm.Load[PathRFO][LvlCXL] == 0 {
		t.Fatal("write stream to CXL produced no RFO CXL traffic")
	}
	if pm.Load[PathDWr][LvlCXL] == 0 {
		t.Fatal("no CXL writebacks recorded")
	}
	if pm.PathTotal(PathDWr) == 0 || pm.LevelTotal(LvlCXL) == 0 {
		t.Fatal("aggregate helpers returned zero")
	}
}

func TestHotPathHelpers(t *testing.T) {
	m, _, cxl := testRig(t)
	cap := NewCapturer(m)
	g := workload.NewStream(region(cxl), 1, 0, 4)
	g.Reuse = 8 // word-granular: demand hits dominate the core levels
	m.Attach(0, g)
	m.Run(3_000_000)
	s := cap.Capture()
	pm := BuildPathMap(s, []int{0})
	if got := pm.HotPathCore(); got != PathDRd {
		t.Fatalf("core hot path = %v, want DRd (L1 hits dominate)", got)
	}
	hot, share := pm.HotPathUncore()
	if share <= 0 || share > 1 {
		t.Fatalf("uncore hot-path share = %v", share)
	}
	// Sequential streaming: prefetch should dominate uncore traffic, as in
	// the paper's 649.fotonik3d_s example (59.3% of uncore accesses).
	if hot != PathHWPF {
		t.Fatalf("uncore hot path = %v, want HW PF", hot)
	}
}

// --- PFEstimator --------------------------------------------------------------

func TestCXLWaitFraction(t *testing.T) {
	m, local, cxl := testRig(t)
	cap := NewCapturer(m)
	m.Attach(0, workload.NewPointerChase(region(local), 2, 1))
	m.Run(2_000_000)
	sLocal := cap.Capture()
	if f := CXLWaitFraction(sLocal); f != 0 {
		t.Fatalf("local-only CXL wait fraction = %v", f)
	}
	m.Detach(0)
	m.Attach(1, workload.NewPointerChase(region(cxl), 2, 2))
	m.Run(2_000_000)
	sCXL := cap.Capture()
	if f := CXLWaitFraction(sCXL); f < 0.5 {
		t.Fatalf("CXL-only wait fraction = %v, want > 0.5", f)
	}
}

func TestStallBreakdownShape(t *testing.T) {
	m, _, cxl := testRig(t)
	k := ConstsFor(m.Config())
	cap := NewCapturer(m)
	m.Attach(0, workload.NewPointerChase(region(cxl), 2, 5))
	m.Run(4_000_000)
	s := cap.Capture()

	bd := EstimateStalls(s, []int{0}, 0, k)
	if bd.Total(PathDRd) == 0 {
		t.Fatal("no DRd stall attributed")
	}
	// The paper's Figure 6: FlexBus+MC and the CXL DIMM dominate the
	// CXL-induced DRd stall (e.g. 42.7% + 40.3% for fft).
	down := bd.Share(PathDRd, CompFlexBusMC) + bd.Share(PathDRd, CompCXLDIMM)
	if down < 0.5 {
		t.Fatalf("downstream stall share = %v, want > 0.5", down)
	}
	// Shares sum to 1.
	var sum float64
	for _, c := range Components() {
		sum += bd.Share(PathDRd, c)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestStallBreakdownLocalFlowIsClean(t *testing.T) {
	m, local, _ := testRig(t)
	k := ConstsFor(m.Config())
	cap := NewCapturer(m)
	m.Attach(0, workload.NewPointerChase(region(local), 2, 6))
	m.Run(2_000_000)
	s := cap.Capture()
	bd := EstimateStalls(s, []int{0}, 0, k)
	for _, p := range Paths() {
		if tot := bd.Total(p); tot != 0 {
			t.Fatalf("local-only flow attributed %v CXL stall on %v", tot, p)
		}
	}
}

// --- PFAnalyzer ---------------------------------------------------------------

func TestAnalyzerCulpritUnderCXLSaturation(t *testing.T) {
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
	// Wide MLP so the cores are not the bottleneck: the contention must
	// manifest at the shared FlexBus/device, as in the paper's Case 4.
	cfg.LFBEntries = 64
	cfg.PFMaxInFlight = 32
	m := sim.New(cfg, as)
	k := ConstsFor(cfg)
	cap := NewCapturer(m)
	for c := 0; c < 4; c++ {
		m.Attach(c, workload.NewStream(region(cxl), 0, 0, uint64(c+1)))
	}
	m.Run(2_500_000)
	s := cap.Capture()
	qr := AnalyzeQueues(s, nil, 0, k)
	if qr.CulpritComp != CompFlexBusMC && qr.CulpritComp != CompCXLDIMM && qr.CulpritComp != CompLFB {
		t.Fatalf("culprit = %v on %v, want a CXL-pressure component", qr.CulpritPath, qr.CulpritComp)
	}
	// Under device saturation the FlexBus+MC queue must dwarf its
	// light-load value.
	heavy := qr.Q[PathDRd][CompFlexBusMC] + qr.Q[PathHWPF][CompFlexBusMC]
	if heavy <= 0 {
		t.Fatal("no FlexBus+MC queueing under saturation")
	}
	meas := MeasuredQueues(s, nil, 0)
	if meas[CompFlexBusMC]+meas[CompCXLDIMM] < 5 {
		t.Fatalf("device-side measured queues too small under saturation: %v", meas)
	}
}

func TestAnalyzerAgainstMeasured(t *testing.T) {
	m, _, cxl := testRig(t)
	k := ConstsFor(m.Config())
	cap := NewCapturer(m)
	m.Attach(0, workload.NewPointerChase(region(cxl), 1, 7))
	m.Run(4_000_000)
	s := cap.Capture()
	qr := AnalyzeQueues(s, []int{0}, 0, k)
	meas := MeasuredQueues(s, []int{0}, 0)

	// The LFB estimate must land within 3x of the directly-integrated
	// occupancy (Little's law over measured delays).
	est := qr.Q[PathDRd][CompLFB]
	got := meas[CompLFB]
	if got <= 0 || est <= 0 {
		t.Fatalf("LFB queues: est=%v meas=%v", est, got)
	}
	if est > got*3 || est < got/3 {
		t.Fatalf("LFB estimate %v vs measured %v (off by >3x)", est, got)
	}
}

// --- PFMaterializer -------------------------------------------------------------

func TestMaterializerLocalityWindows(t *testing.T) {
	m, local, cxl := testRig(t)
	p, err := NewProfiler(Spec{
		Machine: m,
		Apps: []AppRun{{
			Label: "phased",
			Core:  0,
			Gen: workload.NewPhased(
				workload.Phase{Gen: workload.NewStream(region(local), 1, 0, 1), Ops: 30000},
				workload.Phase{Gen: workload.NewPointerChase(region(cxl), 1, 2), Ops: 30000},
			),
		}},
		EpochCycles: 300_000,
		Epochs:      20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	ws := p.Materializer().LocalityWindows("phased", LvlL1D, 0.5)
	if len(ws) < 2 {
		t.Fatalf("phased workload produced %d locality windows, want >= 2", len(ws))
	}
	trend := p.Materializer().HitTrend("phased", LvlL1D, 3)
	if len(trend) == 0 {
		t.Fatal("empty hit trend")
	}
}

func TestMaterializerCorrelate(t *testing.T) {
	m, _, cxl := testRig(t)
	half := cxl.Size / 2
	apps := []AppRun{
		{Label: "a", Core: 0, Gen: workload.NewStream(workload.Region{Base: cxl.Base, Size: half}, 0, 0, 1)},
		{Label: "b", Core: 1, Gen: workload.NewStream(workload.Region{Base: cxl.Base + half, Size: half}, 0, 0, 2)},
	}
	p, res := runProfiler(t, m, apps, 10)
	if len(res) != 10 {
		t.Fatalf("epochs = %d", len(res))
	}
	r, err := p.Materializer().Correlate("a", "b", LvlCXL)
	if err != nil {
		t.Fatal(err)
	}
	if r < -1 || r > 1 {
		t.Fatalf("correlation out of range: %v", r)
	}
}

// --- Profiler -------------------------------------------------------------------

func TestProfilerEndToEnd(t *testing.T) {
	m, local, cxl := testRig(t)
	apps := []AppRun{
		{Label: "loc", Core: 0, Gen: workload.NewStream(region(local), 1, 0.1, 1)},
		{Label: "cxl", Core: 1, Gen: workload.NewStream(region(cxl), 1, 0.1, 2)},
	}
	p, res := runProfiler(t, m, apps, 5)
	for i, r := range res {
		if r.Snapshot.Seq != i {
			t.Fatalf("epoch %d has seq %d", i, r.Snapshot.Seq)
		}
		for _, label := range []string{"loc", "cxl"} {
			if r.PathMaps[label] == nil || r.Stalls[label] == nil || r.Queues[label] == nil {
				t.Fatalf("epoch %d missing analyses for %q", i, label)
			}
		}
	}
	last := res[len(res)-1]
	if last.PathMaps["cxl"].Load[PathDRd][LvlCXL] == 0 {
		t.Fatal("cxl app shows no CXL traffic")
	}
	if last.PathMaps["loc"].Load[PathDRd][LvlCXL] != 0 {
		t.Fatal("local app shows CXL traffic")
	}
	flows := p.Flows("cxl", last.PathMaps["cxl"])
	foundCXL := false
	for _, f := range flows {
		if f.Target == LvlCXL {
			foundCXL = true
		}
	}
	if !foundCXL {
		t.Fatalf("no CXL mFlow derived: %v", flows)
	}
	if got := p.AppCores("cxl"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("AppCores = %v", got)
	}
}

// TestWatchdogDisabledRunsFull checks that Run, with no wall-clock limit
// on the epoch loop, yields full-length epochs that are never truncated.
func TestWatchdogDisabledRunsFull(t *testing.T) {
	m, local, _ := testRig(t)
	p, err := NewProfiler(Spec{
		Machine:     m,
		Apps:        []AppRun{{Label: "s", Core: 0, Gen: workload.NewStream(region(local), 2, 0, 3)}},
		EpochCycles: 300_000,
		Epochs:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("Run returned %d epochs, want 2", len(res))
	}
	for i, r := range res {
		if r.Truncated || r.Note != "" {
			t.Fatalf("epoch %d: truncated=%v note=%q", i, r.Truncated, r.Note)
		}
		if win := r.Snapshot.End - r.Snapshot.Start; win != 300_000 {
			t.Fatalf("epoch %d spans %d cycles", i, win)
		}
	}
}

func TestProfilerSpecValidation(t *testing.T) {
	m, local, _ := testRig(t)
	gen := workload.NewStream(region(local), 1, 0, 1)
	cases := []Spec{
		{Apps: []AppRun{{Label: "x", Core: 0, Gen: gen}}, EpochCycles: 1, Epochs: 1},  // nil machine
		{Machine: m, EpochCycles: 1, Epochs: 1},                                       // no apps
		{Machine: m, Apps: []AppRun{{Label: "x", Core: 0, Gen: gen}}, Epochs: 1},      // no epoch len
		{Machine: m, Apps: []AppRun{{Label: "x", Core: 0, Gen: gen}}, EpochCycles: 1}, // no epochs
		{Machine: m, Apps: []AppRun{{Label: "x", Core: 99, Gen: gen}}, EpochCycles: 1, Epochs: 1},
		{Machine: m, Apps: []AppRun{
			{Label: "x", Core: 0, Gen: gen}, {Label: "y", Core: 0, Gen: gen},
		}, EpochCycles: 1, Epochs: 1}, // core conflict
	}
	for i, spec := range cases {
		if _, err := NewProfiler(spec); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestEstimateStallsAll(t *testing.T) {
	m, _, cxl := testRig(t)
	k := ConstsFor(m.Config())
	cap := NewCapturer(m)
	m.Attach(0, workload.NewPointerChase(region(cxl), 2, 5))
	m.Run(2_000_000)
	s := cap.Capture()
	single := EstimateStalls(s, []int{0}, 0, k)
	all := EstimateStallsAll(s, []int{0}, k)
	// One device: identical attribution.
	for _, p := range Paths() {
		for _, c := range Components() {
			if single.Stall[p][c] != all.Stall[p][c] {
				t.Fatalf("single-device mismatch at %v/%v: %v vs %v",
					p, c, single.Stall[p][c], all.Stall[p][c])
			}
		}
	}
}

func TestProfilerMigrate(t *testing.T) {
	m, local, _ := testRig(t)
	p, err := NewProfiler(Spec{
		Machine: m,
		Apps: []AppRun{
			{Label: "a", Core: 0, Gen: workload.NewStream(region(local), 1, 0, 1)},
			{Label: "b", Core: 1, Gen: workload.NewStream(region(local), 1, 0, 2)},
		},
		EpochCycles: 200_000,
		Epochs:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Step(); err != nil {
		t.Fatal(err)
	}
	// Invalid migrations.
	if err := p.Migrate("a", 1); err == nil {
		t.Fatal("migrated onto a busy core")
	}
	if err := p.Migrate("ghost", 2); err == nil {
		t.Fatal("migrated an unknown app")
	}
	if err := p.Migrate("a", 99); err == nil {
		t.Fatal("migrated out of range")
	}
	if err := p.Migrate("a", 0); err != nil {
		t.Fatalf("no-op migration: %v", err)
	}
	// Real migration: traffic moves to core 2.
	if err := p.Migrate("a", 2); err != nil {
		t.Fatal(err)
	}
	r, err := p.Step()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.AppCores("a"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("AppCores after migration = %v", got)
	}
	if r.Snapshot.Core(2, pmu.MemInstAllLoads) == 0 {
		t.Fatal("no traffic on the migration target core")
	}
	// The graph is exposed and covers the machine.
	if p.Graph() == nil || p.Graph().FindVertex(VtxCore, 2) < 0 {
		t.Fatal("profiler graph missing")
	}
}

// TestApproximationTracksRealSubstrate cross-validates the statistical
// graph generator against the real CSR BFS: both run on CXL and the
// PFBuilder path maps must agree on the qualitative signature — mixed
// demand and prefetch CXL traffic with a dependent-lookup component.
func TestApproximationTracksRealSubstrate(t *testing.T) {
	run := func(appName string) *PathMap {
		m, _, cxl := testRig(t)
		cap := NewCapturer(m)
		app, ok := workload.Lookup(appName)
		if !ok {
			t.Fatalf("unknown app %q", appName)
		}
		m.Attach(0, workload.NewLimit(app.Generator(region(cxl), 11), 100_000))
		deadline := m.Now() + 300_000_000
		for m.Core(0).Running() && m.Now() < deadline {
			m.Run(2_000_000)
		}
		return BuildPathMap(cap.Capture(), []int{0})
	}
	approx := run("BFS")   // statistical graph shape
	real := run("BFS-CSR") // actual CSR traversal
	for _, pm := range []*PathMap{approx, real} {
		if pm.Load[PathDRd][LvlCXL] == 0 {
			t.Fatal("no demand CXL traffic")
		}
		if pm.Load[PathHWPF][LvlCXL] == 0 {
			t.Fatal("no prefetch CXL traffic (edge scans should prefetch)")
		}
	}
	// The demand-vs-prefetch balance should agree within an order of
	// magnitude between approximation and real algorithm.
	ratio := func(pm *PathMap) float64 {
		return pm.Load[PathHWPF][LvlCXL] / pm.Load[PathDRd][LvlCXL]
	}
	ra, rr := ratio(approx), ratio(real)
	if ra/rr > 10 || rr/ra > 10 {
		t.Fatalf("pf/demand ratio diverges: approx %.2f vs real %.2f", ra, rr)
	}
}
