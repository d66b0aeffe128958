package sim

import (
	"testing"

	"pathfinder/internal/cxl"
	"pathfinder/internal/mem"
	"pathfinder/internal/pmu"
)

// faultyPlan returns a heavy S2M corruption plan for tests.
func faultyPlan(rate float64) *cxl.FaultPlan {
	p := &cxl.FaultPlan{Seed: 42}
	p.CRCRate[cxl.DirM2S] = rate
	p.CRCRate[cxl.DirS2M] = rate
	return p
}

// runCXLReads drives dependent loads over a CXL region and returns the
// machine after syncing.
func runCXLReads(t *testing.T, cfg Config, n int, cycles Cycles) *Machine {
	t.Helper()
	as := testSpace(t)
	r, err := as.Alloc(1<<20, mem.Fixed(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
	m := New(cfg, as)
	m.Attach(0, &opList{ops: seqLoads(r.Base, n, 64, true)})
	m.Run(cycles)
	m.Sync()
	return m
}

func TestCXLFaultCountersAndLatency(t *testing.T) {
	// A dependent-load chain long enough that neither run finishes inside
	// the budget, so served-read counts reflect achieved latency.
	const n, budget = 4096, 2_000_000

	healthy := runCXLReads(t, smallConfig(), n, budget)
	hb := healthy.Bank("cxl0")
	if got := hb.Read(pmu.CXLLinkCRCErrors) + hb.Read(pmu.CXLLinkRetries); got != 0 {
		t.Fatalf("healthy link counted %d link faults", got)
	}

	cfg := smallConfig()
	cfg.Faults = faultyPlan(0.2)
	faulty := runCXLReads(t, cfg, n, budget)
	fb := faulty.Bank("cxl0")
	crc := fb.Read(pmu.CXLLinkCRCErrors)
	retries := fb.Read(pmu.CXLLinkRetries)
	replay := fb.Read(pmu.CXLLinkReplayBytes)
	if crc == 0 || retries == 0 || replay == 0 {
		t.Fatalf("faulty link left no trace: crc=%d retries=%d replay=%d", crc, retries, replay)
	}
	if occ := fb.Read(pmu.CXLLinkRetryBufOcc); occ == 0 {
		t.Fatal("retry buffer occupancy never accumulated")
	}

	// Retries must slow the workload down: fewer reads complete in the
	// same wall-clock budget.
	hCAS := hb.Read(pmu.CXLDevCASRd)
	fCAS := fb.Read(pmu.CXLDevCASRd)
	if hCAS == 0 || hCAS == n {
		t.Fatalf("budget mistuned: healthy run served %d of %d reads", hCAS, n)
	}
	if float64(fCAS) >= float64(hCAS)*0.95 {
		t.Fatalf("faults did not slow the read stream: healthy=%d faulty=%d CAS", hCAS, fCAS)
	}
}

func TestCXLFaultDeterminism(t *testing.T) {
	snap := func() map[string]uint64 {
		cfg := smallConfig()
		cfg.Faults = faultyPlan(0.02)
		m := runCXLReads(t, cfg, 256, 20_000_000)
		b := m.Bank("cxl0")
		return map[string]uint64{
			"crc":    b.Read(pmu.CXLLinkCRCErrors),
			"retry":  b.Read(pmu.CXLLinkRetries),
			"replay": b.Read(pmu.CXLLinkReplayBytes),
			"cas":    b.Read(pmu.CXLDevCASRd),
			"occ":    b.Read(pmu.CXLLinkRetryBufOcc),
		}
	}
	a, b := snap(), snap()
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("counter %s diverged across identical runs: %d vs %d", k, v, b[k])
		}
	}
	if a["crc"] == 0 {
		t.Fatal("determinism test never injected a fault")
	}
}

func TestCXLTimeoutEpisode(t *testing.T) {
	cfg := smallConfig()
	cfg.Faults = &cxl.FaultPlan{
		Seed:           1,
		Timeouts:       []cxl.Episode{{Start: 0, Len: 1 << 62}},
		TimeoutPenalty: 5000,
	}
	m := runCXLReads(t, cfg, 64, 20_000_000)
	b := m.Bank("cxl0")
	if hits := b.Read(pmu.CXLDevTimeouts); hits == 0 {
		t.Fatal("permanent timeout episode never counted")
	}

	// The penalty must dominate per-access latency: with a 5000-cycle
	// penalty per request, 64 dependent reads need >= 320k cycles.
	healthy := runCXLReads(t, smallConfig(), 64, 20_000_000)
	if h, f := healthy.Bank("cxl0").Read(pmu.CXLDevCASRd), b.Read(pmu.CXLDevCASRd); f > h {
		t.Fatalf("timeouts served more reads than healthy: %d > %d", f, h)
	}
}

func TestCXLThrottleEpisode(t *testing.T) {
	cfg := smallConfig()
	cfg.Faults = &cxl.FaultPlan{
		Seed:      1,
		Throttles: []cxl.Episode{{Start: 0, Len: 1 << 62}},
	}
	m := runCXLReads(t, cfg, 256, 20_000_000)
	if c := m.Bank("cxl0").Read(pmu.CXLDevThrottled); c == 0 {
		t.Fatal("permanent throttle episode accumulated no throttled cycles")
	}
}

func TestCXLPoisonRange(t *testing.T) {
	as := testSpace(t)
	r, err := as.Alloc(1<<20, mem.Fixed(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
	cfg.Faults = &cxl.FaultPlan{Seed: 1, PoisonBase: r.Base, PoisonLen: 64 * 64}
	m := New(cfg, as)
	m.Attach(0, &opList{ops: seqLoads(r.Base, 256, 64, true)})
	m.Run(20_000_000)
	m.Sync()
	got := m.Bank("cxl0").Read(pmu.CXLDevPoisonRd)
	if got == 0 || got > 64 {
		t.Fatalf("poisoned 64 lines, counted %d poisoned reads", got)
	}
}

func TestCXLViralContainment(t *testing.T) {
	as := testSpace(t)
	r, err := as.Alloc(1<<20, mem.Fixed(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
	cfg.Faults = &cxl.FaultPlan{
		Seed:           1,
		PoisonBase:     r.Base,
		PoisonLen:      1 << 20, // the whole region is poisoned media
		ViralThreshold: 4,
	}
	m := New(cfg, as)
	m.Attach(0, &opList{ops: seqLoads(r.Base, 256, 64, true)})
	m.Run(20_000_000)
	m.Sync()
	b := m.Bank("cxl0")
	if got := b.Read(pmu.CXLDevViralEntries); got != 1 {
		t.Fatalf("viral entries = %d, want 1", got)
	}
	// Exactly threshold poisoned reads before containment; everything after
	// completes as an error.
	if got := b.Read(pmu.CXLDevPoisonRd); got != 4 {
		t.Fatalf("poison reads = %d, want 4 (the threshold)", got)
	}
	errs := b.Read(pmu.CXLDevErrCompletions)
	cas := b.Read(pmu.CXLDevCASRd)
	if errs == 0 || errs != cas-4 {
		t.Fatalf("err completions = %d, want CAS-4 = %d", errs, cas-4)
	}
	if !m.DeviceViral(0) {
		t.Fatal("permanent viral state not reported by DeviceViral")
	}
}

func TestCXLViralReset(t *testing.T) {
	as := testSpace(t)
	r, err := as.Alloc(1<<20, mem.Fixed(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
	cfg.Faults = &cxl.FaultPlan{
		Seed:           1,
		PoisonBase:     r.Base,
		PoisonLen:      1 << 20,
		ViralThreshold: 2,
		ViralReset:     20_000, // a few dependent-read round trips
	}
	m := New(cfg, as)
	m.Attach(0, &opList{ops: seqLoads(r.Base, 512, 64, true)})
	m.Run(20_000_000)
	m.Sync()
	b := m.Bank("cxl0")
	if got := b.Read(pmu.CXLDevViralEntries); got < 2 {
		t.Fatalf("viral entries = %d, want >= 2 after resets", got)
	}
	// Each containment round begins with a fresh poison count, so more than
	// one threshold's worth of poisoned reads accumulate.
	if got := b.Read(pmu.CXLDevPoisonRd); got <= 2 {
		t.Fatalf("poison reads = %d, want > threshold across resets", got)
	}
}

func TestCXLSurpriseRemoval(t *testing.T) {
	as := testSpace(t)
	r, err := as.Alloc(1<<20, mem.Fixed(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
	cfg.Faults = &cxl.FaultPlan{Seed: 1, RemoveAt: 200_000}
	m := New(cfg, as)
	m.Attach(0, &opList{ops: seqLoads(r.Base, 4096, 64, true)})
	m.Run(20_000_000)
	m.Sync()

	dev, host := m.Bank("cxl0"), m.Bank("m2pcie0")
	if got := host.Read(pmu.M2PDevRemoved); got != 1 {
		t.Fatalf("removals discovered = %d, want 1", got)
	}
	if host.Read(pmu.M2PErrCompletions) == 0 {
		t.Fatal("no error completions from the removal")
	}
	if host.Read(pmu.M2PFastFails) == 0 {
		t.Fatal("no fast-fails after isolation")
	}
	if !m.DeviceIsolated(0) {
		t.Fatal("removed device not reported isolated")
	}
	// The device bank went dark: it served some reads before removal and
	// none after, while the whole chain still drained (fast-fail keeps the
	// workload making progress).
	cas := dev.Read(pmu.CXLDevCASRd)
	if cas == 0 || cas >= 4096 {
		t.Fatalf("device served %d reads, want some but not all", cas)
	}
	if m.PendingEvents() != 0 {
		t.Fatal("machine did not drain after removal")
	}
	if cas+host.Read(pmu.M2PErrCompletions) != 4096 {
		t.Fatalf("reads unaccounted: %d served + %d errored != 4096",
			cas, host.Read(pmu.M2PErrCompletions))
	}
}

func TestCXLRASDeterminism(t *testing.T) {
	snap := func() map[string]uint64 {
		as := testSpace(t)
		r, err := as.Alloc(1<<20, mem.Fixed(2))
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig()
		cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
		cfg.Faults = &cxl.FaultPlan{
			Seed:           7,
			CRCRate:        [2]float64{0.01, 0.01},
			PoisonBase:     r.Base,
			PoisonLen:      1 << 18,
			ViralThreshold: 3,
			ViralReset:     50_000,
			RemoveAt:       1_200_000,
		}
		m := New(cfg, as)
		m.Attach(0, &opList{ops: seqLoads(r.Base, 2048, 64, true)})
		m.Run(20_000_000)
		m.Sync()
		dev, host := m.Bank("cxl0"), m.Bank("m2pcie0")
		return map[string]uint64{
			"viral":   dev.Read(pmu.CXLDevViralEntries),
			"errcomp": dev.Read(pmu.CXLDevErrCompletions),
			"poison":  dev.Read(pmu.CXLDevPoisonRd),
			"cas":     dev.Read(pmu.CXLDevCASRd),
			"removed": host.Read(pmu.M2PDevRemoved),
			"hosterr": host.Read(pmu.M2PErrCompletions),
			"fast":    host.Read(pmu.M2PFastFails),
			"crc":     dev.Read(pmu.CXLLinkCRCErrors),
		}
	}
	a, b := snap(), snap()
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("counter %s diverged across identical RAS runs: %d vs %d", k, v, b[k])
		}
	}
	if a["viral"] == 0 || a["removed"] == 0 {
		t.Fatalf("RAS scenario too tame to test determinism: %+v", a)
	}
}

func TestSetFaultPlanMidRun(t *testing.T) {
	as := testSpace(t)
	r, err := as.Alloc(1<<20, mem.Fixed(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
	m := New(cfg, as)
	m.Attach(0, &opList{ops: seqLoads(r.Base, 4096, 64, true)})
	m.Run(1_000_000) // partial: the chain needs ~3M cycles
	m.Sync()
	if c := m.Bank("cxl0").Read(pmu.CXLLinkCRCErrors); c != 0 {
		t.Fatalf("faults before installation: %d", c)
	}
	m.SetFaultPlan(0, faultyPlan(0.1))
	m.Run(20_000_000)
	m.Sync()
	if c := m.Bank("cxl0").Read(pmu.CXLLinkCRCErrors); c == 0 {
		t.Fatal("installed plan injected nothing")
	}
}
