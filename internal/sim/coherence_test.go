package sim

import (
	"strings"
	"testing"

	"pathfinder/internal/mem"
	"pathfinder/internal/pmu"
	"pathfinder/internal/workload"
)

// shared-line scenarios: two cores touching the same region exercise the
// MESIF directory, snoops, and back-invalidation.

func TestCoherenceRFOInvalidatesPeer(t *testing.T) {
	as := testSpace(t)
	r, err := as.Alloc(1<<20, mem.Fixed(0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
	m := New(cfg, as)

	// Core 0 reads a line set; core 1 then writes the same lines (RFO).
	m.Attach(0, &opList{ops: seqLoads(r.Base, 256, 64, true)})
	m.Run(2_000_000)
	stores := make([]workload.Op, 256)
	for i := range stores {
		stores[i] = workload.Op{Addr: r.Base + uint64(i)*64, Kind: workload.Store, Think: 2}
	}
	m.Attach(1, &opList{ops: stores})
	m.Run(8_000_000)
	m.Sync()

	// Core 1's RFOs must have invalidated core 0's copies: a re-read by
	// core 0 misses its L1.
	m.Attach(0, &opList{ops: seqLoads(r.Base, 256, 64, true)})
	before := m.Core(0).Bank().Read(pmu.MemLoadL1Miss)
	m.Run(8_000_000)
	m.Sync()
	misses := m.Core(0).Bank().Read(pmu.MemLoadL1Miss) - before
	if misses < 200 {
		t.Fatalf("after peer RFOs, core 0 re-read missed only %d of 256 lines", misses)
	}
	// Snoop activity must be visible at the CHAs.
	var snoops uint64
	for i := 0; i < cfg.LLCSlices; i++ {
		b := m.Bank("cha" + string(rune('0'+i)))
		snoops += b.Read(pmu.SnoopsSentLocal) + b.Read(pmu.SnoopsSentRemote)
	}
	if snoops == 0 {
		t.Fatal("no snoops recorded despite cross-core sharing")
	}
}

func TestCoherencePeerServesSharedRead(t *testing.T) {
	as := testSpace(t)
	r, err := as.Alloc(1<<20, mem.Fixed(2)) // CXL-resident shared region
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
	m := New(cfg, as)

	// Core 0 loads the lines (they land in LLC + its private caches).
	m.Attach(0, &opList{ops: seqLoads(r.Base, 512, 64, true)})
	m.Run(30_000_000)
	// Core 1 reads the same lines: served from the socket caches, not CXL.
	cxlBefore := m.Bank("cxl0").Read(pmu.CXLRxPackBufInsertsReq)
	m.Attach(1, &opList{ops: seqLoads(r.Base, 512, 64, true)})
	m.Run(30_000_000)
	m.Sync()
	cxlAfter := m.Bank("cxl0").Read(pmu.CXLRxPackBufInsertsReq)

	b1 := m.Core(1).Bank()
	hits := b1.Read(pmu.MemLoadL3Hit)
	if hits < 400 {
		t.Fatalf("core 1 got only %d LLC-level hits of 512 shared reads", hits)
	}
	if delta := cxlAfter - cxlBefore; delta > 100 {
		t.Fatalf("shared re-read went to the CXL device %d times", delta)
	}
	// OCR classifies those serves as socket-cache hits.
	if got := b1.Read(pmu.OCRDemandDataRd[pmu.ScnHit]); got < 400 {
		t.Fatalf("OCR hit_llc = %d", got)
	}
}

func TestWritebackBackpressure(t *testing.T) {
	// A tiny write queue on the CXL device must slow down a write-heavy
	// stream via fill backpressure (dirty-victim handoff).
	run := func(wpq int) uint64 {
		as := testSpace(t)
		r, _ := as.Alloc(32<<20, mem.Fixed(2))
		cfg := smallConfig()
		cfg.CXLWPQEntries = wpq
		cfg.PackBufEntries = wpq
		m := New(cfg, as)
		g := workload.NewStream(workload.Region{Base: r.Base, Size: r.Size}, 0, 1.0, 3)
		g.Reuse = 2
		c := workload.NewCounting(g)
		m.Attach(0, c)
		m.Run(4_000_000)
		return c.Stores
	}
	fast := run(64)
	slow := run(2)
	if slow >= fast {
		t.Fatalf("tiny write queue did not slow the stream: %d vs %d stores", slow, fast)
	}
}

func TestAccessHookFires(t *testing.T) {
	as := testSpace(t)
	r, _ := as.Alloc(8<<20, mem.Fixed(2))
	m := New(smallConfig(), as)
	var reads, writes int
	m.SetAccessHook(func(core int, la uint64, write bool) {
		if core != 0 {
			t.Errorf("hook saw core %d", core)
		}
		if la < r.Base || la >= r.Base+r.Size {
			t.Errorf("hook saw out-of-region address %#x", la)
		}
		if write {
			writes++
		} else {
			reads++
		}
	})
	g := workload.NewStream(workload.Region{Base: r.Base, Size: r.Size}, 1, 0.5, 9)
	m.Attach(0, workload.NewLimit(g, 20000))
	m.Run(50_000_000)
	if reads == 0 || writes == 0 {
		t.Fatalf("hook fired reads=%d writes=%d", reads, writes)
	}
	m.SetAccessHook(nil) // must not panic on further traffic
	m.Attach(0, workload.NewLimit(workload.NewStream(workload.Region{Base: r.Base, Size: r.Size}, 1, 0, 10), 1000))
	m.Run(5_000_000)
}

func TestMigratePageMovesTraffic(t *testing.T) {
	as := testSpace(t)
	r, _ := as.Alloc(1<<20, mem.Fixed(2))
	m := New(smallConfig(), as)

	// Migrate every page to local; the transfer itself must appear at
	// both devices' counters.
	ps := as.PageSize()
	for a := r.Base; a < r.Base+r.Size; a += ps {
		if err := m.MigratePage(a, 0); err != nil {
			t.Fatal(err)
		}
	}
	m.Run(1_000_000)
	m.Sync()
	if got := m.Bank("cxl0").Read(pmu.CXLDevCASRd); got == 0 {
		t.Fatal("migration reads not charged to the CXL device")
	}
	var wr uint64
	for i := 0; i < m.Config().DRAMChannels; i++ {
		wr += m.Bank("imc" + string(rune('0'+i))).Read(pmu.CASCountWr)
	}
	if wr == 0 {
		t.Fatal("migration writes not charged to the IMC")
	}

	// Subsequent traffic goes local.
	before := m.Bank("cxl0").Read(pmu.CXLRxPackBufInsertsReq)
	m.Attach(0, &opList{ops: seqLoads(r.Base, 1024, 64, false)})
	m.Run(5_000_000)
	m.Sync()
	if got := m.Bank("cxl0").Read(pmu.CXLRxPackBufInsertsReq) - before; got != 0 {
		t.Fatalf("post-migration loads still hit CXL: %d", got)
	}
	// Migrating to the current node is a no-op.
	if err := m.MigratePage(r.Base, 0); err != nil {
		t.Fatal(err)
	}
}

func TestEMRConfigDiffers(t *testing.T) {
	spr, emr := SPR(), EMR()
	if emr.Name != "emr" {
		t.Fatal("EMR name")
	}
	if emr.LLCSize <= spr.LLCSize {
		t.Fatal("EMR must have the larger LLC")
	}
	if emr.CXLMediaLat >= spr.CXLMediaLat {
		t.Fatal("the CZ120 ASIC should be faster than the Agilex FPGA device")
	}
	// Both must build.
	New(emr, testSpace(t))
}

// TestConfigByName: every CLI's -machine resolves through one lookup,
// which returns the shipped configuration by name and refuses anything
// else instead of falling back to SPR.
func TestConfigByName(t *testing.T) {
	for _, want := range []Config{SPR(), EMR()} {
		got, err := ConfigByName(want.Name)
		if err != nil || got != want {
			t.Fatalf("ConfigByName(%q) = %q, %v", want.Name, got.Name, err)
		}
	}
	for _, bad := range []string{"bogus", "", "SPR", "emr "} {
		if c, err := ConfigByName(bad); err == nil || !strings.Contains(err.Error(), "spr, emr") {
			t.Fatalf("ConfigByName(%q) = %q, %v; want an error naming the choices", bad, c.Name, err)
		}
	}
}

func TestSyncClockticks(t *testing.T) {
	as := testSpace(t)
	r, _ := as.Alloc(1<<20, mem.Fixed(0))
	m := New(smallConfig(), as)
	m.Attach(0, &loopGen{ops: seqLoads(r.Base, 64, 64, false)})
	m.Run(123_456)
	m.Sync()
	if got := m.Bank("cha0").Read(pmu.CHAClockticks); got != 123_456 {
		t.Fatalf("CHA clockticks = %d", got)
	}
	if got := m.Bank("cxl0").Read(pmu.CXLClockticks); got != 123_456 {
		t.Fatalf("CXL clockticks = %d", got)
	}
	m.Run(1000)
	m.Sync()
	if got := m.Bank("imc0").Read(pmu.IMCClockticks); got != 124_456 {
		t.Fatalf("IMC clockticks after second sync = %d", got)
	}
}

// Property-style check: per-core load counters are conserved across the
// hierarchy for an arbitrary mixed workload.
func TestLoadCounterConservation(t *testing.T) {
	as := testSpace(t)
	r, _ := as.Alloc(8<<20, mem.Interleave{A: 0, B: 2, RatioA: 1, RatioB: 1})
	m := New(smallConfig(), as)
	g := workload.NewStream(workload.Region{Base: r.Base, Size: r.Size}, 3, 0.3, 17)
	g.Reuse = 4
	m.Attach(0, workload.NewLimit(g, 60_000))
	m.Run(200_000_000)
	m.Sync()
	b := m.Core(0).Bank()

	loads := b.Read(pmu.MemInstAllLoads)
	l1h := b.Read(pmu.MemLoadL1Hit)
	l1m := b.Read(pmu.MemLoadL1Miss)
	if l1h+l1m != loads {
		t.Fatalf("L1 conservation: %d + %d != %d", l1h, l1m, loads)
	}
	// Demand L2 lookups = L1 misses not merged into the LFB.
	fb := b.Read(pmu.MemLoadFBHit)
	l2 := b.Read(pmu.L2AllDemandDataRd)
	if fb+l2 != l1m {
		t.Fatalf("L2 conservation: fb(%d) + l2(%d) != l1m(%d)", fb, l2, l1m)
	}
	if b.Read(pmu.L2DemandDataRdHit)+b.Read(pmu.L2DemandDataRdMiss) != l2 {
		t.Fatal("L2 hit/miss conservation")
	}
	// OCR scenarios partition the offcore demand reads.
	any := b.Read(pmu.OCRDemandDataRd[pmu.ScnAny])
	hit := b.Read(pmu.OCRDemandDataRd[pmu.ScnHit])
	miss := b.Read(pmu.OCRDemandDataRd[pmu.ScnMiss])
	if hit+miss != any {
		t.Fatalf("OCR conservation: %d + %d != %d", hit, miss, any)
	}
	local := b.Read(pmu.OCRDemandDataRd[pmu.ScnMissLocalDDR])
	cxl := b.Read(pmu.OCRDemandDataRd[pmu.ScnMissCXL])
	remote := b.Read(pmu.OCRDemandDataRd[pmu.ScnMissRemote])
	if local+cxl+remote != miss {
		t.Fatalf("OCR destination split: %d + %d + %d != %d", local, cxl, remote, miss)
	}
}

func TestRemoteIMCCounters(t *testing.T) {
	as := testSpace(t)
	r, _ := as.Alloc(8<<20, mem.Fixed(1)) // remote-socket DRAM
	cfg := smallConfig()
	m := New(cfg, as)
	m.Attach(0, &opList{ops: seqLoads(r.Base, 2048, 64, false)})
	m.Run(20_000_000)
	m.Sync()
	var cas uint64
	for i := 0; i < cfg.DRAMChannels; i++ {
		cas += m.Bank("rimc" + string(rune('0'+i))).Read(pmu.CASCountRd)
	}
	if cas == 0 {
		t.Fatal("remote IMC saw no CAS for a remote working set")
	}
	// The local IMC stays cold.
	for i := 0; i < cfg.DRAMChannels; i++ {
		if got := m.Bank("imc" + string(rune('0'+i))).Read(pmu.CASCountRd); got != 0 {
			t.Fatalf("local imc%d saw %d CAS", i, got)
		}
	}
}
