package pmu

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCatalogSize(t *testing.T) {
	// The paper identifies 232 counters to dissect CXL.mem execution (§1).
	if got := Default.Len(); got < 232 {
		t.Fatalf("Default catalog has %d events, want >= 232", got)
	}
}

func TestCatalogLookup(t *testing.T) {
	for _, name := range []string{
		"resource_stalls.sb",
		"mem_load_retired.l1_fb_hit",
		"l1d_pend_miss.fb_full",
		"l2_rqsts.demand_data_rd_miss",
		"ocr.demand_data_rd.miss_cxl",
		"unc_cha_tor_inserts.ia_drd.miss_cxl",
		"unc_cha_tor_inserts.ia_wb.m_to_i",
		"unc_m_rpq_cycles_ne",
		"unc_m2p_rxc_cycles_ne.all",
		"unc_m2p_txc_inserts.bl",
		"unc_cxlcm_rxc_pack_buf_full.mem_req",
		"unc_cxldimm_rpq_occupancy",
	} {
		e, ok := Default.Lookup(name)
		if !ok {
			t.Errorf("Lookup(%q) failed", name)
			continue
		}
		if got := Default.Name(e); got != name {
			t.Errorf("Name(Lookup(%q)) = %q", name, got)
		}
	}
	if _, ok := Default.Lookup("no_such_event"); ok {
		t.Error("Lookup of unknown event succeeded")
	}
}

func TestCatalogDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	c := NewCatalog()
	c.Register("x", UnitCore, PerCore, KindEvent, "")
	c.Register("x", UnitCore, PerCore, KindEvent, "")
}

func TestCatalogUnitPartition(t *testing.T) {
	total := 0
	for u := Unit(0); u < unitCount; u++ {
		evs := Default.UnitEvents(u)
		total += len(evs)
		for _, e := range evs {
			if Default.Info(e).Unit != u {
				t.Fatalf("event %s reported under unit %s", Default.Name(e), u)
			}
		}
	}
	if total != Default.Len() {
		t.Fatalf("unit partition covers %d events, catalog has %d", total, Default.Len())
	}
}

func TestCatalogNamingConventions(t *testing.T) {
	for _, e := range Default.UnitEvents(UnitCHA) {
		if name := Default.Name(e); !strings.HasPrefix(name, "unc_cha_") {
			t.Errorf("CHA event %q does not carry the unc_cha_ prefix", name)
		}
	}
	for _, e := range Default.UnitEvents(UnitIMC) {
		if name := Default.Name(e); !strings.HasPrefix(name, "unc_m_") {
			t.Errorf("IMC event %q does not carry the unc_m_ prefix", name)
		}
	}
	for _, e := range Default.UnitEvents(UnitM2PCIe) {
		if name := Default.Name(e); !strings.HasPrefix(name, "unc_m2p_") {
			t.Errorf("M2PCIe event %q does not carry the unc_m2p_ prefix", name)
		}
	}
	for _, e := range Default.UnitEvents(UnitCXL) {
		if name := Default.Name(e); !strings.HasPrefix(name, "unc_cxl") {
			t.Errorf("CXL event %q does not carry the unc_cxl prefix", name)
		}
	}
}

func TestFamilyScenarios(t *testing.T) {
	if len(OCRDemandDataRd) != ScnCount {
		t.Fatalf("ocr.demand_data_rd has %d sub-events, want %d", len(OCRDemandDataRd), ScnCount)
	}
	if len(TORInsertsIARFO) != RFOScnCount {
		t.Fatalf("tor_inserts.ia_rfo has %d sub-events, want %d", len(TORInsertsIARFO), RFOScnCount)
	}
	if len(TORInsertsIAWB) != WBScnCount {
		t.Fatalf("tor_inserts.ia_wb has %d sub-events, want %d", len(TORInsertsIAWB), WBScnCount)
	}
	if got := Default.Name(TORInsertsIADRd.At(ScnMissCXL)); got != "unc_cha_tor_inserts.ia_drd.miss_cxl" {
		t.Fatalf("ScnMissCXL name = %q", got)
	}
}

func TestBankBasics(t *testing.T) {
	b := NewBank(Default, "core0")
	if b.Name() != "core0" {
		t.Fatalf("Name = %q", b.Name())
	}
	b.Inc(MemLoadL1Hit)
	b.Add(MemLoadL1Hit, 4)
	if got := b.Read(MemLoadL1Hit); got != 5 {
		t.Fatalf("Read = %d, want 5", got)
	}
	v, err := b.ReadName("mem_load_retired.l1_hit")
	if err != nil || v != 5 {
		t.Fatalf("ReadName = %d, %v", v, err)
	}
	if _, err := b.ReadName("bogus"); err == nil {
		t.Fatal("ReadName of unknown event succeeded")
	}
	b.Reset()
	if got := b.Read(MemLoadL1Hit); got != 0 {
		t.Fatalf("after Reset, Read = %d", got)
	}
}

func TestBankValuesIsCopy(t *testing.T) {
	b := NewBank(Default, "core0")
	b.Add(InstRetiredAny, 7)
	vals := b.Values()
	vals[InstRetiredAny] = 99
	if got := b.Read(InstRetiredAny); got != 7 {
		t.Fatalf("Values aliases bank storage: Read = %d", got)
	}
}

func TestBankCopyIntoReuse(t *testing.T) {
	b := NewBank(Default, "core0")
	b.Add(InstRetiredAny, 3)
	buf := make([]uint64, 0, Default.Len())
	buf = b.CopyInto(buf)
	if buf[InstRetiredAny] != 3 {
		t.Fatalf("CopyInto missed value: %d", buf[InstRetiredAny])
	}
	b.Add(InstRetiredAny, 1)
	buf2 := b.CopyInto(buf)
	if &buf2[0] != &buf[0] {
		t.Fatal("CopyInto reallocated despite sufficient capacity")
	}
	if buf2[InstRetiredAny] != 4 {
		t.Fatalf("CopyInto stale value: %d", buf2[InstRetiredAny])
	}
}

func TestOccTrackerIntegration(t *testing.T) {
	b := NewBank(Default, "imc0ch0")
	tr := NewOccTracker(b, RPQOccupancy, RPQCyclesNE, -1, 0)

	tr.Update(10, +1) // one entry from cycle 10
	tr.Update(20, +1) // two entries from cycle 20
	tr.Update(35, -1) // one entry from cycle 35
	tr.Update(50, -1) // empty from cycle 50
	tr.Advance(70)    // stays empty

	// occupancy = 1*(20-10) + 2*(35-20) + 1*(50-35) = 10 + 30 + 15 = 55
	if got := b.Read(RPQOccupancy); got != 55 {
		t.Fatalf("occupancy integral = %d, want 55", got)
	}
	// not-empty cycles = 50 - 10 = 40
	if got := b.Read(RPQCyclesNE); got != 40 {
		t.Fatalf("not-empty cycles = %d, want 40", got)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
}

func TestOccTrackerFullCycles(t *testing.T) {
	b := NewBank(Default, "cxl0")
	tr := NewOccTracker(b, -1, -1, CXLRxPackBufFullReq, 2)
	tr.Update(0, +1)
	if tr.Full() {
		t.Fatal("Full at occupancy 1 of 2")
	}
	tr.Update(5, +1)
	if !tr.Full() {
		t.Fatal("not Full at capacity")
	}
	tr.Update(25, -1) // full from 5 to 25
	tr.Update(30, -1)
	if got := b.Read(CXLRxPackBufFullReq); got != 20 {
		t.Fatalf("full cycles = %d, want 20", got)
	}
}

func TestOccTrackerNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative occupancy did not panic")
		}
	}()
	b := NewBank(Default, "x")
	tr := NewOccTracker(b, -1, -1, -1, 0)
	tr.Update(0, -1)
}

// Property: for any sequence of enqueue/dequeue deltas at increasing times,
// the occupancy integral and busy cycles match a direct reference model.
func TestOccTrackerProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		b := NewBank(Default, "q")
		tr := NewOccTracker(b, RPQOccupancy, RPQCyclesNE, -1, 0)
		var (
			now      uint64
			occ      int
			wantOcc  uint64
			wantBusy uint64
		)
		for _, r := range raw {
			step := uint64(r%13) + 1
			// Integrate reference model over [now, now+step).
			wantOcc += uint64(occ) * step
			if occ > 0 {
				wantBusy += step
			}
			now += step
			delta := 1
			if r%2 == 1 && occ > 0 {
				delta = -1
			}
			occ += delta
			tr.Update(now, delta)
		}
		tr.Advance(now + 1)
		if occ > 0 {
			wantOcc += uint64(occ)
			wantBusy++
		}
		return b.Read(RPQOccupancy) == wantOcc && b.Read(RPQCyclesNE) == wantBusy
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBusyTrackerNesting(t *testing.T) {
	b := NewBank(Default, "core0")
	tr := NewBusyTracker(b, StallsL1DMiss)
	tr.Begin(100)
	tr.Begin(110) // overlapping cause
	tr.End(140)
	if got := b.Read(StallsL1DMiss); got != 0 {
		t.Fatalf("counted before last End: %d", got)
	}
	tr.End(160)
	if got := b.Read(StallsL1DMiss); got != 60 {
		t.Fatalf("busy cycles = %d, want 60", got)
	}
}

func TestBusyTrackerFlush(t *testing.T) {
	b := NewBank(Default, "core0")
	tr := NewBusyTracker(b, StallsL1DMiss)
	tr.Begin(0)
	tr.Flush(40)
	if got := b.Read(StallsL1DMiss); got != 40 {
		t.Fatalf("after Flush = %d, want 40", got)
	}
	tr.End(100)
	if got := b.Read(StallsL1DMiss); got != 100 {
		t.Fatalf("after End = %d, want 100", got)
	}
}

func TestBusyTrackerUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("End without Begin did not panic")
		}
	}()
	tr := NewBusyTracker(NewBank(Default, "x"), StallsL1DMiss)
	tr.End(1)
}
