package perf

import (
	"strings"
	"testing"

	"pathfinder/internal/mem"
	"pathfinder/internal/pmu"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

type opList struct {
	ops []workload.Op
	i   int
}

func (g *opList) Next(op *workload.Op) bool {
	if g.i >= len(g.ops) {
		return false
	}
	*op = g.ops[g.i]
	g.i++
	return true
}

func testMachine(t *testing.T, node mem.NodeID) (*sim.Machine, mem.Region) {
	t.Helper()
	as := mem.NewAddressSpace(12, []mem.Node{
		{ID: 0, Kind: mem.LocalDRAM, Capacity: 4 << 30},
		{ID: 1, Kind: mem.CXLDRAM, Device: 0, Capacity: 4 << 30},
	})
	r, err := as.Alloc(4<<20, mem.Fixed(node))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.SPR()
	cfg.Cores = 2
	cfg.LLCSlices = 4
	cfg.LLCSize = 2 << 20
	return sim.New(cfg, as), r
}

func loads(base uint64, n int) []workload.Op {
	ops := make([]workload.Op, n)
	for i := range ops {
		ops[i] = workload.Op{Addr: base + uint64(i)*64, Kind: workload.Load, Think: 2}
	}
	return ops
}

func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		raw     string
		pattern string
		event   string
		wantErr bool
	}{
		{"core0/mem_load_retired.l1_hit/", "core0", "mem_load_retired.l1_hit", false},
		{"cha*/unc_cha_tor_inserts.ia_drd.miss_cxl", "cha*", "unc_cha_tor_inserts.ia_drd.miss_cxl", false},
		{"noslash", "", "", true},
		{"/event/", "", "", true},
		{"bank//", "", "", true},
	} {
		sp, err := ParseSpec(tc.raw)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSpec(%q) succeeded: %+v", tc.raw, sp)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.raw, err)
			continue
		}
		if sp.Pattern != tc.pattern || sp.Event != tc.event {
			t.Errorf("ParseSpec(%q) = %+v", tc.raw, sp)
		}
	}
}

func TestSpecString(t *testing.T) {
	sp := Spec{Pattern: "core1", Event: "inst_retired.any"}
	if got := sp.String(); got != "core1/inst_retired.any/" {
		t.Fatalf("String = %q", got)
	}
}

func TestOpenErrors(t *testing.T) {
	m, _ := testMachine(t, 0)
	if _, err := Open(m, "core0/bogus_event/"); err == nil {
		t.Fatal("unknown event accepted")
	}
	if _, err := Open(m, "core9/inst_retired.any/"); err == nil {
		t.Fatal("unmatched bank accepted")
	}
	if _, err := Open(m, "core0/unc_cha_tor_inserts.ia.all/"); err == nil {
		t.Fatal("CHA event opened on a core bank")
	}
	if _, err := Open(m, "garbage"); err == nil {
		t.Fatal("malformed spec accepted")
	}
}

func TestReadAndDelta(t *testing.T) {
	m, r := testMachine(t, 0)
	s, err := Open(m,
		"core0/mem_inst_retired.all_loads/",
		"core0/inst_retired.any/",
	)
	if err != nil {
		t.Fatal(err)
	}
	m.Attach(0, &opList{ops: loads(r.Base, 1000)})
	m.Run(1_000_000)

	vals := s.Read()
	if vals[0] != 1000 {
		t.Fatalf("all_loads = %d, want 1000", vals[0])
	}
	if vals[1] == 0 {
		t.Fatal("inst_retired is zero")
	}
	d1 := s.ReadDelta()
	if d1[0] != 1000 {
		t.Fatalf("first delta = %d", d1[0])
	}
	d2 := s.ReadDelta()
	if d2[0] != 0 {
		t.Fatalf("second delta = %d, want 0 (no further activity)", d2[0])
	}
}

func TestGlobAggregation(t *testing.T) {
	m, r := testMachine(t, 1) // CXL-resident working set
	s, err := Open(m,
		"cha*/unc_cha_tor_inserts.ia_drd.any/",
		"cxl0/unc_cxlcm_rxc_pack_buf_inserts.mem_req/",
	)
	if err != nil {
		t.Fatal(err)
	}
	m.Attach(0, &opList{ops: loads(r.Base, 2000)})
	m.Run(20_000_000)
	vals := s.Read()
	if vals[0] == 0 {
		t.Fatal("aggregated TOR inserts are zero")
	}
	if vals[1] == 0 {
		t.Fatal("CXL packing-buffer inserts are zero")
	}
	// The glob must cover all four CHA banks.
	found := 0
	for _, b := range s.Banks() {
		if strings.HasPrefix(b, "cha") {
			found++
		}
	}
	if found != 4 {
		t.Fatalf("glob matched %d CHA banks, want 4", found)
	}
}

func TestMultiplexAccounting(t *testing.T) {
	m, _ := testMachine(t, 0)
	// Open 9 distinct CHA events on one bank: CHA has 4 slots -> 3 groups.
	specs := []string{
		"cha0/unc_cha_tor_inserts.ia.all/",
		"cha0/unc_cha_tor_inserts.ia.hit/",
		"cha0/unc_cha_tor_inserts.ia.miss/",
		"cha0/unc_cha_tor_inserts.ia_drd.any/",
		"cha0/unc_cha_tor_inserts.ia_drd.hit_llc/",
		"cha0/unc_cha_tor_inserts.ia_drd.miss_llc/",
		"cha0/unc_cha_tor_inserts.ia_rfo.any/",
		"cha0/unc_cha_tor_inserts.ia_rfo.hit_llc/",
		"cha0/unc_cha_tor_inserts.ia_rfo.miss_llc/",
	}
	s, err := Open(m, specs...)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.MaxGroups(); got != 3 {
		t.Fatalf("MaxGroups = %d, want 3", got)
	}
	if f := s.RunFraction("cha0"); f < 0.3 || f > 0.34 {
		t.Fatalf("RunFraction = %v, want ~1/3", f)
	}
	// A core bank with few events multiplex-free.
	s2, err := Open(m, "core0/inst_retired.any/")
	if err != nil {
		t.Fatal(err)
	}
	if f := s2.RunFraction("core0"); f != 1 {
		t.Fatalf("unmultiplexed RunFraction = %v", f)
	}
	if s2.MaxGroups() != 1 {
		t.Fatalf("MaxGroups = %d", s2.MaxGroups())
	}
}

func TestRunRotatedUnmultiplexed(t *testing.T) {
	m, r := testMachine(t, 0)
	m.Attach(0, &opList{ops: loads(r.Base, 3000)})
	es, err := RunRotated(m, 2_000_000, 100_000,
		"core0/mem_inst_retired.all_loads/")
	if err != nil {
		t.Fatal(err)
	}
	// One event, one group: run fraction 1, estimate exact.
	if es[0].RunFraction != 1 {
		t.Fatalf("run fraction = %v", es[0].RunFraction)
	}
	if es[0].Estimate != 3000 || es[0].Raw != 3000 {
		t.Fatalf("estimate = %v raw = %d, want 3000", es[0].Estimate, es[0].Raw)
	}
}

func TestRunRotatedMultiplexed(t *testing.T) {
	m, r := testMachine(t, 0)
	// Steady looping stream so extrapolation is accurate.
	m.Attach(0, &loopGenPerf{ops: loads(r.Base, 256)})
	// 9 CHA events on one bank: 3 groups of up to 4 slots.
	specs := []string{
		"cha0/unc_cha_tor_inserts.ia.all/",
		"cha0/unc_cha_tor_inserts.ia.hit/",
		"cha0/unc_cha_tor_inserts.ia.miss/",
		"cha0/unc_cha_tor_inserts.ia_drd.any/",
		"cha0/unc_cha_tor_inserts.ia_drd.hit_llc/",
		"cha0/unc_cha_tor_inserts.ia_drd.miss_llc/",
		"cha0/unc_cha_tor_occupancy.ia.all/",
		"cha0/unc_cha_tor_occupancy.ia_drd.any/",
		"cha0/unc_cha_clockticks/",
	}
	es, err := RunRotated(m, 3_000_000, 50_000, specs...)
	if err != nil {
		t.Fatal(err)
	}
	// The clockticks event is in the last group: run fraction ~1/3.
	last := es[len(es)-1]
	if last.RunFraction < 0.25 || last.RunFraction > 0.45 {
		t.Fatalf("multiplexed run fraction = %v, want ~1/3", last.RunFraction)
	}
	// Clockticks accumulate uniformly, so extrapolation lands close.
	if last.Estimate < 2_500_000 || last.Estimate > 3_500_000 {
		t.Fatalf("clocktick estimate = %v, want ~3M", last.Estimate)
	}
}

func TestRunRotatedErrors(t *testing.T) {
	m, _ := testMachine(t, 0)
	if _, err := RunRotated(m, 100, 0, "core0/inst_retired.any/"); err == nil {
		t.Fatal("zero quantum accepted")
	}
	if _, err := RunRotated(m, 100, 200, "core0/inst_retired.any/"); err == nil {
		t.Fatal("quantum > total accepted")
	}
	if _, err := RunRotated(m, 1000, 100, "core0/bogus/"); err == nil {
		t.Fatal("unknown event accepted")
	}
}

type loopGenPerf struct {
	ops []workload.Op
	i   int
}

func (g *loopGenPerf) Next(op *workload.Op) bool {
	*op = g.ops[g.i]
	g.i = (g.i + 1) % len(g.ops)
	return true
}

func TestRotationHelpers(t *testing.T) {
	if groupCountFor(pmu.UnitCHA, 4) != 1 || groupCountFor(pmu.UnitCHA, 9) != 3 {
		t.Fatal("group counting")
	}
	if groupCountFor(pmu.UnitCore, 1) != 1 {
		t.Fatal("single event needs one group")
	}
	es := []RotatedEstimate{{Estimate: 1}, {Estimate: 5}, {Estimate: 3}}
	SortEstimates(es)
	if es[0].Estimate != 5 || es[2].Estimate != 1 {
		t.Fatalf("sort order: %+v", es)
	}
}
