package sim

import (
	"fmt"
	"reflect"
	"testing"

	"pathfinder/internal/mem"
	"pathfinder/internal/obs"
	"pathfinder/internal/workload"
)

// The request trace is the 1-in-N selection of flight records that /trace
// exports (obs.Flight.Sample); these tests check what it shows of the
// machine's request paths.

// traceRun drives n dependent loads over the node at fix with an enabled
// flight recorder whose rings hold every record, and exports them all.
func traceRun(t *testing.T, cfg Config, fix mem.NodeID, n int) []obs.TraceRec {
	t.Helper()
	as := testSpace(t)
	r, err := as.Alloc(1<<20, mem.Fixed(fix))
	if err != nil {
		t.Fatal(err)
	}
	m := New(cfg, as)
	f := obs.NewFlight(cfg.Cores, 4096, 16)
	f.Enable()
	m.SetFlight(f)
	m.Attach(0, &opList{ops: seqLoads(r.Base, n, 64, true)})
	m.Run(50_000_000)
	m.Sync()
	return f.Sample(1)
}

// checkWaterfall requires every record served at loc to take path and to
// cross exactly the stages want, in order, and at least one such record.
func checkWaterfall(t *testing.T, recs []obs.TraceRec, loc ServeLoc, path uint8, want []obs.Stage) {
	t.Helper()
	saw := 0
	for i := range recs {
		r := &recs[i].FlightRec
		if ServeLoc(r.Loc) != loc {
			continue
		}
		saw++
		if r.Path != path {
			t.Fatalf("record %d %+v: path %d, want %d", recs[i].ID, r, r.Path, path)
		}
		var got []obs.Stage
		for _, sp := range stagesOf(r) {
			got = append(got, sp.Stage)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("record %d %+v: stages %v, want %v", recs[i].ID, r, got, want)
		}
	}
	if saw == 0 {
		t.Fatalf("no %s-served records traced", loc)
	}
}

func TestTracerCXLWaterfall(t *testing.T) {
	cfg := smallConfig()
	cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
	recs := traceRun(t, cfg, 2, 64)
	if len(recs) != 64 {
		t.Fatalf("traced %d records, want 64", len(recs))
	}
	checkWaterfall(t, recs, SrvCXL, obs.FlightPathCXL, []obs.Stage{
		obs.StageCore, obs.StageL2, obs.StageCHA, obs.StageM2PCIe,
		obs.StageCXLLink, obs.StageCXLDevQ, obs.StageCXLMedia, obs.StageCXLRet})
}

func TestTracerLocalDRAMUsesIMCStage(t *testing.T) {
	cfg := smallConfig()
	cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
	recs := traceRun(t, cfg, 0, 64)
	checkWaterfall(t, recs, SrvLocalDRAM, obs.FlightPathIMC, []obs.Stage{
		obs.StageCore, obs.StageL2, obs.StageCHA, obs.StageIMC, obs.StageIMCRet})
	for i := range recs {
		if r := &recs[i]; r.M2PExit|r.DevArrive|r.MediaStart != 0 {
			t.Fatalf("local-DRAM run record %d %+v carries CXL crossings", r.ID, r.FlightRec)
		}
	}
}

// checkDemandPath fails unless the record carries only crossings its serve
// location can have: a cache-served record none, a DRAM-served one no CXL
// crossing, a CXL-served one no IMC stage.  It reports whether a device
// served the record.
func checkDemandPath(t *testing.T, r *obs.FlightRec) (dev bool) {
	t.Helper()
	switch ServeLoc(r.Loc) {
	case SrvLocalDRAM, SrvRemoteDRAM:
		if r.Path != obs.FlightPathIMC || r.M2PExit|r.DevArrive|r.MediaStart != 0 {
			t.Fatalf("DRAM-served record %+v carries CXL crossings", r)
		}
		return true
	case SrvCXL:
		if r.Path != obs.FlightPathCXL {
			t.Fatalf("CXL-served record %+v: path %d", r, r.Path)
		}
		for _, sp := range stagesOf(r) {
			if sp.Stage == obs.StageIMC || sp.Stage == obs.StageIMCRet {
				t.Fatalf("CXL-served record %+v has an IMC stage", r)
			}
		}
		return true
	}
	if r.MemEnter|r.M2PExit|r.DevArrive|r.MediaStart|r.DataReady|r.Replay != 0 ||
		r.Path != obs.FlightPathNone {
		t.Fatalf("cache-served record %+v carries device crossings", r)
	}
	return false
}

// TestTracerPrefetchDoesNotPolluteDemand: with the prefetchers training
// hard on one core's dependent CXL chain, prefetch and writeback traffic
// never reaches a demand's record — its device crossings travel in the
// demand read's own result.
func TestTracerPrefetchDoesNotPolluteDemand(t *testing.T) {
	cfg := smallConfig() // default prefetch degrees: streams train hard
	recs := traceRun(t, cfg, 2, 256)
	var cached, dev int
	for i := range recs {
		if checkDemandPath(t, &recs[i].FlightRec) {
			dev++
		} else {
			cached++
		}
	}
	if cached == 0 || dev == 0 {
		t.Fatalf("chain served %d records from caches and %d from devices; want both", cached, dev)
	}
}

// TestTracerDemandSealUnderWindowLanes: a demand's record is sealed against
// other traffic by construction, its crossings coming from its own read;
// this checks it where a leak is likeliest — four cores interleaved by the
// sequential sweep, prefetchers training hard.  The oracle exports the
// same trace.
func TestTracerDemandSealUnderWindowLanes(t *testing.T) {
	export := func(oracle bool) []obs.TraceRec {
		m, local, cxlr := windowRig(t) // default prefetch degrees: streams train
		m.SetDispatchOracle(oracle)
		f := obs.NewFlight(m.Cores(), 1<<13, 16)
		f.Enable()
		m.SetFlight(f)
		m.Attach(0, workload.NewStream(cxlr, 2, 0.2, 1))
		m.Attach(1, workload.NewStream(cxlr, 2, 0.1, 2))
		m.Attach(2, workload.NewStream(local, 2, 0, 3))
		m.Attach(3, workload.NewStream(cxlr, 2, 0.3, 4))
		m.Run(300_000)
		m.Sync()
		return f.Sample(1)
	}
	recs := export(false)
	var cached, dev int
	for i := range recs {
		if checkDemandPath(t, &recs[i].FlightRec) {
			dev++
		} else {
			cached++
		}
	}
	if cached == 0 || dev == 0 {
		t.Fatalf("rig served %d records from caches and %d from devices; want both", cached, dev)
	}
	if !reflect.DeepEqual(export(true), recs) {
		t.Fatal("the oracle exports a different trace than the sweep")
	}
}

// TestTracerDisabledRecordsNothing: disabling the recorder mid-run stops
// filing at once, inline sweep steps included; the export stays as it was
// while the machine runs on.
func TestTracerDisabledRecordsNothing(t *testing.T) {
	m, local, cxlr := windowRig(t)
	f := obs.NewFlight(m.Cores(), 1<<12, 16)
	f.Enable()
	m.SetFlight(f)
	m.Attach(0, workload.NewStream(cxlr, 2, 0.2, 1))
	m.Attach(1, workload.NewStream(local, 2, 0.2, 2))
	m.Run(100_000)
	n, export := f.RecordsTotal(), f.Sample(1)
	if n == 0 {
		t.Fatal("enabled recorder filed nothing")
	}
	f.Disable()
	before := m.InlineSteps()
	m.Run(100_000)
	m.Sync()
	if m.InlineSteps() == before {
		t.Fatal("machine took no inline steps after the recorder was disabled")
	}
	if got := f.RecordsTotal(); got != n {
		t.Fatalf("disabled recorder filed %d more records", got-n)
	}
	if !reflect.DeepEqual(f.Sample(1), export) {
		t.Fatal("disabled recorder's export changed")
	}
}

// TestTracerDoesNotPerturbTiming: exporting the trace between Run slices,
// at full rate and one in seven, from rings that wrap, leaves every PMU
// counter as it is with no recorder attached.
func TestTracerDoesNotPerturbTiming(t *testing.T) {
	run := func(every int) []uint64 {
		as := testSpace(t)
		r, err := as.Alloc(1<<20, mem.Fixed(2))
		if err != nil {
			t.Fatal(err)
		}
		m := New(smallConfig(), as)
		var f *obs.Flight
		if every > 0 {
			f = obs.NewFlight(m.Cores(), 64, 8)
			f.Enable()
			m.SetFlight(f)
		}
		ops := seqLoads(r.Base, 512, 64, true)
		for i := range ops {
			if i%3 == 0 {
				ops[i].Kind = workload.Store
			}
		}
		m.Attach(0, &opList{ops: ops})
		exported := 0
		for s := 0; s < 100; s++ {
			m.Run(5_000)
			if f != nil {
				exported += len(f.Sample(every))
			}
		}
		m.Run(20_000_000)
		m.Sync()
		if f != nil && (exported == 0 || f.RecordsTotal() < 512) {
			t.Fatalf("every=%d: exported %d records of %d filed", every, exported, f.RecordsTotal())
		}
		return bankSums(m)
	}
	base := run(0)
	for _, every := range []int{1, 7} {
		sameSums(t, fmt.Sprintf("every=%d", every), run(every), base)
	}
}
