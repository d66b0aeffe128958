package sim

import (
	"fmt"
	"testing"

	"pathfinder/internal/mem"
	"pathfinder/internal/obs"
	"pathfinder/internal/workload"
)

// flightRun drives n dependent loads (every third op a store) over the
// node at fix with an enabled flight recorder attached.
func flightRun(t *testing.T, cfg Config, fix mem.NodeID, n int) (*Machine, *obs.Flight) {
	t.Helper()
	as := testSpace(t)
	r, err := as.Alloc(1<<20, mem.Fixed(fix))
	if err != nil {
		t.Fatal(err)
	}
	m := New(cfg, as)
	f := obs.NewFlight(cfg.Cores, 1024, 64)
	f.Enable()
	m.SetFlight(f)
	ops := seqLoads(r.Base, n, 64, true)
	for i := range ops {
		if i%3 == 0 {
			ops[i].Kind = workload.Store
		}
	}
	m.Attach(0, &opList{ops: ops})
	m.Run(50_000_000)
	m.Sync()
	return m, f
}

func TestFlightRecordsCompletions(t *testing.T) {
	cfg := smallConfig()
	cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
	_, f := flightRun(t, cfg, 2, 256)

	// Every demand op completes exactly once; prefetchers are off, so the
	// record count is the op count.
	if got := f.RecordsTotal(); got != 256 {
		t.Fatalf("recorded %d requests, want 256", got)
	}
	if f.Seen(obs.FlightLoad) == 0 || f.Seen(obs.FlightStore) == 0 {
		t.Fatalf("class split lost: loads=%d stores=%d",
			f.Seen(obs.FlightLoad), f.Seen(obs.FlightStore))
	}
	if f.Seen(obs.FlightLoad)+f.Seen(obs.FlightStore) != 256 {
		t.Fatalf("classes sum to %d, want 256",
			f.Seen(obs.FlightLoad)+f.Seen(obs.FlightStore))
	}

	sawCXL := false
	for _, r := range f.CoreRecords(0) {
		if r.Done <= r.Issue {
			t.Fatalf("record %+v has non-positive latency", r)
		}
		lat := r.Latency()
		// Stage deltas are offsets from issue and must stay ordered and
		// inside the request envelope when present.
		if r.TOREnter > 0 && r.L2Start > 0 && r.TOREnter < r.L2Start {
			t.Fatalf("record %+v: TOR before L2", r)
		}
		if r.MemEnter > 0 && r.TOREnter > 0 && r.MemEnter < r.TOREnter {
			t.Fatalf("record %+v: mem entry before TOR", r)
		}
		if uint64(r.MemEnter) > lat {
			t.Fatalf("record %+v: mem entry beyond completion", r)
		}
		if ServeLoc(r.Loc) == SrvCXL {
			sawCXL = true
			if r.MemEnter == 0 {
				t.Fatalf("CXL-served record %+v never entered the memory path", r)
			}
		}
	}
	if !sawCXL {
		t.Fatal("no CXL-served records captured")
	}
}

func TestFlightDisabledRecordsNothing(t *testing.T) {
	as := testSpace(t)
	r, err := as.Alloc(1<<20, mem.Fixed(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	m := New(cfg, as)
	f := obs.NewFlight(cfg.Cores, 64, 8) // attached but never enabled
	m.SetFlight(f)
	m.Attach(0, &opList{ops: seqLoads(r.Base, 128, 64, true)})
	m.Run(10_000_000)
	m.Sync()
	if got := f.RecordsTotal(); got != 0 {
		t.Fatalf("disabled recorder filed %d records", got)
	}
}

func TestFlightUndersizedPanics(t *testing.T) {
	as := testSpace(t)
	m := New(smallConfig(), as) // 4 cores
	defer func() {
		if recover() == nil {
			t.Fatal("attaching a 1-core recorder to a 4-core machine did not panic")
		}
	}()
	m.SetFlight(obs.NewFlight(1, 64, 8))
}

// The flight recorder must be timing-neutral: every PMU counter identical
// with the recorder detached, attached-disabled, and attached-enabled — on
// the dispatch oracle and on the sequential sweep.
func TestFlightDoesNotPerturbTiming(t *testing.T) {
	run := func(lanes int, flight bool) ([]uint64, uint64) {
		m, local, cxlr := windowRig(t)
		m.SetLanes(lanes)
		var f *obs.Flight
		if flight {
			f = obs.NewFlight(m.Cores(), 512, 32)
			f.Enable()
			m.SetFlight(f)
		}
		m.Attach(0, workload.NewStream(local, 2, 0.2, 1))
		m.Attach(1, workload.NewStream(cxlr, 2, 0.3, 2))
		m.Attach(2, workload.NewPointerChase(cxlr, 2, 3))
		m.Attach(3, workload.NewStream(local, 1, 0.1, 4))
		m.Run(300_000)
		m.Sync()
		var recs uint64
		if f != nil {
			recs = f.RecordsTotal()
		}
		return bankSums(m), recs
	}

	base, _ := run(-1, false)
	var recCounts []uint64
	for _, tc := range []struct {
		lanes  int
		flight bool
	}{{-1, true}, {0, true}, {0, false}} {
		sums, recs := run(tc.lanes, tc.flight)
		sameSums(t, fmt.Sprintf("lanes=%d flight=%v", tc.lanes, tc.flight), sums, base)
		if tc.flight {
			if recs == 0 {
				t.Fatalf("lanes=%d: enabled recorder saw nothing", tc.lanes)
			}
			recCounts = append(recCounts, recs)
		}
	}
	// Identical timing means identical completion counts in both modes.
	for i := 1; i < len(recCounts); i++ {
		if recCounts[i] != recCounts[0] {
			t.Fatalf("record counts diverge between the oracle and the sweep: %v", recCounts)
		}
	}
}
