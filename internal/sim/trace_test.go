package sim

import (
	"fmt"
	"testing"

	"pathfinder/internal/mem"
	"pathfinder/internal/obs"
	"pathfinder/internal/workload"
)

// traceRun drives n dependent loads over the node at fix, with every
// request traced, and returns the committed records.
func traceRun(t *testing.T, cfg Config, fix mem.NodeID, n int) []obs.ReqRec {
	t.Helper()
	as := testSpace(t)
	r, err := as.Alloc(1<<20, mem.Fixed(fix))
	if err != nil {
		t.Fatal(err)
	}
	m := New(cfg, as)
	tr := obs.NewTracer(4096, 1)
	tr.Enable()
	m.SetTracer(tr)
	m.Attach(0, &opList{ops: seqLoads(r.Base, n, 64, true)})
	m.Run(50_000_000)
	m.Sync()
	return tr.Records()
}

func stageSpans(r *obs.ReqRec) map[obs.Stage][]obs.Span {
	out := make(map[obs.Stage][]obs.Span)
	for _, sp := range r.Spans() {
		out[sp.Stage] = append(out[sp.Stage], sp)
	}
	return out
}

func TestTracerCXLWaterfall(t *testing.T) {
	cfg := smallConfig()
	cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
	recs := traceRun(t, cfg, 2, 64)
	if len(recs) != 64 {
		t.Fatalf("traced %d records, want 64", len(recs))
	}
	sawCXL := false
	for i := range recs {
		r := &recs[i]
		if r.Loc != SrvCXL.String() {
			continue
		}
		sawCXL = true
		byStage := stageSpans(r)
		for _, st := range []obs.Stage{obs.StageReq, obs.StageL2, obs.StageCHA,
			obs.StageM2PCIe, obs.StageCXLLink, obs.StageCXLDevQ,
			obs.StageCXLMedia, obs.StageCXLRet} {
			if len(byStage[st]) == 0 {
				t.Fatalf("record %d (loc %s) missing stage %s: %+v", r.ID, r.Loc, st, r.Spans())
			}
		}
		if len(byStage[obs.StageIMC]) != 0 {
			t.Fatalf("CXL-served record %d carries an IMC span", r.ID)
		}
		// The waterfall is ordered and nested inside the request span.
		req := byStage[obs.StageReq][0]
		link := byStage[obs.StageCXLLink][0]
		media := byStage[obs.StageCXLMedia][0]
		if link.Start < req.Start || media.End > req.End {
			t.Fatalf("device spans escape the request span: req=%+v link=%+v media=%+v",
				req, link, media)
		}
		if link.End > media.Start+1 && link.End > media.End {
			t.Fatalf("link span after media span: link=%+v media=%+v", link, media)
		}
	}
	if !sawCXL {
		t.Fatal("no CXL-served records traced")
	}
}

func TestTracerLocalDRAMUsesIMCStage(t *testing.T) {
	cfg := smallConfig()
	cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
	recs := traceRun(t, cfg, 0, 64)
	saw := false
	for i := range recs {
		r := &recs[i]
		if r.Loc != SrvLocalDRAM.String() {
			continue
		}
		saw = true
		byStage := stageSpans(r)
		if len(byStage[obs.StageIMC]) == 0 {
			t.Fatalf("DRAM-served record %d has no IMC span: %+v", r.ID, r.Spans())
		}
		for _, st := range []obs.Stage{obs.StageM2PCIe, obs.StageCXLLink,
			obs.StageCXLDevQ, obs.StageCXLMedia} {
			if len(byStage[st]) != 0 {
				t.Fatalf("DRAM-served record %d carries CXL stage %s", r.ID, st)
			}
		}
	}
	if !saw {
		t.Fatal("no DRAM-served records traced")
	}
}

// Prefetch traffic issued while a sampled demand record is current must not
// write device stages into it: the demand's own path stays clean.
func TestTracerPrefetchDoesNotPolluteDemand(t *testing.T) {
	cfg := smallConfig() // default prefetch degrees: streams train hard
	recs := traceRun(t, cfg, 2, 256)
	for i := range recs {
		r := &recs[i]
		byStage := stageSpans(r)
		// At most one request-level span and one media visit per record: a
		// second media span could only come from a prefetch riding along.
		if len(byStage[obs.StageReq]) > 1 {
			t.Fatalf("record %d has %d req spans", r.ID, len(byStage[obs.StageReq]))
		}
		if len(byStage[obs.StageCXLMedia]) > 1 {
			t.Fatalf("record %d has %d media spans (prefetch pollution)",
				r.ID, len(byStage[obs.StageCXLMedia]))
		}
		if r.Loc == SrvL1.String() || r.Loc == SrvL2.String() || r.Loc == SrvLFB.String() {
			if len(byStage[obs.StageCXLMedia]) != 0 || len(byStage[obs.StageIMC]) != 0 {
				t.Fatalf("cache-served record %d carries device spans: %+v", r.ID, r.Spans())
			}
		}
	}
}

// The demand-seal guards must hold under the sweep's multi-core
// interleaved stepping with prefetchers training hard: a sampled record on
// one core stays current while other cores (and its own prefetches) issue
// device traffic, and none of it may leak into the sealed waterfall.
func TestTracerDemandSealUnderWindowLanes(t *testing.T) {
	m, local, cxlr := windowRig(t) // default prefetch degrees: streams train
	tr := obs.NewTracer(1<<13, 1)
	tr.Enable()
	m.SetTracer(tr)
	m.Attach(0, workload.NewStream(cxlr, 2, 0.2, 1))
	m.Attach(1, workload.NewStream(cxlr, 2, 0.1, 2))
	m.Attach(2, workload.NewStream(local, 2, 0, 3))
	m.Attach(3, workload.NewStream(cxlr, 2, 0.3, 4))
	m.Run(300_000)
	m.Sync()

	recs := tr.Records()
	if len(recs) == 0 {
		t.Fatal("no records traced")
	}
	for i := range recs {
		r := &recs[i]
		byStage := stageSpans(r)
		if len(byStage[obs.StageReq]) > 1 {
			t.Fatalf("record %d has %d req spans", r.ID, len(byStage[obs.StageReq]))
		}
		// One device visit max: extra media/IMC spans could only come from
		// prefetch or cross-core traffic filed into a stale record.
		if len(byStage[obs.StageCXLMedia]) > 1 {
			t.Fatalf("record %d has %d media spans (demand-seal breach)",
				r.ID, len(byStage[obs.StageCXLMedia]))
		}
		if len(byStage[obs.StageIMC]) > 1 {
			t.Fatalf("record %d has %d IMC spans (demand-seal breach)",
				r.ID, len(byStage[obs.StageIMC]))
		}
		if len(byStage[obs.StageCXLMedia]) > 0 && len(byStage[obs.StageIMC]) > 0 {
			t.Fatalf("record %d (loc %s) carries both IMC and CXL media spans", r.ID, r.Loc)
		}
		if r.Loc == SrvL1.String() || r.Loc == SrvL2.String() || r.Loc == SrvLFB.String() {
			if len(byStage[obs.StageCXLMedia]) != 0 || len(byStage[obs.StageIMC]) != 0 {
				t.Fatalf("cache-served record %d carries device spans: %+v", r.ID, r.Spans())
			}
		}
		// Spans nest inside the request envelope.
		if req, ok := byStage[obs.StageReq]; ok {
			for _, sp := range r.Spans() {
				if sp.Start < req[0].Start || sp.End > req[0].End {
					t.Fatalf("record %d: span %+v escapes request envelope %+v", r.ID, sp, req[0])
				}
			}
		}
	}
}

func TestTracerDisabledRecordsNothing(t *testing.T) {
	as := testSpace(t)
	r, err := as.Alloc(1<<20, mem.Fixed(2))
	if err != nil {
		t.Fatal(err)
	}
	m := New(smallConfig(), as)
	tr := obs.NewTracer(64, 1) // attached but never enabled
	m.SetTracer(tr)
	m.Attach(0, &opList{ops: seqLoads(r.Base, 128, 64, true)})
	m.Run(10_000_000)
	if got := tr.Records(); len(got) != 0 {
		t.Fatalf("disabled tracer committed %d records", len(got))
	}
}

// Tracing must not perturb simulated timing: PMU counters are identical
// with tracing off, sampled, and full-rate.
func TestTracerDoesNotPerturbTiming(t *testing.T) {
	run := func(every int) map[string]uint64 {
		as := testSpace(t)
		r, err := as.Alloc(1<<20, mem.Fixed(2))
		if err != nil {
			t.Fatal(err)
		}
		m := New(smallConfig(), as)
		if every > 0 {
			tr := obs.NewTracer(256, every)
			tr.Enable()
			m.SetTracer(tr)
		}
		ops := seqLoads(r.Base, 512, 64, true)
		for i := range ops {
			if i%3 == 0 {
				ops[i].Kind = workload.Store
			}
		}
		m.Attach(0, &opList{ops: ops})
		m.Run(20_000_000)
		m.Sync()
		out := make(map[string]uint64)
		for _, b := range m.Banks() {
			for ev, v := range b.Values() {
				if v != 0 {
					out[fmt.Sprintf("%s/%d", b.Name(), ev)] = v
				}
			}
		}
		return out
	}
	base := run(0)
	for _, every := range []int{1, 7} {
		got := run(every)
		if len(got) != len(base) {
			t.Fatalf("every=%d: %d nonzero counters vs %d untraced", every, len(got), len(base))
		}
		for k, v := range base {
			if got[k] != v {
				t.Fatalf("every=%d: counter %s = %d, untraced %d", every, k, got[k], v)
			}
		}
	}
}
