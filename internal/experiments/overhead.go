package experiments

import (
	"runtime"
	"time"

	"pathfinder/internal/core"
	"pathfinder/internal/report"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// OverheadResult is the §5.9 system-overhead measurement: the extra CPU
// time and memory PathFinder's snapshot-and-analyze loop adds on top of
// running the workload (the paper reports ~1.3% CPU and ~38 MB).
type OverheadResult struct {
	BaseSeconds     float64
	ProfiledSeconds float64
	CPUOverhead     float64 // fraction
	MemOverheadMB   float64
	Epochs          int
}

// RunOverhead measures the profiler's cost over a mixed workload.
func RunOverhead(cfg sim.Config, quick bool) *OverheadResult {
	opt := defaultChar(cfg, quick)
	epochs, epoch := 40, sim.Cycles(1_000_000)
	if quick {
		epochs, epoch = 16, 500_000
	}

	build := func() (*Rig, []core.AppRun) {
		rig := NewRig(RigOptions{Config: opt.cfg})
		apps := []core.AppRun{}
		for i, name := range []string{"LBM", "MCF", "YCSB-C"} {
			app, _ := workload.Lookup(name)
			node := rig.CXLNode
			if i == 0 {
				node = rig.LocalNode
			}
			reg := rig.Alloc(opt.ws/2, node)
			apps = append(apps, core.AppRun{Label: name, Core: i, Gen: app.Generator(reg, uint64(i+1))})
		}
		return rig, apps
	}

	// Baseline: same machine and workloads, no profiling.  Profiled: full
	// snapshot + PFBuilder + PFEstimator + PFAnalyzer + materializer per
	// epoch.  The two alternate epoch by epoch, so that load from other
	// processes on the host falls on both alike.
	rig, apps := build()
	for _, a := range apps {
		rig.Machine.Attach(a.Core, a.Gen)
	}
	rig2, apps2 := build()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := core.NewProfiler(core.Spec{
		Machine:     rig2.Machine,
		Apps:        apps2,
		EpochCycles: epoch,
		Epochs:      epochs,
	})
	if err != nil {
		panic(err)
	}
	var baseDur, profDur time.Duration
	for e := 0; e < epochs; e++ {
		t0 := time.Now()
		rig.Machine.Run(epoch)
		t1 := time.Now()
		if _, err := p.Step(); err != nil {
			panic(err)
		}
		baseDur += t1.Sub(t0)
		profDur += time.Since(t1)
	}
	base, profiled := baseDur.Seconds(), profDur.Seconds()
	runtime.ReadMemStats(&after)

	res := &OverheadResult{
		BaseSeconds:     base,
		ProfiledSeconds: profiled,
		Epochs:          epochs,
	}
	if base > 0 {
		res.CPUOverhead = (profiled - base) / base
		if res.CPUOverhead < 0 {
			res.CPUOverhead = 0
		}
	}
	if after.HeapAlloc > before.HeapAlloc {
		res.MemOverheadMB = float64(after.HeapAlloc-before.HeapAlloc) / (1 << 20)
	}
	return res
}

// Table renders the overhead summary.
func (r *OverheadResult) Table() *report.Table {
	t := &report.Table{
		Title: "§5.9 profiler overhead",
		Cols:  []string{"epochs", "base (s)", "profiled (s)", "CPU overhead", "memory (MB)"},
	}
	t.AddRow(report.Num(float64(r.Epochs)), report.Num(r.BaseSeconds),
		report.Num(r.ProfiledSeconds), report.Pct(r.CPUOverhead), report.Num(r.MemOverheadMB))
	return t
}
