package experiments

import (
	"fmt"

	"pathfinder/internal/core"
	"pathfinder/internal/cxl"
	"pathfinder/internal/pmu"
	"pathfinder/internal/report"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// WarmSweepResult is the warm-forked fault-severity matrix: one warm-heavy
// machine shared by every point, with a different link-fault plan installed
// at the warm barrier per point.  It is the pfbench face of
// experiments.Sweep: the 16 points fork from one cached warmed checkpoint
// instead of re-simulating the warm prefix 16 times, and produce the
// numbers a scratch run of every point would (restore-equivalence).
type WarmSweepResult struct {
	Labels    []string
	Bandwidth []float64 // delivered CXL GB/s during the measure phase
	AvgLat    []float64 // average load-to-use cycles
	Retries   []float64 // link-layer retries
	Timeouts  []float64 // device timeouts
}

// warmSweepPlans builds the 16-point fault matrix: a CRC-noise ladder
// crossed with timeout-episode shapes, every episode anchored inside the
// measure window [warm, warm+measure).  Index 0 is the healthy link.
func warmSweepPlans(warm, measure uint64) (plans []*cxl.FaultPlan, labels []string) {
	crc := []float64{0, 5e-4, 2e-3, 8e-3}
	timeouts := []string{"none", "one", "periodic", "penalty"}
	for _, rate := range crc {
		for ti, tl := range timeouts {
			p := &cxl.FaultPlan{Seed: 7}
			p.CRCRate[cxl.DirS2M] = rate
			ep := cxl.Episode{Start: warm + measure/4, Len: measure / 8}
			switch tl {
			case "one":
				p.Timeouts = []cxl.Episode{ep}
			case "periodic":
				ep.Period = measure / 3
				p.Timeouts = []cxl.Episode{ep}
			case "penalty":
				p.Timeouts = []cxl.Episode{ep}
				p.TimeoutPenalty = 4 * cxl.DefaultTimeoutPenalty
			}
			if rate == 0 && ti == 0 {
				p = nil // healthy link
			}
			plans = append(plans, p)
			labels = append(labels, fmt.Sprintf("crc=%g timeout=%s", rate, tl))
		}
	}
	return plans, labels
}

// RunWarmSweep measures link-fault severity against a shared warm-heavy
// prefix: four cores (two reuse-heavy CXL streams, a CXL GUPS, a local
// Zipf) warm caches and queues to the barrier, then each point installs
// its fault plan and runs the measure phase.  Sweep simulates the prefix
// once and forks it per point.
func RunWarmSweep(cfg sim.Config, quick bool) *WarmSweepResult {
	spec, out := warmSweepSpec(cfg, quick)
	Sweep(spec)
	return out
}

// warmSweepSpec builds RunWarmSweep's matrix and the result its points
// fill in.
func warmSweepSpec(cfg sim.Config, quick bool) (SweepSpec, *WarmSweepResult) {
	warm := sim.Cycles(2_000_000)
	measure := sim.Cycles(600_000)
	if quick {
		warm = 600_000
		measure = 200_000
	}
	plans, labels := warmSweepPlans(uint64(warm), uint64(measure))
	nCores := 4

	out := &WarmSweepResult{
		Labels:    labels,
		Bandwidth: make([]float64, len(plans)),
		AvgLat:    make([]float64, len(plans)),
		Retries:   make([]float64, len(plans)),
		Timeouts:  make([]float64, len(plans)),
	}
	spec := SweepSpec{
		Label: "warmsweep",
		Key:   fmt.Sprintf("warmsweep:%s:quick=%v", cfg.Name, quick),
		Base: func() *sim.Machine {
			rig := NewRig(RigOptions{Config: cfg, Cores: nCores, Scale: 4})
			for c := 0; c < 2; c++ {
				st := workload.NewStream(rig.Alloc(8*mb, rig.CXLNode), 0, 0.2, uint64(c+1))
				st.Reuse = 4
				rig.Machine.Attach(c, st)
			}
			rig.Machine.Attach(2, workload.NewGUPS(rig.Alloc(8*mb, rig.CXLNode), 0, 0, 0, 3))
			rig.Machine.Attach(3, workload.NewZipf(rig.Alloc(8*mb, rig.LocalNode), 0.9, 0.3, 4, 0, 4))
			return rig.Machine
		},
		Warm:   warm,
		Points: len(plans),
		Run: func(i int, m *sim.Machine) {
			m.SetFaultPlan(0, plans[i])
			cap := core.NewCapturer(m)
			m.Run(measure)
			s := cap.Capture()
			var lat, cnt float64
			for c := 0; c < nCores; c++ {
				lat += s.Core(c, pmu.MemTransLoadLatency)
				cnt += s.Core(c, pmu.MemTransLoadCount)
			}
			secs := float64(measure) / (cfg.GHz * 1e9)
			out.Bandwidth[i] = s.CXL(0, pmu.CXLDevCASRd) * 64 / secs / 1e9
			if cnt > 0 {
				out.AvgLat[i] = lat / cnt
			}
			out.Retries[i] = s.CXL(0, pmu.CXLLinkRetries)
			out.Timeouts[i] = s.CXL(0, pmu.CXLDevTimeouts)
			s.Release()
		},
	}
	return spec, out
}

// Table renders the severity matrix.
func (r *WarmSweepResult) Table() *report.Table {
	t := &report.Table{
		Title: "Warm-forked fault-severity sweep (shared warm prefix, 16 points)",
		Cols:  []string{"point", "CXL GB/s", "avg load lat (cyc)", "retries", "timeouts"},
	}
	for i := range r.Labels {
		t.AddRow(r.Labels[i], report.Num(r.Bandwidth[i]), report.Num(r.AvgLat[i]),
			report.Num(r.Retries[i]), report.Num(r.Timeouts[i]))
	}
	return t
}
