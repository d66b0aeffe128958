package experiments

import (
	"pathfinder/internal/core"
	"pathfinder/internal/cxl"
	"pathfinder/internal/pmu"
	"pathfinder/internal/report"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// FaultsResult is the link-reliability extension: a YCSB mFlow on CXL
// memory is profiled while the FlexBus link degrades through a sweep of
// CRC-corruption rates (with burst windows and, at the top rate, device
// timeout/throttle episodes).  The sweep shows the profiler localizing
// the fault domain: once the CRC rate reaches 1e-3 the culprit is
// FlexBus+MC at either length, as retry replays eat wire bandwidth and
// requests pile up at the M2PCIe ingress instead of the device queues.
// The healthy link's culprit depends on the length: at -quick (800k-cycle
// epochs) the CXL DIMM holds the dominant downstream queue (38.50 against
// FlexBus+MC's 35.86), but at full length (2M cycles) the link's queue
// has grown past it (57.01 against 34.56), so FlexBus+MC leads there too.
type FaultsResult struct {
	Rates    []float64      // CRC corruption probability per flit transfer
	Sweep    *report.Series // throughput, link-fault counters, measured queues
	Culprits []string       // dominant downstream component at each rate
}

// Column indices of FaultsResult.Sweep.
const (
	faultColOps = iota
	faultColCRCErrors
	faultColRetries
	faultColReplayKiB
	faultColTimeouts
	faultColFlexQ
	faultColDIMMQ
)

// faultPlanFor builds the deterministic fault plan of one sweep step: a
// base CRC rate on both directions, periodic burst windows at 200x the
// base rate, and — once the link is clearly sick — device timeout and
// DevLoad-throttle episodes.
func faultPlanFor(rate float64, epoch sim.Cycles) *cxl.FaultPlan {
	plan := &cxl.FaultPlan{Seed: 42}
	if rate == 0 {
		return plan
	}
	plan.CRCRate[cxl.DirM2S] = rate
	plan.CRCRate[cxl.DirS2M] = rate
	burst := 200 * rate
	if burst > 1 {
		burst = 1
	}
	e := uint64(epoch)
	for _, d := range []cxl.Direction{cxl.DirM2S, cxl.DirS2M} {
		plan.Bursts = append(plan.Bursts, cxl.Burst{
			Dir: d, Start: e / 8, Len: e / 16, Period: e / 4, Rate: burst,
		})
	}
	if rate >= 1e-2 {
		plan.Timeouts = append(plan.Timeouts,
			cxl.Episode{Start: e / 2, Len: e / 32, Period: e / 2})
		plan.Throttles = append(plan.Throttles,
			cxl.Episode{Start: e / 3, Len: e / 16, Period: e / 2})
		plan.TimeoutPenalty = cxl.DefaultTimeoutPenalty
	}
	return plan
}

// RunFaults sweeps link CRC-corruption rates under a fixed CXL-bound
// workload.  Everything is keyed off FaultPlan seed 42, so two runs with
// the same configuration produce identical numbers.  quick selects
// 800k-cycle epochs instead of 2M; the healthy link's culprit is the CXL
// DIMM at -quick but FlexBus+MC at full length, while every rate from
// 1e-3 up names FlexBus+MC at both (see FaultsResult).
func RunFaults(cfg sim.Config, quick bool) *FaultsResult {
	opt := defaultChar(cfg, quick)
	epoch := sim.Cycles(2_000_000)
	if quick {
		epoch = 800_000
	}

	out := &FaultsResult{
		Rates: []float64{0, 1e-4, 1e-3, 1e-2},
		Sweep: &report.Series{
			Title: "Link-fault sweep: YCSB on a degrading CXL link (seed 42)",
			XName: "crc_rate",
			Names: []string{"ops", "crc_errors", "retries", "replay_KiB",
				"dev_timeouts", "flexbus_q", "cxl_dimm_q"},
		},
	}

	rows := make([][]float64, len(out.Rates))
	out.Culprits = make([]string, len(out.Rates))
	runIndexed("faults", len(out.Rates), func(i int) {
		rate := out.Rates[i]
		c := opt.cfg
		c.Faults = faultPlanFor(rate, epoch)
		rig := NewRig(RigOptions{Config: c})
		m := rig.Machine

		ycsbReg := rig.Alloc(opt.ws, 2)
		ycsbApp, _ := workload.Lookup("YCSB-C")
		counting := workload.NewCounting(ycsbApp.Generator(ycsbReg, 21))
		m.Attach(0, counting)

		// Background CXL readers keep the link moderately loaded but not
		// saturated.  At -quick the healthy bottleneck stays at the device
		// media, so the fault-induced shift toward the link is a change of
		// culprit; at full length the link's queue already leads on a
		// healthy link and the faults lengthen its lead.
		for cr := 1; cr <= 4; cr++ {
			reg := rig.Alloc(opt.ws/2, 2)
			m.Attach(cr, workload.NewStream(reg, 40, 0.1, uint64(cr*7)))
		}

		cap := core.NewCapturer(m)
		m.Run(epoch)
		s := cap.Capture()

		meas := core.MeasuredQueues(s, nil, 0)
		flexQ, dimmQ := meas[core.CompFlexBusMC], meas[core.CompCXLDIMM]
		culprit := core.CompCXLDIMM
		if flexQ > dimmQ {
			culprit = core.CompFlexBusMC
		}
		rows[i] = []float64{
			float64(counting.Total()),
			s.CXL(0, pmu.CXLLinkCRCErrors),
			s.CXL(0, pmu.CXLLinkRetries),
			s.CXL(0, pmu.CXLLinkReplayBytes) / 1024,
			s.CXL(0, pmu.CXLDevTimeouts),
			flexQ, dimmQ,
		}
		out.Culprits[i] = culprit.String()
		s.Release()
	})
	for i, rate := range out.Rates {
		out.Sweep.Add(rate, rows[i]...)
	}
	return out
}

// At returns one sweep column at the i-th rate step.
func (r *FaultsResult) At(i, col int) float64 { return r.Sweep.Y[col][i] }

// ThroughputDrop returns the YCSB throughput loss from the healthy link
// to the sickest one.
func (r *FaultsResult) ThroughputDrop() float64 {
	n := len(r.Rates)
	if n < 2 || r.At(0, faultColOps) == 0 {
		return 0
	}
	return 1 - r.At(n-1, faultColOps)/r.At(0, faultColOps)
}
