package experiments

import (
	"pathfinder/internal/core"
	"pathfinder/internal/mem"
	"pathfinder/internal/pmu"
	"pathfinder/internal/report"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// PoolResult is the pooled-memory extension experiment: the paper's
// introduction motivates multi-device CXL pools; here the same aggregate
// working set is served by one versus two Type-3 devices, and PathFinder's
// estimator attributes stall across the FlexBus root complexes (the
// multi-RC loops of Algorithm 2).
type PoolResult struct {
	Devices    []int
	Bandwidth  []float64 // delivered GB/s
	AvgLatency []float64 // average load-to-use cycles
	DevLoads   [][]string
	StallSplit []float64 // device-0 share of attributed CXL-DIMM stall
}

// RunPool measures bandwidth and latency scaling from one to two pooled
// devices under an aggregate streaming load.
func RunPool(cfg sim.Config, quick bool) *PoolResult {
	epoch := sim.Cycles(4_000_000)
	if quick {
		epoch = 1_500_000
	}
	devCounts := []int{1, 2}
	out := &PoolResult{
		Devices:    make([]int, len(devCounts)),
		Bandwidth:  make([]float64, len(devCounts)),
		AvgLatency: make([]float64, len(devCounts)),
		DevLoads:   make([][]string, len(devCounts)),
		StallSplit: make([]float64, len(devCounts)),
	}
	runIndexed("pool", len(devCounts), func(di int) {
		devs := devCounts[di]
		c := cfg
		c.CXLDevices = devs
		c.LLCSize /= 4
		c.LLCSlices /= 4
		nodes := []mem.Node{{ID: 0, Kind: mem.LocalDRAM, Capacity: 64 << 30}}
		for d := 0; d < devs; d++ {
			nodes = append(nodes, mem.Node{ID: mem.NodeID(d + 1), Kind: mem.CXLDRAM,
				Device: d, Capacity: 64 << 30})
		}
		as := mem.NewAddressSpace(12, nodes)
		m := sim.New(c, as)
		k := core.ConstsFor(c)

		// Twelve streaming cores, working sets striped across the pool.
		nCores := 12
		for i := 0; i < nCores; i++ {
			node := mem.NodeID(i%devs + 1)
			reg, err := as.Alloc(16*mb, mem.Fixed(node))
			if err != nil {
				panic(err)
			}
			g := workload.NewStream(workload.Region{Base: reg.Base, Size: reg.Size}, 0, 0, uint64(i+1))
			m.Attach(i, g)
		}
		cap := core.NewCapturer(m)
		m.Run(epoch)
		s := cap.Capture()

		var lines, lat, cnt float64
		for d := 0; d < devs; d++ {
			lines += s.CXL(d, pmu.CXLDevCASRd)
		}
		for i := 0; i < nCores; i++ {
			lat += s.Core(i, pmu.MemTransLoadLatency)
			cnt += s.Core(i, pmu.MemTransLoadCount)
		}
		secs := float64(epoch) / (c.GHz * 1e9)
		out.Devices[di] = devs
		out.Bandwidth[di] = lines * 64 / secs / 1e9
		if cnt > 0 {
			out.AvgLatency[di] = lat / cnt
		}
		var loads []string
		for d := 0; d < devs; d++ {
			loads = append(loads, m.DevLoad(d).String())
		}
		out.DevLoads[di] = loads

		// PFEstimator attributes per-device stall via each RC's counters.
		bd0 := core.EstimateStalls(s, nil, 0, k)
		total := bd0.Stall[core.PathDRd][core.CompCXLDIMM] + bd0.Stall[core.PathHWPF][core.CompCXLDIMM]
		split := 1.0
		if devs == 2 {
			bd1 := core.EstimateStalls(s, nil, 1, k)
			other := bd1.Stall[core.PathDRd][core.CompCXLDIMM] + bd1.Stall[core.PathHWPF][core.CompCXLDIMM]
			if total+other > 0 {
				split = total / (total + other)
			}
		}
		out.StallSplit[di] = split
		s.Release()
	})
	return out
}

// Table renders the pooling comparison.
func (r *PoolResult) Table() *report.Table {
	t := &report.Table{
		Title: "Extension: pooled CXL devices (aggregate stream, 12 cores)",
		Cols:  []string{"devices", "bandwidth (GB/s)", "avg load latency (cyc)", "DevLoad classes", "dev0 stall share"},
	}
	for i := range r.Devices {
		loads := ""
		for j, l := range r.DevLoads[i] {
			if j > 0 {
				loads += ", "
			}
			loads += l
		}
		t.AddRow(report.Num(float64(r.Devices[i])), report.Num(r.Bandwidth[i]),
			report.Num(r.AvgLatency[i]), loads, report.Pct(r.StallSplit[i]))
	}
	return t
}
