package main

import (
	"fmt"
	"runtime"

	"pathfinder/internal/core"
	"pathfinder/internal/mem"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// cxl-stream is the rig of BenchmarkSimCXLStream run long: SPR with 4
// cores, 8 LLC slices and an 8 MiB LLC; core 0 streams a 64 MiB
// CXL-resident region (think 2, 20% stores, reuse 4) and the other cores
// idle; no profiler, no flight recorder, default lanes.  It isolates the
// simulator's single-core hot loop with every other layer bypassed.
const (
	streamRegion     = 64 << 20
	streamReuse      = 4
	streamChunk      = 2_000_000  // simulated cycles per chunk
	streamCyclesPerS = 50_000_000 // measured cycles per --seconds second
)

// streamPass is one build, warm-up and measured phase of cxl-stream.
type streamPass struct {
	setup, meas phase
	cfg         sim.Config
	warmCycles  sim.Cycles
	cycles      sim.Cycles
	ops         uint64
	md          model
	dig         *digest
	inline      uint64
	dispatched  uint64
	pending     []float64
	windows     sim.WindowStats
	heapMB      float64
	rt0, rt1    rtMark
}

// runStreamPass builds the rig, warms it past one sweep of the region, and
// measures a fixed count of simulated cycles in chunks; ref slices run
// between chunks.  Spans go to tr (nil when untraced).
func runStreamPass(o options, ref *refKernel, tr *tracer, res *result) (*streamPass, error) {
	p := &streamPass{setup: phase{ref: ref}, meas: phase{ref: ref}, dig: newDigest()}
	var (
		m   *sim.Machine
		gen *workload.Counting
		err error
	)
	p.setup.timed(func() {
		sp := tr.begin("sim.build", -1)
		defer tr.end(sp)
		as := mem.NewAddressSpace(12, []mem.Node{
			{ID: 0, Kind: mem.LocalDRAM, Capacity: 8 << 30},
			{ID: 1, Kind: mem.CXLDRAM, Device: 0, Capacity: 8 << 30},
		})
		var r mem.Region
		if r, err = as.Alloc(streamRegion, mem.Fixed(1)); err != nil {
			return
		}
		p.cfg = sim.SPR()
		p.cfg.Cores = 4
		p.cfg.LLCSlices = 8
		p.cfg.LLCSize = 8 << 20
		m = sim.New(p.cfg, as)
		g := workload.NewStream(workload.Region{Base: r.Base, Size: r.Size}, 2, 0.2, o.seed)
		g.Reuse = streamReuse
		gen = workload.NewCounting(g)
		m.Attach(0, gen)
	})
	if err != nil {
		return nil, fmt.Errorf("cxl-stream: building the rig: %w", err)
	}
	for sweep := uint64(streamRegion/64) * streamReuse; gen.Total() < sweep; {
		p.setup.tick()
		p.setup.timed(func() {
			sp := tr.begin("sim.warm", -1)
			m.Run(streamChunk)
			tr.end(sp)
		})
	}
	p.warmCycles = m.Now()

	cap := core.NewCapturer(m)
	active := core.NewPlan(cap.Index(), []int{0}, 0)
	in0, ev0, ws0, ops0 := m.InlineSteps(), m.DispatchedEvents(), m.WindowStats(), gen.Total()
	p.rt0 = markRuntime()
	chunks := o.seconds * streamCyclesPerS / streamChunk
	for c := 0; c < chunks; c++ {
		p.meas.tick()
		p.meas.timed(func() {
			res.op(guard(func() error { return p.chunk(c, m, gen, cap, active, tr) }))
		})
	}
	p.rt1 = markRuntime()
	p.cycles = m.Now() - p.warmCycles
	p.ops = gen.Total() - ops0
	p.inline = m.InlineSteps() - in0
	p.dispatched = m.DispatchedEvents() - ev0
	p.windows = windowDelta(ws0, m.WindowStats())
	p.heapMB = heapLiveMB()
	runtime.KeepAlive(m)
	return p, nil
}

// chunk runs one measured chunk and checks its snapshot.
func (p *streamPass) chunk(c int, m *sim.Machine, gen *workload.Counting, cap *core.Capturer,
	active *core.Plan, tr *tracer) error {
	sp := tr.begin("sim.run", c)
	before := gen.Total()
	m.Run(streamChunk)
	tr.endSim(sp, streamChunk, gen.Total()-before)
	sp = tr.begin("core.capture", c)
	s := cap.Capture()
	tr.end(sp)
	defer s.Release()
	p.pending = append(p.pending, float64(m.PendingEvents()))
	if !m.Core(0).Running() {
		return fmt.Errorf("chunk %d: the stream stopped", c)
	}
	if s.Cycles() != streamChunk {
		return fmt.Errorf("chunk %d: snapshot covers %.0f cycles, want %d", c, s.Cycles(), streamChunk)
	}
	if why := conservation(s, p.cfg); why != "" {
		return fmt.Errorf("chunk %d: %s", c, why)
	}
	p.md.add(s, active)
	p.dig.add(s)
	return nil
}

// runCXLStream runs the workload.  Untraced, it reports the end-to-end
// metrics; traced, it repeats the untraced pass, then a traced one, and
// reports the per-layer metrics.
func runCXLStream(o options) (*result, error) {
	res := newResult()
	ref := newRefKernel()
	a, err := runStreamPass(o, ref, nil, res)
	if err != nil {
		return nil, err
	}
	res.lines = append(res.lines, "cxl-stream pmu "+a.dig.hex())
	res.e2e["setup_s"] = a.setup.scaledS()
	res.e2e["cpu_s"] = a.meas.scaledS()
	res.e2e["heap_live_mb"] = a.heapMB
	if !o.trace {
		return res, nil
	}

	runtime.GC()
	tr := newTracer()
	b, err := runStreamPass(o, ref, tr, res)
	if err != nil {
		return nil, err
	}
	if a.dig.hex() != b.dig.hex() {
		res.fail(fmt.Errorf("traced pass PMU digest %s != untraced %s", b.dig.hex(), a.dig.hex()))
	}
	l := res.layer
	hostLayer(l, &a.setup, &a.meas, float64(a.cycles))
	runtimeLayer(a.rt0, a.rt1, l)
	self := selfTimes(tr.spans)
	kc := float64(b.cycles) / 1e3
	l["sim.run_ns_per_kcycle"] = ratio(float64(self["sim.run"]), kc)
	l["sim.run_ns_per_op"] = ratio(float64(self["sim.run"]), float64(b.ops))
	l["sim.inline_steps_per_kcycle"] = ratio(float64(b.inline), kc)
	l["sim.dispatched_events_per_kcycle"] = ratio(float64(b.dispatched), kc)
	l["sim.pending_events"] = mean(b.pending)
	windowLayer(l, b.windows, float64(b.cycles))
	l["sim.build_ms"] = float64(self["sim.build"]) / 1e6
	l["sim.warm_ns_per_kcycle"] = ratio(float64(self["sim.warm"]), float64(b.warmCycles)/1e3)
	l["core.capture_us"] = ratio(float64(self["core.capture"])/1e3, float64(len(b.pending)))
	b.md.report(b.cfg.GHz, l)
	traceLayer(l, tr, a.meas.scaledS(), b.meas.scaledS())
	return res, writeSpans(o, tr, "cxl-stream", res)
}

// hostLayer reports the raw host figures behind the scaled ones.
func hostLayer(l map[string]float64, setup, meas *phase, cycles float64) {
	l["sim.mcycles_per_s"] = ratio(cycles/1e6, meas.scaledS())
	l["host.raw_setup_s"] = setup.cpuS()
	l["host.raw_cpu_s"] = meas.cpuS()
	l["host.raw_wall_s"] = meas.rawS()
	l["host.raw_sim_mcycles_per_s"] = ratio(cycles/1e6, meas.rawS())
	l["host.ref_slowdown_x"] = meas.slowdown()
	l["host.ref_iqr_pct"] = spreadPct(meas.slices)
}

// windowDelta is the window-scheduler activity between two readings.
func windowDelta(a, b sim.WindowStats) sim.WindowStats {
	d := sim.WindowStats{Windows: b.Windows - a.Windows}
	for i := range d.WindowCycles {
		d.WindowCycles[i] = b.WindowCycles[i] - a.WindowCycles[i]
	}
	return d
}

// windowLayer reports windows opened per simulated Mcycle and the median
// window span, read off the scheduler's log2 histogram (the lower bound of
// the bucket holding the median window).
func windowLayer(l map[string]float64, ws sim.WindowStats, cycles float64) {
	l["sim.windows_per_mcycle"] = ratio(float64(ws.Windows), cycles/1e6)
	var total, seen uint64
	for _, n := range ws.WindowCycles {
		total += n
	}
	for i, n := range ws.WindowCycles {
		seen += n
		if total > 0 && 2*seen >= total {
			l["sim.window_span_p50_cycles"] = float64(uint64(1) << uint(i))
			return
		}
	}
}

// traceLayer reports what tracing cost: the traced pass's scaled CPU time
// over the untraced pass's, and how many spans it recorded.
func traceLayer(l map[string]float64, tr *tracer, untraced, traced float64) {
	l["trace.overhead_pct"] = 100 * ratio(traced-untraced, untraced)
	l["trace.spans"] = float64(len(tr.spans))
}

// writeSpans writes the traced run's spans and logs where they went.
func writeSpans(o options, tr *tracer, name string, res *result) error {
	path, err := tr.write(o.outDir, name, o.seed)
	if err != nil {
		return err
	}
	res.lines = append(res.lines, "spans "+path)
	return nil
}
