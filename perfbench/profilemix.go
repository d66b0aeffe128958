package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"pathfinder/internal/core"
	"pathfinder/internal/mem"
	"pathfinder/internal/obs"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// profile-mix is the pathfinder epoch loop as the CLI builds it: SPR with
// the LLC scaled by 4, local/remote/CXL nodes, 2M-cycle epochs, continuous
// mode, flight recorder on, four 64 MiB catalog apps pinned to cores 0-3.
// It steps on the sequential sweep (lanes 1).  It is the only workload
// where cores contend in the uncore, writes sit beside reads, the flight
// recorder files every completion, the whole capture -> PFBuilder ->
// PFEstimator -> PFAnalyzer -> PFMaterializer chain runs every epoch, and
// the simulator's ground truth scores the profiler.
const (
	mixEpoch       = 2_000_000 // simulated cycles per epoch (-epoch-kcycles 2000)
	mixWarmEpochs  = 10        // warm-up epochs before the measured phase
	mixSetups      = 3         // set-ups per untraced run; setup_s is their median
	mixEpochsPerS  = 10        // measured epochs per --seconds second
	mixRegion      = 64 << 20  // -ws-mb 64
	mixSweepLanes  = 1         // -lanes 1: the sequential sweep
	mixAutoLanes   = 0         // the CLI default: auto lanes
	mixAutoDivisor = 4         // the auto-lanes pass re-runs 1/4 of the epochs
)

// mixApps are the apps and placements, pinned to cores 0-3 in order:
// a stencil on CXL, a pointer chase on local DRAM, Zipf with 50% writes
// on CXL, and random read-modify-write interleaved 3:1 local:CXL.
var mixApps = []struct {
	name string
	pol  mem.Policy
}{
	{"LBM", mem.Fixed(2)},
	{"MCF", mem.Fixed(0)},
	{"YCSB-A", mem.Fixed(2)},
	{"GUPS", mem.Interleave{A: 0, B: 2, RatioA: 3, RatioB: 1}},
}

// mixRig is a built profile-mix machine with one of two epoch loops:
// Profiler.Step as the CLI runs it (untraced), or the same epochs through
// the public calls Step makes, each inside a span (traced).
type mixRig struct {
	cfg    sim.Config
	m      *sim.Machine
	fl     *obs.Flight
	labels []string
	gens   []*workload.Counting

	prof *core.Profiler

	cap   *core.Capturer
	plans []*core.Plan
	mat   *core.Materializer
	k     core.Consts
	tr    *tracer
	epoch uint64
}

// epochOut is one epoch's snapshot and per-app analyses, in app order.
type epochOut struct {
	s   *core.Snapshot
	qrs []*core.QueueReport
	bds []*core.StallBreakdown
}

func buildMix(seed uint64, lanes int, tr *tracer) (*mixRig, error) {
	r := &mixRig{cfg: sim.SPR(), tr: tr}
	r.cfg.LLCSize /= 4
	r.cfg.LLCSlices /= 4
	if r.cfg.LLCSlices < r.cfg.SNCClusters {
		r.cfg.LLCSlices = r.cfg.SNCClusters
	}
	as := mem.NewAddressSpace(12, []mem.Node{
		{ID: 0, Kind: mem.LocalDRAM, Capacity: 256 << 30},
		{ID: 1, Kind: mem.RemoteDRAM, Socket: 1, Capacity: 256 << 30},
		{ID: 2, Kind: mem.CXLDRAM, Device: 0, Capacity: 256 << 30},
	})
	r.m = sim.New(r.cfg, as)
	r.m.SetLanes(lanes)
	// The CLI also registers the recorder's scrape-time gauges on
	// obs.Default; only a /metrics scrape reads them, and their closures
	// would keep every set-up's machine reachable, so they are left out.
	r.fl = obs.NewFlight(r.m.Cores(), 4096, 512)
	r.fl.Enable()
	r.m.SetFlight(r.fl)

	var runs []core.AppRun
	for i, a := range mixApps {
		app, ok := workload.Lookup(a.name)
		if !ok {
			return nil, fmt.Errorf("profile-mix: no catalog app %q", a.name)
		}
		reg, err := as.Alloc(mixRegion, a.pol)
		if err != nil {
			return nil, fmt.Errorf("profile-mix: allocating %s: %w", a.name, err)
		}
		gen := workload.NewCounting(app.Generator(workload.Region{Base: reg.Base, Size: reg.Size},
			seed*16+uint64(i)+1))
		r.labels = append(r.labels, app.Name)
		r.gens = append(r.gens, gen)
		runs = append(runs, core.AppRun{Label: app.Name, Core: i, Gen: gen})
	}
	if tr == nil {
		p, err := core.NewProfiler(core.Spec{
			Machine:     r.m,
			Apps:        runs,
			EpochCycles: mixEpoch,
			Epochs:      1, // Step does not enforce a count
			Mode:        core.ModeContinuous,
			Metrics:     obs.Default,
			Flight:      r.fl,
		})
		if err != nil {
			return nil, fmt.Errorf("profile-mix: %w", err)
		}
		r.prof = p
		return r, nil
	}
	// NewProfiler attaches the apps in order and then builds its capturer;
	// the traced loop repeats that sequence, so both simulate the same.
	for _, run := range runs {
		r.m.Attach(run.Core, run.Gen)
	}
	r.cap = core.NewCapturer(r.m)
	for i := range runs {
		r.plans = append(r.plans, core.NewPlan(r.cap.Index(), []int{i}, 0))
	}
	r.mat = core.NewMaterializer()
	r.k = core.ConstsFor(r.cfg)
	return r, nil
}

func (r *mixRig) ops() uint64 {
	var t uint64
	for _, g := range r.gens {
		t += g.Total()
	}
	return t
}

func (r *mixRig) materializer() *core.Materializer {
	if r.prof != nil {
		return r.prof.Materializer()
	}
	return r.mat
}

// step runs one epoch through the rig's epoch loop.
func (r *mixRig) step(e int) (epochOut, error) {
	var out epochOut
	if r.prof != nil {
		res, err := r.prof.Step()
		if err != nil {
			return out, err
		}
		if res.Truncated {
			return out, fmt.Errorf("epoch %d truncated: %s", e, res.Note)
		}
		out.s = res.Snapshot
		for _, l := range r.labels {
			out.qrs = append(out.qrs, res.Queues[l])
			out.bds = append(out.bds, res.Stalls[l])
		}
		return out, nil
	}
	tr := r.tr
	r.epoch++
	r.fl.SetEpoch(r.epoch)
	sp := tr.begin("sim.run", e)
	ops := r.ops()
	r.m.Run(mixEpoch)
	tr.endSim(sp, mixEpoch, r.ops()-ops)
	sp = tr.begin("core.capture", e)
	out.s = r.cap.Capture()
	tr.end(sp)
	for i, l := range r.labels {
		pm, bd, qr := &core.PathMap{}, &core.StallBreakdown{}, &core.QueueReport{}
		sp = tr.begin("core.pathmap", e)
		r.plans[i].BuildPathMapInto(out.s, pm)
		tr.end(sp)
		sp = tr.begin("core.estimate", e)
		r.plans[i].EstimateStallsInto(out.s, r.k, bd)
		tr.end(sp)
		sp = tr.begin("core.analyze", e)
		r.plans[i].AnalyzeQueuesInto(out.s, r.k, qr)
		tr.end(sp)
		sp = tr.begin("tsdb.record", e)
		err := r.mat.RecordPathMap(l, out.s, pm)
		if err == nil {
			err = r.mat.RecordStalls(l, out.s, bd)
		}
		if err == nil {
			err = r.mat.RecordQueues(l, out.s, qr)
		}
		tr.end(sp)
		if err != nil {
			return out, fmt.Errorf("epoch %d, %s: %w", e, l, err)
		}
		out.qrs = append(out.qrs, qr)
		out.bds = append(out.bds, bd)
	}
	return out, nil
}

// mixPass is one build, warm-up and measured phase of profile-mix.
type mixPass struct {
	setup, meas phase
	setupS      float64 // median scaled set-up time
	rig         *mixRig
	epochRaw    []time.Duration // host time of each measured epoch
	cycles      float64
	ops         uint64
	md          model
	fid         fidelity
	dig         *digest
	inline      uint64
	dispatched  uint64
	pending     []float64
	windows     sim.WindowStats
	flightRecs  uint64
	promoted    uint64
	windowsSeen int // stable CXL-traffic windows in the locality report
	heapMB      float64
	rt0, rt1    rtMark
	measure     []*core.Plan // per-app plans for the measured queues
	active      *core.Plan   // all four cores, for the modelled statistics
}

// setupMix builds the rig on the given lanes and runs the warm-up epochs,
// charging both to setup.
func setupMix(o options, lanes int, setup *phase, tr *tracer) (*mixRig, error) {
	var (
		r   *mixRig
		err error
	)
	setup.tick()
	setup.timed(func() {
		sp := tr.begin("sim.build", -1)
		r, err = buildMix(o.seed, lanes, tr)
		tr.end(sp)
	})
	if err != nil {
		return nil, err
	}
	r.tr = nil // warm-up epochs are timed as one span each, not per call
	for e := 0; e < mixWarmEpochs; e++ {
		setup.tick()
		setup.timed(func() {
			sp := tr.begin("sim.warm", -1)
			err = guard(func() error { _, err := r.step(-1 - e); return err })
			tr.end(sp)
		})
		if err != nil {
			return nil, fmt.Errorf("profile-mix warm-up: %w", err)
		}
	}
	r.tr = tr
	return r, nil
}

// runMixPass sets the rig up setups times (keeping the last; setupS is
// the median), then measures epochs and the locality report.
func runMixPass(o options, lanes, epochs, setups int, ref *refKernel, tr *tracer, res *result) (*mixPass, error) {
	p := &mixPass{meas: phase{ref: ref}, dig: newDigest()}
	var secs []float64
	for i := 0; i < setups; i++ {
		if p.rig != nil {
			// Start each set-up from the same footing: the previous rig's
			// memory collected and returned to the OS.
			p.rig = nil
			debug.FreeOSMemory()
		}
		p.setup = phase{ref: ref}
		var err error
		if p.rig, err = setupMix(o, lanes, &p.setup, tr); err != nil {
			return nil, err
		}
		secs = append(secs, p.setup.scaledS())
	}
	p.setupS = median(secs)
	r := p.rig

	m := r.m
	c0, in0, ev0, ws0, ops0 := m.Now(), m.InlineSteps(), m.DispatchedEvents(), m.WindowStats(), r.ops()
	fr0, pr0 := r.fl.RecordsTotal(), r.fl.Promoted()
	p.rt0 = markRuntime()
	for e := 0; e < epochs; e++ {
		p.meas.tick()
		t0 := time.Now()
		p.meas.timed(func() {
			sp := tr.begin("epoch", e)
			p.epoch(e, res)
			tr.end(sp)
		})
		p.epochRaw = append(p.epochRaw, time.Since(t0))
	}
	p.meas.timed(func() {
		sp := tr.begin("tsdb.locality", epochs)
		for _, l := range r.labels {
			p.windowsSeen += len(r.materializer().LocalityWindows(l, core.LvlCXL, 0.4))
		}
		tr.end(sp)
	})
	p.rt1 = markRuntime()
	p.cycles = float64(m.Now() - c0)
	p.ops = r.ops() - ops0
	p.inline = m.InlineSteps() - in0
	p.dispatched = m.DispatchedEvents() - ev0
	p.windows = windowDelta(ws0, m.WindowStats())
	p.flightRecs = r.fl.RecordsTotal() - fr0
	p.promoted = r.fl.Promoted() - pr0
	p.heapMB = heapLiveMB()
	runtime.KeepAlive(r)
	return p, nil
}

// epoch runs and checks one measured epoch.  Each app-epoch is one
// operation: a failure of the whole epoch fails all four.
func (p *mixPass) epoch(e int, res *result) {
	r := p.rig
	appErr := make([]error, len(r.labels))
	err := guard(func() error {
		out, err := r.step(e)
		if err != nil {
			return err
		}
		s := out.s
		if s.Cycles() != mixEpoch {
			return fmt.Errorf("epoch %d covers %.0f cycles, want %d", e, s.Cycles(), mixEpoch)
		}
		if why := conservation(s, r.cfg); why != "" {
			return fmt.Errorf("epoch %d: %s", e, why)
		}
		if p.measure == nil {
			for i := range r.labels {
				p.measure = append(p.measure, core.NewPlan(s.Index(), []int{i}, 0))
			}
			p.active = core.NewPlan(s.Index(), []int{0, 1, 2, 3}, 0)
		}
		meas := make([][core.CompCount]float64, len(r.labels))
		ok := true
		for i, l := range r.labels {
			if !finiteReport(out.qrs[i], out.bds[i]) {
				appErr[i] = fmt.Errorf("epoch %d, %s: NaN or Inf estimate", e, l)
				ok = false
			}
			p.measure[i].MeasuredQueuesInto(s, &meas[i])
		}
		if ok {
			p.fid.add(out.qrs, meas)
		}
		p.md.add(s, p.active)
		p.dig.add(s)
		p.pending = append(p.pending, float64(r.m.PendingEvents()))
		return nil
	})
	for i := range r.labels {
		if err != nil {
			res.op(err)
		} else {
			res.op(appErr[i])
		}
	}
}

// runProfileMix runs the workload.  Untraced, it reports the end-to-end
// metrics.  Traced, it repeats the untraced pass, runs a traced pass over
// the public calls, and re-runs a quarter of the epochs at the CLI's
// default auto lanes, checking that all three simulate identically.
func runProfileMix(o options) (*result, error) {
	res := newResult()
	ref := newRefKernel()
	epochs := o.seconds * mixEpochsPerS
	a, err := runMixPass(o, mixSweepLanes, epochs, mixSetups, ref, nil, res)
	if err != nil {
		return nil, err
	}
	res.lines = append(res.lines, "profile-mix pmu "+a.dig.hex(),
		fmt.Sprintf("profile-mix stable CXL-traffic windows %d", a.windowsSeen))
	res.e2e["setup_s"] = a.setupS
	res.e2e["cpu_s"] = a.meas.scaledS()
	res.e2e["heap_live_mb"] = a.heapMB
	if !o.trace {
		return res, nil
	}

	runtime.GC()
	tr := newTracer()
	b, err := runMixPass(o, mixSweepLanes, epochs, 1, ref, tr, res)
	if err != nil {
		return nil, err
	}
	if a.dig.hex() != b.dig.hex() {
		res.fail(fmt.Errorf("traced pass PMU digest %s != untraced %s", b.dig.hex(), a.dig.hex()))
	}
	runtime.GC()
	k := max(1, epochs/mixAutoDivisor)
	c, err := runMixPass(o, mixAutoLanes, k, 1, ref, nil, res)
	if err != nil {
		return nil, err
	}
	if want := a.dig.prefixHex(k); c.dig.hex() != want {
		res.fail(fmt.Errorf("auto-lanes PMU digest %s != sweep %s over %d epochs", c.dig.hex(), want, k))
	}
	res.lines = append(res.lines, fmt.Sprintf("profile-mix pmu (first %d epochs, sweep and auto lanes) %s", k, c.dig.hex()))

	l := res.layer
	hostLayer(l, &a.setup, &a.meas, a.cycles)
	runtimeLayer(a.rt0, a.rt1, l)
	var sweepRaw time.Duration
	for _, d := range a.epochRaw[:k] {
		sweepRaw += d
	}
	var autoRaw time.Duration
	for _, d := range c.epochRaw {
		autoRaw += d
	}
	// Wall time: auto lanes run on several threads, and what they should
	// win is the wait.
	l["sim.auto_lanes_slowdown_x"] = ratio(c.meas.scale(autoRaw), a.meas.scale(sweepRaw))
	windowLayer(l, c.windows, c.cycles)

	self := selfTimes(tr.spans)
	kc := b.cycles / 1e3
	appEpochs := float64(epochs * len(mixApps))
	l["sim.run_ns_per_kcycle"] = ratio(float64(self["sim.run"]), kc)
	l["sim.run_ns_per_op"] = ratio(float64(self["sim.run"]), float64(b.ops))
	l["sim.inline_steps_per_kcycle"] = ratio(float64(b.inline), kc)
	l["sim.dispatched_events_per_kcycle"] = ratio(float64(b.dispatched), kc)
	l["sim.pending_events"] = mean(b.pending)
	l["sim.build_ms"] = float64(self["sim.build"]) / 1e6
	l["sim.warm_ns_per_kcycle"] = ratio(float64(self["sim.warm"]), mixWarmEpochs*mixEpoch/1e3)
	l["obs.flight_records_per_kcycle"] = ratio(float64(b.flightRecs), kc)
	l["obs.flight_promoted"] = float64(b.promoted)
	for _, name := range []string{"core.capture", "core.pathmap", "core.estimate", "core.analyze", "tsdb.record"} {
		l[name+"_us"] = ratio(float64(self[name])/1e3, appEpochs)
	}
	hits, misses := b.rig.cap.PoolStats()
	l["core.snapshot_pool_hit_pct"] = 100 * ratio(float64(hits), float64(hits+misses))
	l["tsdb.locality_ms"] = float64(self["tsdb.locality"]) / 1e6
	b.fid.report(l)
	b.md.report(b.rig.cfg.GHz, l)
	traceLayer(l, tr, a.meas.scaledS(), b.meas.scaledS())
	return res, writeSpans(o, tr, "profile-mix", res)
}
