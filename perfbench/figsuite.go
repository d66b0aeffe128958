package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"pathfinder/internal/experiments"
	"pathfinder/internal/obs"
	"pathfinder/internal/report"
	"pathfinder/internal/sim"
)

// fig-suite runs six experiments at -quick back to back in one process at
// pfbench defaults: a runner pool of nproc workers, the auto lane budget,
// and the warm checkpoint cache on, as the README's sweep quickstart runs
// it.  It is what a user reproducing the paper waits for, and the only
// workload that exercises the runner pool, per-point construction of
// full-size SPR rigs, short multi-core runs, the CRC/LRSM retry path and
// checkpoint forks.  Its pool keeps every CPU busy through long experiment
// calls, so its host time is the CPU time of the whole process (pool
// workers and garbage collector), scaled by a sampler that runs reference
// slices on a thread of its own throughout, timed in thread CPU time.
const (
	figSecondsPerPass = 6                     // --seconds per pass of the six experiments
	figSetupBuilds    = 15                    // rig builds timed for setup_s
	figSampleEvery    = 50 * time.Millisecond // reference sampler interval
)

// figExp is one experiment: run it, render its result as pfbench prints
// it, and check its shape target.
type figExp struct {
	name string
	run  func(cfg sim.Config) (text string, err error)
}

var figExps = []figExp{
	{"fig78", func(cfg sim.Config) (string, error) {
		r := experiments.RunFig78(cfg, true)
		text := fmt.Sprint(r.Stall, "\n", r.Queues, "\n", r.CoreStallGrowth())
		return text, finiteSeries(r.Stall, r.Queues)
	}},
	{"fig910", func(cfg sim.Config) (string, error) {
		r := experiments.RunFig910(cfg, true)
		text := fmt.Sprint(r.Throughput, r.Stall, r.Latency, r.Queues, strings.Join(r.Culprits, "; "))
		if err := finiteSeries(r.Throughput, r.Stall, r.Latency, r.Queues); err != nil {
			return text, err
		}
		if d, g := r.ThroughputDrop(), r.FlexLatencyGrowth(); d <= 0 || g <= 1 {
			return text, fmt.Errorf("fig910: YCSB throughput drop %.3f and FlexBus+MC latency growth %.3fx, want a drop and growth", d, g)
		}
		return text, nil
	}},
	{"fig11", func(cfg sim.Config) (string, error) {
		var b strings.Builder
		for _, r := range experiments.RunFig11(cfg, true) {
			b.WriteString(r.Table().String())
			if !(r.Pearson >= 0.99) {
				return b.String(), fmt.Errorf("fig11 %s: Pearson %.4f, want >= 0.99", r.Scenario, r.Pearson)
			}
		}
		return b.String(), nil
	}},
	{"fig12", func(cfg sim.Config) (string, error) {
		r := experiments.RunFig12(cfg, true)
		if len(r.Runs) == 0 {
			return "", fmt.Errorf("fig12: no scenarios")
		}
		return r.Table().String(), nil
	}},
	{"faults", func(cfg sim.Config) (string, error) {
		r := experiments.RunFaults(cfg, true)
		text := fmt.Sprint(r.Sweep, strings.Join(r.Culprits, "; "))
		if err := finiteSeries(r.Sweep); err != nil {
			return text, err
		}
		// The healthy link is media-bound; from crc 1e-3 up, retries move
		// the culprit to the link.
		for i, rate := range r.Rates {
			want := ""
			switch {
			case rate == 0:
				want = "CXL DIMM"
			case rate >= 1e-3:
				want = "FlexBus+MC"
			}
			if want != "" && r.Culprits[i] != want {
				return text, fmt.Errorf("faults: culprit at crc=%g is %s, want %s", rate, r.Culprits[i], want)
			}
		}
		return text, nil
	}},
	{"sweep", func(cfg sim.Config) (string, error) {
		forks := experiments.CheckpointCache().Forks
		r := experiments.RunWarmSweep(cfg, true)
		text := r.Table().String()
		if !finite(r.Bandwidth...) || !finite(r.AvgLat...) {
			return text, fmt.Errorf("sweep: non-finite result")
		}
		if experiments.CheckpointCache().Forks == forks {
			return text, fmt.Errorf("sweep: no checkpoint forks with the warm cache on")
		}
		return text, nil
	}},
}

// finiteSeries reports a NaN or Inf anywhere in the series.
func finiteSeries(ss ...*report.Series) error {
	for _, s := range ss {
		for _, y := range s.Y {
			if !finite(y...) {
				return fmt.Errorf("%s: non-finite value", s.Title)
			}
		}
	}
	return nil
}

// figOrder is the seed's permutation of the experiments: the run order is
// the only input of fig-suite the seed can vary, since each experiment
// fixes its own generator and fault-plan seeds.  sweep, last in figExps,
// stays last, where pfbench -exp all runs it: the warm checkpoint cache
// keeps the sweep's warmed state live after it returns, so an experiment
// run after it started from a 78 MiB live heap instead of under 1 MiB, and
// a run's peak RSS followed where the seed put sweep (medians of 199 and
// 235 MiB over three runs of two seeds).
func figOrder(seed uint64) []figExp {
	out := append([]figExp(nil), figExps...)
	x := seed
	for i := len(out) - 2; i > 0; i-- {
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		j := int(z % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// figPass is the measured phase of fig-suite: the experiments, passes
// times over, each pass on an emptied checkpoint cache.
type figPass struct {
	meas     phase
	passes   int
	dig      *digest
	busyNs   uint64
	forks    uint64
	imageMB  float64
	texts    []string  // the last pass's results, kept live for heap_live_mb
	peaks    []float64 // peak RSS of each pass, when it can be reset per pass
	heapMB   float64
	rt0, rt1 rtMark
}

func runFigPass(o options, ref *refKernel, tr *tracer, res *result) *figPass {
	cfg := sim.SPR()
	p := &figPass{passes: max(1, o.seconds/figSecondsPerPass), dig: newDigest()}
	order := figOrder(o.seed)
	busy0 := poolBusyNs()
	forks0 := experiments.CheckpointCache().Forks
	p.rt0 = markRuntime()
	smp := startSampler(ref, figSampleEvery)
	p.meas.smp = smp
	perPass := true
	for pass := 0; pass < p.passes; pass++ {
		experiments.ResetCheckpointCache()
		p.texts = p.texts[:0]
		debug.FreeOSMemory()
		perPass = perPass && resetPeakRSS()
		for i, e := range order {
			// Return the previous experiment's garbage to the OS first, as
			// a fresh pfbench process would start without it: the peak is
			// then the largest experiment's, not an accident of GC timing.
			debug.FreeOSMemory()
			p.meas.timed(func() {
				var text string
				sp := tr.begin("experiments."+e.name, pass*len(order)+i)
				err := guard(func() error {
					var err error
					text, err = e.run(cfg)
					return err
				})
				tr.end(sp)
				p.dig.addText(e.name + "\n" + text)
				p.texts = append(p.texts, text)
				res.op(err)
			})
		}
		p.peaks = append(p.peaks, peakRSSMB())
	}
	if !perPass {
		p.peaks = nil
	}
	smp.finish(&p.meas)
	p.rt1 = markRuntime()
	p.busyNs = poolBusyNs() - busy0
	cc := experiments.CheckpointCache()
	p.forks = cc.Forks - forks0
	p.imageMB = float64(cc.Bytes) / mib
	p.heapMB = heapLiveMB()
	runtime.KeepAlive(p.texts)
	return p
}

// poolBusyNs sums the runner pool's per-worker busy time.
func poolBusyNs() uint64 {
	var t uint64
	for w := 0; w < runtime.NumCPU(); w++ {
		t += obs.Default.Counter("pf_runner_busy_ns{worker=\""+strconv.Itoa(w)+"\"}",
			"wall-clock nanoseconds each pool worker spent running experiments").Value()
	}
	return t
}

// figSetup times full-size SPR rig builds, the construction every
// experiment point repeats; fig-suite has no set-up of its own.  Each build
// follows a reference slice and starts with the previous rig's memory
// returned to the OS, so every build faults its pages in, as the first
// point of a fresh pfbench process does; otherwise builds alternate
// between fresh and recycled memory, about 2x apart.  It returns the
// median build's CPU seconds, raw and scaled by the slices' mean.
func figSetup(ref *refKernel) (scaled, raw float64) {
	p := phase{ref: ref}
	var secs []float64
	for i := 0; i < figSetupBuilds; i++ {
		debug.FreeOSMemory()
		p.tick()
		c0 := p.cpu
		p.timed(func() {
			rig := experiments.NewRig(experiments.RigOptions{})
			runtime.KeepAlive(rig)
		})
		secs = append(secs, (p.cpu - c0).Seconds())
	}
	raw = median(secs)
	return scaleToRef(raw, p.refDur.Seconds(), len(p.slices)), raw
}

// runFigSuite runs the workload.  Untraced, it reports the end-to-end
// metrics; traced, it repeats the untraced suite, then runs it again with
// a span around every experiment call.
func runFigSuite(o options) (*result, error) {
	res := newResult()
	experiments.SetParallelism(runtime.NumCPU())
	experiments.SetLanes(0)
	experiments.SetWarmCache(true)
	ref := newRefKernel()
	var setupRaw float64
	res.e2e["setup_s"], setupRaw = figSetup(ref)
	runtime.GC()
	a := runFigPass(o, ref, nil, res)
	res.lines = append(res.lines, "fig-suite results "+a.dig.hex())
	res.e2e["cpu_s"] = a.meas.scaledS() / float64(a.passes)
	res.e2e["heap_live_mb"] = a.heapMB
	// The passes' peaks differ by when the two workers' garbage happened
	// to be collected; their median is the steady footprint.
	if a.peaks != nil {
		res.e2e["peak_rss_mb"] = median(a.peaks)
	}
	if !o.trace {
		return res, nil
	}

	tr := newTracer()
	b := runFigPass(o, ref, tr, res)
	if a.dig.hex() != b.dig.hex() {
		res.fail(fmt.Errorf("traced pass results digest %s != untraced %s", b.dig.hex(), a.dig.hex()))
	}
	l := res.layer
	hostLayer(l, &phase{}, &a.meas, 0)
	l["host.raw_setup_s"] = setupRaw
	l["host.raw_wall_s"] /= float64(a.passes)
	l["host.raw_cpu_s"] /= float64(a.passes)
	runtimeLayer(a.rt0, a.rt1, l)
	self := selfTimes(tr.spans)
	for _, e := range figExps {
		l["experiments."+e.name+"_s"] = self["experiments."+e.name].Seconds() / float64(b.passes)
	}
	workers := float64(experiments.Parallelism())
	l["experiments.pool_busy_pct"] = 100 * ratio(float64(a.busyNs)/1e9, workers*a.meas.rawS())
	l["experiments.checkpoint_forks"] = float64(a.forks)
	l["experiments.checkpoint_image_mb"] = a.imageMB
	traceLayer(l, tr, a.meas.scaledS(), b.meas.scaledS())
	return res, writeSpans(o, tr, "fig-suite", res)
}
