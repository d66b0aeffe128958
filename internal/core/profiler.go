package core

import (
	"errors"
	"fmt"

	"pathfinder/internal/obs"
	"pathfinder/internal/pmu"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// AppRun binds one application (or one thread of one) to a core — the
// pinned-core running environment of the profiling task specification
// (Figure 5-a).
type AppRun struct {
	Label string
	Core  int
	Gen   workload.Generator
}

// Mode selects how the profiler reports (Figure 5-a's profiler spec).
type Mode uint8

// Profiling modes.
const (
	ModeAggregated Mode = iota // analyze each epoch, keep all epoch results
	ModeContinuous             // also stream records into the materializer
)

// Spec is the profiling task specification: applications with their
// pinned cores, the machine, the snapshot granularity, and the run length.
type Spec struct {
	Machine     *sim.Machine
	Apps        []AppRun
	EpochCycles sim.Cycles // scheduling-epoch (snapshot) length
	Epochs      int
	CXLDevice   int
	Mode        Mode

	// Metrics, when non-nil, receives the epoch loop's observability
	// series (pf_profiler_epochs_total, pf_engine_inline_steps,
	// pf_snapshot_pool_*, pf_cxl_*).  All publishing happens at epoch-sync
	// boundaries from the profiler's own goroutine, so a concurrent scrape
	// only ever reads atomics.
	Metrics *obs.Registry

	// Flight, when non-nil, is stamped with the running epoch ordinal
	// (1-based) before each epoch, so promoted tail records carry the
	// profiler context they happened under.
	Flight *obs.Flight
}

// EpochResult bundles one epoch's snapshot with the per-application
// analyses produced from it.
type EpochResult struct {
	Snapshot *Snapshot
	PathMaps map[string]*PathMap
	Stalls   map[string]*StallBreakdown
	Queues   map[string]*QueueReport

	// Truncated is always false and Note always empty: every epoch runs
	// its full EpochCycles.  They stay only because perfbench's
	// profile-mix still reads them.
	Truncated bool
	Note      string
}

// Profiler drives snapshot-based path-driven profiling: run an epoch, snap
// all PMUs, classify transactions by path, and analyze interleaving — the
// workflow of Figure 5-c.
type Profiler struct {
	spec   Spec
	cap    *Capturer
	mat    *Materializer
	consts Consts
	cores  map[string][]int
	gens   map[string]workload.Generator
	graph  *Graph

	// plans holds one precompiled read plan per application, built once
	// against the capturer's bank layout (and rebuilt on Migrate) so the
	// per-epoch analyses are flat arena walks with no per-call setup.
	plans map[string]*Plan

	met *profMetrics // nil when Spec.Metrics is nil

	epoch uint64 // epochs started, 1-based; stamped into the flight recorder
}

// profMetrics holds the epoch loop's registry handles.  Counters are
// advanced by snapshot deltas, gauges by the latest value — both from the
// single-owner Step path.
type profMetrics struct {
	epochs      *obs.Counter
	inlineSteps *obs.Counter
	poolHits    *obs.Counter
	poolMisses  *obs.Counter
	linkRetries *obs.Counter
	linkCRC     *obs.Counter
	replayBytes *obs.Counter
	viral       *obs.Counter
	errComps    *obs.Counter
	fastFails   *obs.Counter
	isolated    *obs.Gauge

	lastHits, lastMisses, lastInline uint64
}

func newProfMetrics(reg *obs.Registry) *profMetrics {
	return &profMetrics{
		epochs:      reg.Counter("pf_profiler_epochs_total", "scheduling epochs run"),
		inlineSteps: reg.Counter("pf_engine_inline_steps", "workload ops executed inline by the sequential sweep"),
		poolHits:    reg.Counter("pf_snapshot_pool_hits_total", "captures served from the snapshot pool"),
		poolMisses:  reg.Counter("pf_snapshot_pool_misses_total", "captures that allocated a snapshot"),
		linkRetries: reg.Counter("pf_cxl_link_retries_total", "LRSM link retries"),
		linkCRC:     reg.Counter("pf_cxl_link_crc_errors_total", "link CRC errors detected"),
		replayBytes: reg.Counter("pf_cxl_link_replay_bytes_total", "wire bytes retransmitted by LRSM replay"),
		viral:       reg.Counter("pf_cxl_viral_entries_total", "device entries into viral containment"),
		errComps:    reg.Counter("pf_cxl_error_completions_total", "requests completed with error (viral poison + removal)"),
		fastFails:   reg.Counter("pf_cxl_fast_fails_total", "accesses fast-failed while the device was isolated"),
		isolated:    reg.Gauge("pf_cxl_isolated_devices", "CXL devices currently isolated after surprise removal"),
	}
}

// NewProfiler validates the spec and prepares a profiler.  Workloads are
// attached to their cores immediately; the machine must not be running
// other work on those cores.
func NewProfiler(spec Spec) (*Profiler, error) {
	if spec.Machine == nil {
		return nil, errors.New("core: spec needs a machine")
	}
	if len(spec.Apps) == 0 {
		return nil, errors.New("core: spec needs at least one application")
	}
	if spec.EpochCycles == 0 {
		return nil, errors.New("core: epoch length must be positive")
	}
	if spec.Epochs <= 0 {
		return nil, errors.New("core: need at least one epoch")
	}
	used := make(map[int]string)
	cores := make(map[string][]int)
	for _, a := range spec.Apps {
		if a.Core < 0 || a.Core >= spec.Machine.Cores() {
			return nil, fmt.Errorf("core: app %q pinned to invalid core %d", a.Label, a.Core)
		}
		if prev, busy := used[a.Core]; busy {
			return nil, fmt.Errorf("core: core %d claimed by both %q and %q", a.Core, prev, a.Label)
		}
		used[a.Core] = a.Label
		cores[a.Label] = append(cores[a.Label], a.Core)
	}
	cfg := spec.Machine.Config()
	p := &Profiler{
		spec:   spec,
		mat:    NewMaterializer(),
		consts: ConstsFor(cfg),
		cores:  cores,
		gens:   make(map[string]workload.Generator, len(spec.Apps)),
		graph:  NewGraph(cfg.Cores, cfg.LLCSlices, cfg.DRAMChannels, cfg.CXLDevices),
	}
	for _, a := range spec.Apps {
		spec.Machine.Attach(a.Core, a.Gen)
		p.gens[a.Label] = a.Gen
	}
	p.cap = NewCapturer(spec.Machine)
	p.plans = make(map[string]*Plan, len(cores))
	for label, cs := range cores {
		p.plans[label] = NewPlan(p.cap.Index(), cs, spec.CXLDevice)
	}
	if spec.Metrics != nil {
		p.met = newProfMetrics(spec.Metrics)
	}
	return p, nil
}

// Graph returns the Clos system model of the profiled machine (§4.2).
func (p *Profiler) Graph() *Graph { return p.graph }

// Migrate moves an application's thread to another core, modeling the
// location-sensitivity of mFlows (§4.2): the old flows end and new ones
// begin at the next snapshot.  The target core must be free.
func (p *Profiler) Migrate(label string, to int) error {
	cores, ok := p.cores[label]
	if !ok || len(cores) != 1 {
		return fmt.Errorf("core: cannot migrate %q (unknown or multi-threaded)", label)
	}
	if to < 0 || to >= p.spec.Machine.Cores() {
		return fmt.Errorf("core: migration target core %d out of range", to)
	}
	for other, cs := range p.cores {
		for _, c := range cs {
			if c == to && other != label {
				return fmt.Errorf("core: core %d is running %q", to, other)
			}
		}
	}
	from := cores[0]
	if from == to {
		return nil
	}
	p.spec.Machine.Detach(from)
	p.spec.Machine.Attach(to, p.gens[label])
	p.cores[label] = []int{to}
	p.plans[label] = NewPlan(p.cap.Index(), p.cores[label], p.spec.CXLDevice)
	return nil
}

// Consts returns the white-box constants in use.
func (p *Profiler) Consts() Consts { return p.consts }

// Materializer returns the cross-snapshot analysis store.
func (p *Profiler) Materializer() *Materializer { return p.mat }

// AppCores returns the cores running the labeled application.
func (p *Profiler) AppCores(label string) []int { return p.cores[label] }

// publish pushes one epoch's observability series into the registry.  It
// runs on the profiler's goroutine at an epoch-sync boundary; scrapers see
// only the atomic handles.
func (p *Profiler) publish(snap *Snapshot) {
	mt := p.met
	if mt == nil {
		return
	}
	mt.epochs.Inc()
	in := p.spec.Machine.InlineSteps()
	mt.inlineSteps.Add(in - mt.lastInline)
	mt.lastInline = in
	hits, misses := p.cap.PoolStats()
	mt.poolHits.Add(hits - mt.lastHits)
	mt.poolMisses.Add(misses - mt.lastMisses)
	mt.lastHits, mt.lastMisses = hits, misses
	if dev := p.spec.CXLDevice; dev >= 0 && dev < snap.NumCXL() {
		mt.linkRetries.Add(uint64(snap.CXL(dev, pmu.CXLLinkRetries)))
		mt.linkCRC.Add(uint64(snap.CXL(dev, pmu.CXLLinkCRCErrors)))
		mt.replayBytes.Add(uint64(snap.CXL(dev, pmu.CXLLinkReplayBytes)))
		mt.viral.Add(uint64(snap.CXL(dev, pmu.CXLDevViralEntries)))
		mt.errComps.Add(uint64(snap.CXL(dev, pmu.CXLDevErrCompletions) +
			snap.M2P(dev, pmu.M2PErrCompletions)))
		mt.fastFails.Add(uint64(snap.M2P(dev, pmu.M2PFastFails)))
	}
	iso := 0
	for dev := 0; dev < snap.NumCXL(); dev++ {
		if p.spec.Machine.DeviceIsolated(dev) {
			iso++
		}
	}
	mt.isolated.Set(float64(iso))
}

// Step runs one scheduling epoch and returns its analyzed result.
func (p *Profiler) Step() (*EpochResult, error) {
	p.epoch++
	if p.spec.Flight != nil {
		p.spec.Flight.SetEpoch(p.epoch)
	}
	p.spec.Machine.Run(p.spec.EpochCycles)
	snap := p.cap.Capture()
	p.publish(snap)
	res := &EpochResult{
		Snapshot: snap,
		PathMaps: make(map[string]*PathMap, len(p.cores)),
		Stalls:   make(map[string]*StallBreakdown, len(p.cores)),
		Queues:   make(map[string]*QueueReport, len(p.cores)),
	}
	for label, plan := range p.plans {
		pm := &PathMap{}
		bd := &StallBreakdown{}
		qr := &QueueReport{}
		plan.BuildPathMapInto(snap, pm)
		plan.EstimateStallsInto(snap, p.consts, bd)
		plan.AnalyzeQueuesInto(snap, p.consts, qr)
		res.PathMaps[label] = pm
		res.Stalls[label] = bd
		res.Queues[label] = qr
		if err := p.mat.RecordPathMap(label, snap, pm); err != nil {
			return nil, err
		}
		if err := p.mat.RecordStalls(label, snap, res.Stalls[label]); err != nil {
			return nil, err
		}
		if err := p.mat.RecordQueues(label, snap, res.Queues[label]); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Run executes the configured number of epochs, returning every epoch's
// result.
func (p *Profiler) Run() ([]*EpochResult, error) {
	out := make([]*EpochResult, 0, p.spec.Epochs)
	for i := 0; i < p.spec.Epochs; i++ {
		r, err := p.Step()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Flows derives the active mFlows of an application from a path map: one
// flow per memory destination with traffic, bounded by cores x targets
// (§4.2).
func (p *Profiler) Flows(label string, pm *PathMap) []MFlow {
	var flows []MFlow
	for _, c := range p.cores[label] {
		for _, tgt := range []Level{LvlLocalDRAM, LvlRemoteDRAM, LvlCXL} {
			if pm.LevelTotal(tgt) > 0 {
				f := MFlow{App: label, Core: c, Target: tgt}
				if tgt == LvlCXL {
					f.Device = p.spec.CXLDevice
				}
				flows = append(flows, f)
			}
		}
	}
	return flows
}
