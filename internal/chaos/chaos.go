// Package chaos soaks the simulator's fault machinery: it generates
// seeded random FaultPlans (including viral and surprise-removal
// episodes), runs them against a matrix of workloads under invariant
// monitors, and shrinks any violating plan to a minimal reproducer.  The
// goal is to find simulator bugs — conservation breaks, queue-bound
// violations, NaNs, nondeterminism, panics — before users do.
//
// Everything is deterministic: a case is fully described by (seed, plan
// string), the rig is rebuilt from scratch per run, and every failure
// report prints the seed and the canonical plan string so `pfbench
// -replay 'seed,plan'` reproduces the identical violation byte for byte.
package chaos

import (
	"bytes"
	"fmt"
	"math"

	"pathfinder/internal/core"
	"pathfinder/internal/cxl"
	"pathfinder/internal/mem"
	"pathfinder/internal/obs"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// Case is one chaos scenario: a fault plan driven by a workload for a
// fixed number of simulated cycles.  Workload is derived from Seed, so
// (Seed, Plan, Cycles) replays exactly.
type Case struct {
	Seed     uint64
	Plan     *cxl.FaultPlan
	Workload string
	Cycles   uint64
}

// DefaultCycles is the per-case simulated-run length: long enough to
// cross episode windows and removal cycles, short enough to soak hundreds
// of cases in seconds.
const DefaultCycles = 1_500_000

// Violation is one tripped invariant.
type Violation struct {
	Invariant string
	Detail    string
}

// Result is the outcome of running one case.
type Result struct {
	Violations []Violation
	Digest     core.Digest

	// Bundle is the flight-recorder postmortem (obs.Bundle JSON) dumped
	// automatically when the case tripped an invariant; nil on a clean run.
	// Its aux section carries the case's AnalyzeQueues estimates so the
	// promoted tail spans can be cross-checked offline.
	Bundle []byte
}

// Violates reports whether the result tripped the named invariant.
func (r *Result) Violates(name string) bool {
	for _, v := range r.Violations {
		if v.Invariant == name {
			return true
		}
	}
	return false
}

// mix64 is the splitmix64 finalizer (the same mixer the fault plans use),
// so case generation is a pure function of the seed.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rng is a counter-mode deterministic generator over mix64.
type rng struct{ seed, n uint64 }

func (r *rng) next() uint64 { r.n++; return mix64(r.seed ^ r.n*0x9e3779b97f4a7c15) }
func (r *rng) f64() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) below(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}
func (r *rng) chance(p float64) bool { return r.f64() < p }

// chaosConfig is the fixed small rig every case runs on: 2 cores, a
// trimmed LLC, one CXL device.
func chaosConfig(plan *cxl.FaultPlan) sim.Config {
	cfg := sim.SPR()
	cfg.Cores = 2
	cfg.LLCSlices = 4
	cfg.LLCSize = 2 << 20
	cfg.Faults = plan
	return cfg
}

// chaosSpace builds the case address space: one local node and one CXL
// node with a region allocated on each.  Construction is deterministic,
// so region bounds are identical on every call.
func chaosSpace() (*mem.AddressSpace, mem.Region, mem.Region, error) {
	as := mem.NewAddressSpace(12, []mem.Node{
		{ID: 0, Kind: mem.LocalDRAM, Capacity: 1 << 30},
		{ID: 1, Kind: mem.CXLDRAM, Device: 0, Capacity: 1 << 30},
	})
	local, err := as.Alloc(4<<20, mem.Fixed(0))
	if err != nil {
		return nil, mem.Region{}, mem.Region{}, err
	}
	cxlRegion, err := as.Alloc(4<<20, mem.Fixed(1))
	if err != nil {
		return nil, mem.Region{}, mem.Region{}, err
	}
	return as, local, cxlRegion, nil
}

// workloadNames is the workload matrix cases cycle through.  The
// "multicore" row drives two cores at once, so fault plans soak two cores
// contending in the uncore, not just one core's stream.
var workloadNames = [...]string{"stream", "chase", "zipf", "multicore"}

// workloadFor derives the case's workload from its seed.
func workloadFor(seed uint64) string {
	return workloadNames[mix64(seed^0x3c6ef372fe94f82a)%uint64(len(workloadNames))]
}

// buildWorkloads constructs the named case's per-core generators.  Single
// workload names drive core 0 over the CXL region; the "multicore" row
// returns one generator per core — a CXL stream racing a mostly-local
// Zipf.
func buildWorkloads(name string, local, cxlr workload.Region, seed uint64) ([]workload.Generator, error) {
	switch name {
	case "stream":
		return []workload.Generator{workload.NewStream(cxlr, 0, 0.2, seed)}, nil
	case "chase":
		return []workload.Generator{workload.NewPointerChase(cxlr, 0, seed)}, nil
	case "zipf":
		return []workload.Generator{workload.NewZipf(cxlr, 0.9, 0.8, 4, 0, seed)}, nil
	case "multicore":
		return []workload.Generator{
			workload.NewStream(cxlr, 1, 0.2, seed),
			workload.NewZipf(local, 0.9, 0.3, 4, 1, seed+1),
		}, nil
	}
	return nil, fmt.Errorf("chaos: unknown workload %q", name)
}

// GenCase derives a full chaos case from a seed: a random fault plan
// exercising every knob class (CRC noise, bursts, timeouts, throttles,
// poison, viral, surprise removal) with probabilities tuned so most cases
// combine at least two failure modes.
func GenCase(seed uint64, cycles uint64) (Case, error) {
	if cycles == 0 {
		cycles = DefaultCycles
	}
	_, _, cxlRegion, err := chaosSpace()
	if err != nil {
		return Case{}, err
	}
	r := &rng{seed: mix64(seed ^ 0xc4a05)}
	p := &cxl.FaultPlan{Seed: seed}

	if r.chance(0.5) {
		p.CRCRate[cxl.DirM2S] = 0.05 * r.f64() * r.f64()
	}
	if r.chance(0.5) {
		p.CRCRate[cxl.DirS2M] = 0.05 * r.f64() * r.f64()
	}
	for i := uint64(0); i < r.below(3); i++ {
		b := cxl.Burst{
			Dir:   cxl.Direction(r.below(2)),
			Start: r.below(cycles),
			Len:   1_000 + r.below(cycles/4),
			Rate:  0.8 * r.f64(),
		}
		if r.chance(0.5) {
			b.Period = b.Len * (2 + r.below(6))
		}
		p.Bursts = append(p.Bursts, b)
	}
	episode := func() cxl.Episode {
		e := cxl.Episode{Start: r.below(cycles), Len: 1_000 + r.below(cycles/8)}
		if r.chance(0.5) {
			e.Period = e.Len * (2 + r.below(6))
		}
		return e
	}
	if r.chance(0.4) {
		p.Timeouts = append(p.Timeouts, episode())
		if r.chance(0.5) {
			p.TimeoutPenalty = 500 + r.below(8_000)
		}
	}
	if r.chance(0.4) {
		p.Throttles = append(p.Throttles, episode())
	}
	if r.chance(0.4) {
		off := r.below(cxlRegion.Size / 2)
		p.PoisonBase = cxlRegion.Base + off
		p.PoisonLen = 64 + r.below(cxlRegion.Size/4)
		if r.chance(0.5) {
			p.ViralThreshold = 1 + r.below(8)
			if r.chance(0.5) {
				p.ViralReset = 20_000 + r.below(200_000)
			}
		}
	}
	if r.chance(0.25) {
		p.RemoveAt = cycles/4 + r.below(cycles/2)
		if r.chance(0.5) {
			p.RemovePenalty = 2_000 + r.below(20_000)
		}
	}
	if err := p.Validate(); err != nil {
		return Case{}, fmt.Errorf("chaos: generated invalid plan for seed %d: %v", seed, err)
	}
	return Case{Seed: seed, Plan: p, Workload: workloadFor(seed), Cycles: cycles}, nil
}

// CaseFor assembles a replay case from a seed and a plan string (the pair
// every failure report prints).
func CaseFor(seed uint64, planStr string, cycles uint64) (Case, error) {
	if cycles == 0 {
		cycles = DefaultCycles
	}
	plan, err := cxl.ParseFaultPlan(planStr)
	if err != nil {
		return Case{}, err
	}
	return Case{Seed: seed, Plan: plan, Workload: workloadFor(seed), Cycles: cycles}, nil
}

// runChunks is how many slices a case run is split into; the charge hook
// is consulted between slices so supervised soaks can cut off runaways at
// a deterministic simulated cycle.
const runChunks = 8

// forkProbe threads the run-twice replay through a case run: the straight
// leg checkpoints the machine at its midpoint chunk boundary and records
// the suffix PMU digest from there to completion; the forked leg restores
// the image and replays the same suffix.  Byte-identical suffix digests
// prove both determinism and restore-equivalence on this exact case; skip
// records why no checkpoint could be taken (the caller then falls back to
// a full same-seed re-run).
type forkProbe struct {
	at       uint64 // simulated cycle the checkpoint was taken at
	cp       *sim.Checkpoint
	skip     error
	straight core.Digest
	forked   core.Digest
}

// Run executes one case: build the rig fresh, drive the workload through
// the fault plan, snapshot every PMU, evaluate the invariant monitors
// (plus any extras), and digest the counters.  A panic anywhere inside
// the simulator or analyzer becomes a "panic" violation rather than
// taking the process down.  charge, when non-nil, is called with the
// simulated cycles of each chunk and aborts the run when it errors.
func Run(c Case, extra []Invariant, charge func(uint64) error) (*Result, error) {
	return runCase(c, extra, charge, nil)
}

// runCase is Run plus the optional mid-run fork probe.
func runCase(c Case, extra []Invariant, charge func(uint64) error, fp *forkProbe) (res *Result, err error) {
	res = &Result{}
	defer func() {
		if r := recover(); r != nil {
			res.Violations = append(res.Violations,
				Violation{Invariant: "panic", Detail: fmt.Sprint(r)})
		}
	}()

	as, local, cxlRegion, err := chaosSpace()
	if err != nil {
		return res, err
	}
	gens, err := buildWorkloads(c.Workload,
		workload.Region{Base: local.Base, Size: local.Size},
		workload.Region{Base: cxlRegion.Base, Size: cxlRegion.Size}, c.Seed)
	if err != nil {
		return res, err
	}
	cfg := chaosConfig(c.Plan)
	m := sim.New(cfg, as)
	// Every case runs with the flight recorder attached and enabled: when
	// an invariant trips, the tail-latency evidence is already captured and
	// ships with the result as a postmortem bundle.
	fl := obs.NewFlight(cfg.Cores, flightRingCap, flightTailCap)
	fl.Enable()
	m.SetFlight(fl)
	for i, g := range gens {
		m.Attach(i, g)
	}
	// Baseline the capturer before the run: Capture() returns the delta
	// since construction, so building it afterwards would hand the
	// invariant monitors an all-zero snapshot with an empty cycle window —
	// every counter-based check would pass vacuously.
	cap := core.NewCapturer(m)

	chunk := c.Cycles / runChunks
	if chunk == 0 {
		chunk = c.Cycles
	}
	var suffixCap *core.Capturer
	var done uint64
	for done < c.Cycles {
		step := chunk
		if rest := c.Cycles - done; rest < step {
			step = rest
		}
		m.Run(sim.Cycles(step))
		done += step
		if charge != nil {
			if err := charge(step); err != nil {
				return res, err
			}
		}
		// Midpoint checkpoint for the run-twice replay: taken at a chunk
		// boundary with suffix cycles left to replay.  A machine that
		// cannot be checkpointed records why, and the caller falls back to
		// a full second run.
		if fp != nil && fp.cp == nil && fp.skip == nil && done >= c.Cycles/2 {
			if done == c.Cycles {
				fp.skip = fmt.Errorf("chaos: case too short to fork (%d cycles)", c.Cycles)
			} else if cp, cerr := m.Checkpoint(); cerr != nil {
				fp.skip = cerr
			} else {
				fp.at = done
				fp.cp = cp
				suffixCap = core.NewCapturer(m)
			}
		}
	}
	m.Sync()

	if suffixCap != nil {
		ssnap := suffixCap.Capture()
		fp.straight = core.EncodeDigest(ssnap)
		ssnap.Release()
		if err := runForkedSuffix(fp, c.Cycles, chunk, charge); err != nil {
			return res, err
		}
	}

	snap := cap.Capture()
	defer snap.Release()

	probe := newProbe(c, cfg, m, snap)
	for _, inv := range append(invariants(), extra...) {
		if detail := inv.Check(probe); detail != "" {
			res.Violations = append(res.Violations,
				Violation{Invariant: inv.Name, Detail: detail})
		}
	}
	res.Digest = core.EncodeDigest(snap)
	if len(res.Violations) > 0 {
		res.Bundle = violationBundle(c, fl, probe, snap.Cycles())
	}
	return res, nil
}

// runForkedSuffix replays the case suffix on a fork restored from the
// midpoint checkpoint, filling fp.forked with the suffix PMU digest.  The
// fork carries the straight leg's fault-plan state by construction; the
// flight recorder is deliberately left detached (it does not influence PMU
// counters).  Charging mirrors the straight leg's chunk
// cadence so supervised soaks account the replayed cycles.
func runForkedSuffix(fp *forkProbe, cycles, chunk uint64, charge func(uint64) error) error {
	m := fp.cp.Restore()
	cap := core.NewCapturer(m)
	for done := fp.at; done < cycles; {
		step := chunk
		if rest := cycles - done; rest < step {
			step = rest
		}
		m.Run(sim.Cycles(step))
		done += step
		if charge != nil {
			if err := charge(step); err != nil {
				return err
			}
		}
	}
	m.Sync()
	snap := cap.Capture()
	fp.forked = core.EncodeDigest(snap)
	snap.Release()
	return nil
}

// Flight-recorder sizing for chaos rigs: cases are short, so modest rings
// and a tail store deep enough to hold the whole pathology window.
const (
	flightRingCap = 1024
	flightTailCap = 256
)

// violationBundle assembles the postmortem for a tripped case.  The aux
// section carries the DRd-path AnalyzeQueues estimates and the run length,
// making the bundle self-sufficient for residency cross-checks.  Bundling
// is best-effort: a marshaling failure returns nil rather than masking the
// violation itself.
func violationBundle(c Case, fl *obs.Flight, probe *Probe, clocks float64) []byte {
	aux := map[string]any{
		"clocks": clocks,
		"queues": map[string]float64{
			"drd_flexbus_mc": probe.Queues.Q[core.PathDRd][core.CompFlexBusMC],
			"drd_cxl_dimm":   probe.Queues.Q[core.PathDRd][core.CompCXLDIMM],
		},
	}
	plan := ""
	if c.Plan != nil {
		plan = c.Plan.String()
	}
	var buf bytes.Buffer
	err := obs.DumpBundle(&buf, obs.BundleOpts{
		Trigger:   "chaos-violation",
		Flight:    fl,
		FaultPlan: plan,
		Aux:       aux,
	})
	if err != nil {
		return nil
	}
	return buf.Bytes()
}

// finite reports whether v is a usable number.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
