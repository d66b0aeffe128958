package main

import (
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// A shared cloud host flips between speeds 1.6-1.9x apart for seconds at a
// time, and CPU time slows with it: on a 2-vCPU Xeon VM raw host time of
// one thread spreads 16-46% from run to run.  Host time is therefore
// measured in CPU time, which leaves out steal, and scaled by a fixed
// reference kernel run in slices of about 2 ms between simulation chunks of
// a few tens of ms (or beside the work, on a sampler thread): a phase's CPU
// seconds times the nominal slice time over the slices' measured mean.  A
// slow spell stretches the simulation and the slices alike, and the ratio
// cancels it.
const (
	tableKeys   = 1 << 12
	tableSteps  = 4000
	sortLen     = 1024
	sliceRounds = 11 // table rounds per slice, sized to refNominal
	// refNominal is the slice time scaled figures are expressed in, about
	// one slice on an idle host.
	refNominal = 2 * time.Millisecond
)

// refKernel is the reference workload: Go map updates over a few thousand
// keys and a sort of random keys, general runtime code with data-dependent
// branches over a working set that fits in a core's own caches, like the
// simulator's hot loop.  It was chosen over kernels that stress memory: in
// six-run checks per workload on a 2-vCPU Xeon VM, scaling by it left a
// 1.5-4.3% spread of CPU time across runs, where a dependent random walk
// over 32 MiB left 5.6-10.3%, an 8-way cache model over 8 MiB of tags
// 3.9-5.5%, and raw CPU time 6.8-14.4%.
type refKernel struct {
	x     uint64
	table map[uint64]uint64
	keys  []int
}

func newRefKernel() *refKernel {
	return &refKernel{x: 1, table: make(map[uint64]uint64, tableKeys), keys: make([]int, sortLen)}
}

// next advances the kernel's LCG.
func (r *refKernel) next() uint64 {
	r.x = r.x*6364136223846793005 + 1442695040888963407
	return r.x
}

// slice runs one reference slice.
func (r *refKernel) slice() {
	for i := 0; i < sliceRounds; i++ {
		r.tablePart()
	}
}

func (r *refKernel) tablePart() {
	for i := 0; i < tableSteps; i++ {
		r.table[r.next()>>40%tableKeys] += uint64(i)
	}
	for i := range r.keys {
		r.keys[i] = int(r.next() >> 1)
	}
	sort.Ints(r.keys)
}

// phase accumulates one phase's host time, split into the work measured
// and the reference slices interleaved with it.  The work is timed twice:
// in wall time, and in the process's CPU time, which is what the scaled
// figures use.  On a shared VM host, steal (the hypervisor running another
// tenant on this vCPU) stretches wall time by seconds per run while the
// kernel leaves it out of every CPU clock; the slices are timed in CPU time
// too, so steal drops out of both sides of the ratio.
type phase struct {
	ref    *refKernel // nil: raw time only, no slices
	smp    *sampler   // running beside the work: its CPU time is not the work's
	raw    time.Duration
	cpu    time.Duration
	refDur time.Duration // the slices' CPU time
	slices []float64     // per-slice CPU seconds
}

// tick runs one reference slice, when the phase has a kernel.
func (p *phase) tick() {
	if p.ref == nil {
		return
	}
	d := p.ref.cpuSlice()
	p.refDur += d
	p.slices = append(p.slices, d.Seconds())
}

// cpuSlice runs one reference slice on the calling goroutine, pinned to
// its OS thread so the thread's CPU clock covers the whole slice, and
// returns the slice's CPU time.
func (r *refKernel) cpuSlice() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	r.slice()
	return threadCPU() - c0
}

// sampler runs reference slices on a locked OS thread of its own at a
// fixed interval while other goroutines keep the CPUs busy, timing each
// slice in thread CPU time: waiting for a CPU does not count, a slow CPU
// does.  It measures the host's speed across a phase whose work has no
// boundaries to interleave slices with.
type sampler struct {
	stop, done chan struct{}
	cpuNs      atomic.Int64 // CPU time of the slices finished so far
	slices     []float64
}

func startSampler(ref *refKernel, every time.Duration) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			d := ref.cpuSlice()
			s.cpuNs.Add(int64(d))
			s.slices = append(s.slices, d.Seconds())
		}
	}()
	return s
}

// cpu is the CPU time of the slices the sampler has finished; nil reads 0.
func (s *sampler) cpu() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.cpuNs.Load())
}

// finish stops the sampler and charges its slices to the phase.
func (s *sampler) finish(p *phase) {
	close(s.stop)
	<-s.done
	p.refDur += s.cpu()
	p.slices = append(p.slices, s.slices...)
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

// processCPU is the CPU time of all the process's threads: the goroutine
// doing the work, the garbage collector's workers, and any pool workers.
func processCPU() time.Duration { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// timed runs f and charges its wall and CPU time to the phase.  CPU time
// the phase's sampler spent on slices meanwhile is not charged; a slice
// still running when f returns is, a 2 ms error at most.
func (p *phase) timed(f func()) {
	s0, c0, t0 := p.smp.cpu(), processCPU(), time.Now()
	f()
	p.raw += time.Since(t0)
	p.cpu += processCPU() - c0 - (p.smp.cpu() - s0)
}

// rawS is the phase's unscaled wall seconds.
func (p *phase) rawS() float64 { return p.raw.Seconds() }

// cpuS is the phase's unscaled CPU seconds.
func (p *phase) cpuS() float64 { return p.cpu.Seconds() }

// scaledS is the phase's CPU seconds on the reference host.
func (p *phase) scaledS() float64 { return p.scale(p.cpu) }

// scale converts host seconds measured during the phase into reference-host
// seconds by the phase's slices.
func (p *phase) scale(d time.Duration) float64 {
	return scaleToRef(d.Seconds(), p.refDur.Seconds(), len(p.slices))
}

// slowdown is the measured mean slice time over the nominal one.
func (p *phase) slowdown() float64 {
	if len(p.slices) == 0 {
		return 1
	}
	return p.refDur.Seconds() / float64(len(p.slices)) / refNominal.Seconds()
}

// scaleToRef converts raw host seconds into reference-host seconds:
// raw × nominal ÷ measured mean slice time.  Without slices it returns the
// raw figure unchanged.
func scaleToRef(raw, refTotal float64, slices int) float64 {
	if slices == 0 || refTotal <= 0 {
		return raw
	}
	return raw * refNominal.Seconds() * float64(slices) / refTotal
}
