package sim

import (
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"pathfinder/internal/mem"
	"pathfinder/internal/workload"
)

// Window-parallel core stepping (DESIGN.md §12).
//
// The windowed scheduler takes core steps out of the event engine: each
// core's next step is mirrored on the core as (stepAt, stepSeq), where the
// seq is allocated from the engine's own counter, so pending steps remain
// exactly comparable against engine events.  The run loop repeatedly picks
// the globally earliest item by (when, seq) — reproducing the engine's
// dispatch order without paying a wheel push, bitmap scan, and dispatch per
// op — and, when several cores have steps pending before the next engine
// event, opens a parallel window.
//
// Inside a window [start, H), H = min(next engine event, RunUntil bound+1,
// start+windowSpanCap), every lane executes its cores' ops as long as they
// classify core-private: L1/LFB hit paths, M/E store commits, droppable
// software prefetches, pure think time.  Private ops of different cores
// touch disjoint state, so any wall-clock interleaving equals the
// sequential result; the one hazard is an op classified shared (it will
// mutate uncore state and peer caches at the barrier), which is why every
// commit obeys the frontier rule below.  PMU work a lane defers lands in
// its per-core observer buffer and merges into the §11 observer lane at the
// barrier; per-core bank counters are written directly (each bank has one
// writer, and counter sums commute).
//
// Frontier rule: a lane may commit its op at cycle u with commit key k only
// if every other participating core j satisfies pos_j > (u, k), where pos_j
// packs j's next-op cycle and key.  Keys are drawn from one shared counter
// at commit time; because commits at earlier cycles always complete
// wall-clock-first under this rule, key order equals the sequential engine's
// seq order, so same-cycle ties resolve exactly as the engine would have
// resolved them.  A lane that cannot ever commit this window — its op
// classified shared, or an earlier frozen frontier blocks it — parks with
// its op stashed (Core.opPending); the window closes when every lane has
// parked, the barrier merges observer buffers and re-sequences the pending
// steps, and the blocking shared op executes sequentially.
const (
	// windowSpanCap bounds H-start so the packed 32-bit relative cycle and
	// the per-window commit-key counter cannot overflow (≥1 cycle per op).
	windowSpanCap = 1 << 22

	// laneSpinBudget is how long a worker spins on the window generation
	// before blocking on its wake channel.
	laneSpinBudget = 128

	// laneIdleTimeout is how long a blocked worker waits for a window
	// before exiting; the scheduler respawns workers on demand, so an idle
	// machine holds no goroutines.
	laneIdleTimeout = 50 * time.Millisecond
)

// WindowStats aggregates the windowed scheduler's introspection counters:
// the pf_engine_window_cycles / pf_engine_barrier_merges /
// pf_engine_lane_busy_ns metric family.
type WindowStats struct {
	// Windows is the number of parallel windows opened; BarrierMerges the
	// number of barrier merge passes completed (one per window).
	Windows       uint64
	BarrierMerges uint64
	// WindowCycles is a log2 histogram of window spans: bucket i counts
	// windows whose consumed span was in [2^i, 2^(i+1)).
	WindowCycles [24]uint64
	// LaneBusyNs is the cumulative wall-clock nanoseconds each lane spent
	// executing window work.
	LaneBusyNs []uint64
}

// WindowStats returns a copy of the machine's window scheduler counters.
func (m *Machine) WindowStats() WindowStats {
	ws := m.wstat
	if m.sched != nil {
		ws.LaneBusyNs = make([]uint64, len(m.sched.busyNs))
		for i := range m.sched.busyNs {
			ws.LaneBusyNs[i] = uint64(m.sched.busyNs[i].v.Load())
		}
	}
	return ws
}

// observeWindow records one closed window of the given consumed span.
func (m *Machine) observeWindow(span Cycles) {
	m.wstat.Windows++
	m.wstat.BarrierMerges++
	b := 0
	for s := span; s > 1 && b < len(m.wstat.WindowCycles)-1; s >>= 1 {
		b++
	}
	m.wstat.WindowCycles[b]++
}

// armStep mirrors core c's next step at cycle `at`, allocating its tie-break
// seq from the engine counter — exactly the seq an evCoreStep scheduled at
// this moment would have carried.
func (m *Machine) armStep(c *Core, at Cycles) {
	m.eng.seq++
	c.stepPending = true
	c.stepAt = at
	c.stepSeq = m.eng.seq
}

// minPendingCore returns the pending core step with the smallest
// (stepAt, stepSeq), or nil.
func (m *Machine) minPendingCore() *Core {
	var best *Core
	for _, c := range m.cores {
		if !c.stepPending {
			continue
		}
		if best == nil || c.stepAt < best.stepAt ||
			(c.stepAt == best.stepAt && c.stepSeq < best.stepSeq) {
			best = c
		}
	}
	return best
}

// stepOnce executes core c's mirrored step sequentially: advance the clock
// to its cycle, run exactly one op, and re-arm the continuation.
func (m *Machine) stepOnce(c *Core) {
	eng := m.eng
	when := c.stepAt
	c.stepPending = false
	if when > eng.now {
		eng.now = when
		eng.drainObs(when)
	}
	next, _, ok := m.stepOne(c, when)
	if !ok {
		return
	}
	eng.inlineSteps++
	m.armStep(c, next)
}

// runWindowed is the windowed-mode Run loop: a merge of the mirrored core
// steps and the engine's event queue in exact (when, seq) order, executing
// core steps inline (sweep) or fanning runs of them out to parallel lanes.
func (m *Machine) runWindowed(t Cycles) {
	eng := m.eng
	eng.horizon = t
	par := m.parallelLanes()
	for {
		c := m.minPendingCore()
		eWhen, eSeq, eOk := eng.peekNext()
		if c == nil {
			// No core steps: drain engine events up to the bound.
			if !eOk || eWhen > t {
				break
			}
			eng.now = eWhen
			eng.drainObs(eWhen)
			eng.runAt(eWhen)
			continue
		}
		if eOk && eWhen <= t && (eWhen < c.stepAt || (eWhen == c.stepAt && eSeq < c.stepSeq)) {
			if eWhen == c.stepAt {
				// Same-cycle interleaving with a core step: dispatch one
				// event at a time so seq order is honored exactly.
				eng.Step()
			} else {
				eng.now = eWhen
				eng.drainObs(eWhen)
				eng.runAt(eWhen)
			}
			continue
		}
		if c.stepAt > t {
			break
		}
		if par > 1 && m.tryParallelWindow(c, t, eWhen, eOk, par) {
			continue
		}
		m.stepOnce(c)
	}
	if t > eng.now {
		eng.now = t
	}
	eng.horizon = eng.now
	eng.drainObs(eng.now)
}

// parallelLanes resolves the configured lane mode to a worker count for
// this Run slice: 0 (auto) uses GOMAXPROCS, n>1 caps at n; both cap at the
// core count.  Sweep (≤1) and engine modes return 1.
func (m *Machine) parallelLanes() int {
	n := m.lanes
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > len(m.cores) {
		n = len(m.cores)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// absorbCoreEvents pulls every evCoreStep out of the engine's wheel and
// heap into the core-step mirror (engine mode → windowed transition).
func (m *Machine) absorbCoreEvents() {
	eng := m.eng
	for slot := 0; slot < wheelSlots; slot++ {
		b := eng.wheel[slot]
		if len(b) == 0 {
			continue
		}
		out := b[:0]
		for _, ev := range b {
			if ev.kind == evCoreStep {
				c := ev.target.(*Core)
				c.stepPending = true
				c.stepAt = ev.when
				c.stepSeq = ev.seq
				eng.wheelLen--
				continue
			}
			out = append(out, ev)
		}
		clear(b[len(out):])
		eng.wheel[slot] = out
		if len(out) == 0 {
			eng.occupied[slot>>6] &^= 1 << uint(slot&63)
		}
	}
	out := eng.heap[:0]
	for _, ev := range eng.heap {
		if ev.kind == evCoreStep {
			c := ev.target.(*Core)
			c.stepPending = true
			c.stepAt = ev.when
			c.stepSeq = ev.seq
			continue
		}
		out = append(out, ev)
	}
	eng.heap = out
	// Re-establish the heap invariant after filtering.
	for i := len(eng.heap)/2 - 1; i >= 0; i-- {
		eng.siftDown(i)
	}
}

// flushStepMirror schedules every mirrored core step back into the engine
// (windowed → engine transition), preserving the mirror's relative order.
func (m *Machine) flushStepMirror() {
	pend := make([]*Core, 0, len(m.cores))
	for _, c := range m.cores {
		if c.stepPending {
			pend = append(pend, c)
		}
	}
	sort.Slice(pend, func(i, j int) bool {
		if pend[i].stepAt != pend[j].stepAt {
			return pend[i].stepAt < pend[j].stepAt
		}
		return pend[i].stepSeq < pend[j].stepSeq
	})
	for _, c := range pend {
		c.stepPending = false
		m.eng.at(c.stepAt, evCoreStep, c, 0, 0)
	}
}

// ---------------------------------------------------------------------------
// Core-private op classification.
// ---------------------------------------------------------------------------

// classifyPrivate fetches core c's next op into the stash and reports
// whether executing it at step cycle u touches only core-private state.
// Private ops: loads served by the L1 or merged into an in-flight LFB entry
// whose prefetcher training would issue nothing; stores committing to an
// M/E line in the L1; software prefetches that are dropped or already
// covered; pure think ops.  Everything else — the L2-and-below miss path,
// RFO upgrades, any prefetch issue — reaches shared uncore state or peer
// caches and must run at a window barrier.  stopped reports a core whose
// generator ran dry (no op fetched).
func (m *Machine) classifyPrivate(c *Core, u Cycles) (private, stopped bool) {
	if !c.running || c.gen == nil {
		return false, true
	}
	if !c.opPending {
		if !c.gen.Next(&c.op) {
			c.running = false
			return false, true
		}
		c.opPending = true
	}
	op := &c.op
	t := u + Cycles(op.Think)
	switch op.Kind {
	case workload.Load:
		la := mem.LineAddr(op.Addr)
		if c.l1.Peek(la) == nil && c.findLFB(la, t) == nil {
			return false, false // takes the miss path
		}
		return m.l1pfIdle(c, la, t), false
	case workload.Store:
		la := mem.LineAddr(op.Addr)
		ln := c.l1.Peek(la)
		return ln != nil && (ln.State == Modified || ln.State == Exclusive), false
	case workload.Prefetch:
		la := mem.LineAddr(op.Addr)
		if c.l1.Peek(la) != nil || c.findLFB(la, t) != nil {
			return true, false // covered: the prefetch is a no-op
		}
		if len(c.lfb) >= m.cfg.LFBEntries || c.pfLive(t) >= m.cfg.PFMaxInFlight {
			return true, false // droppable hint, dropped
		}
		return false, false
	}
	return true, false
}

// l1pfIdle reports whether training the L1 streamer on la at cycle t would
// issue no prefetches: every previewed candidate is cut by the in-flight or
// LFB-headroom budget, or already present in the L1/LFB.  The control flow
// mirrors trainL1PF exactly; the prunes it performs (pfLive, findLFB) are
// idempotent at fixed t, so running them during classification leaves the
// same state the sequential path would.
func (m *Machine) l1pfIdle(c *Core, la uint64, t Cycles) bool {
	c.pfScratch = c.l1pf.preview(la, c.pfScratch[:0])
	for _, cand := range c.pfScratch {
		if c.pfLive(t) >= m.cfg.PFMaxInFlight {
			return true
		}
		if len(c.lfb)+2 > m.cfg.LFBEntries {
			return true
		}
		if c.l1.Peek(cand) != nil || c.findLFB(cand, t) != nil {
			continue
		}
		return false // this candidate would issue a miss-path prefetch
	}
	return true
}

// ---------------------------------------------------------------------------
// Parallel lane scheduler.
// ---------------------------------------------------------------------------

// padUint64 is a cache-line-padded atomic counter (lane busy-ns).
type padUint64 struct {
	v atomic.Int64
	_ [56]byte
}

// laneSched owns the worker pool and per-window shared state.  The
// coordinator (the Run goroutine) doubles as lane 0; lanes 1..n-1 are
// worker goroutines that spin briefly on the window generation, then block
// on their wake channel, then exit after an idle timeout (respawned on
// demand).
type laneSched struct {
	m *Machine
	n int // lanes, including the coordinator's lane 0

	gen    atomic.Uint64 // window generation; bumped to open a window
	active atomic.Int64  // lanes still executing the current window
	armKey atomic.Uint64 // shared commit-key counter (window-relative)

	start Cycles // window base for 32-bit relative packing
	h     Cycles // exclusive window end

	coresOf [][]*Core       // lane → cores it executes
	wake    []chan struct{} // size-1 buffered, lanes 1..n-1
	alive   []atomic.Bool   // worker liveness, lanes 1..n-1
	busyNs  []padUint64

	parts []*Core // participants of the current window (coordinator-owned)
}

// newLaneSched builds the scheduler for n lanes over the machine's cores,
// distributing cores round-robin.
func newLaneSched(m *Machine, n int) *laneSched {
	s := &laneSched{
		m:       m,
		n:       n,
		coresOf: make([][]*Core, n),
		wake:    make([]chan struct{}, n),
		alive:   make([]atomic.Bool, n),
		busyNs:  make([]padUint64, n),
	}
	for i, c := range m.cores {
		li := i % n
		s.coresOf[li] = append(s.coresOf[li], c)
	}
	for i := 1; i < n; i++ {
		s.wake[i] = make(chan struct{}, 1)
	}
	return s
}

// laneFor returns the lane index core ci is assigned to.
func (s *laneSched) laneFor(ci int) int { return ci % s.n }

// parkedPos marks a core that takes no further part in the window: it never
// blocks another lane's commit.
const parkedPos = ^uint64(0)

// packPos folds a window-relative cycle and commit key into one word; the
// windowSpanCap and per-window key budget keep both in 32 bits.
func packPos(relAt Cycles, key uint64) uint64 {
	return uint64(relAt)<<32 | (key & 0xffffffff)
}

// tryParallelWindow opens a window at the earliest pending step if at least
// two cores have steps before the window end.  Returns false (and executes
// nothing) when a window is not worth opening; the caller then takes the
// sequential path.
func (m *Machine) tryParallelWindow(minC *Core, bound, eWhen Cycles, eOk bool, lanes int) bool {
	if m.tr != nil && m.tr.Enabled() {
		// Sampling mutates tracer state per op and its order is the
		// record order: lanes bail out to the exact sequential path.
		return false
	}
	start := minC.stepAt
	h := bound + 1
	if eOk && eWhen < h {
		h = eWhen
	}
	if h > start+windowSpanCap {
		h = start + windowSpanCap
	}
	if h <= start {
		return false
	}
	// A window needs two participants.  Count them before touching any
	// core: with a single active core (the common case at auto lanes) the
	// window never opens, and the sequential step fetches the op itself.
	n := 0
	for _, c := range m.cores {
		if c.stepPending && c.running && c.stepAt < h {
			n++
		}
	}
	if n < 2 {
		return false
	}
	// The head op is about to execute at the window's minimal (cycle, key)
	// position, where nothing can block it.  If it classifies shared, the
	// whole window would commit zero ops (the head's frozen frontier parks
	// every other lane) and the scheduler would spin re-opening it: hand it
	// to the sequential path instead.  classifyPrivate stashes the fetched
	// op, so the sequential step consumes it without skipping.
	if private, _ := m.classifyPrivate(minC, start); !private {
		return false
	}
	if m.sched == nil || m.sched.n != lanes {
		m.sched = newLaneSched(m, lanes)
	}
	s := m.sched

	// Collect participants; everything else must never block a commit.
	s.parts = s.parts[:0]
	for _, c := range m.cores {
		if c.stepPending && c.running && c.stepAt < h {
			s.parts = append(s.parts, c)
			continue
		}
		c.lanePos.Store(parkedPos)
		c.laneDone.Store(true)
	}
	// Initial commit keys in mirror order: the engine would dispatch these
	// pending steps by (stepAt, stepSeq).
	sort.Slice(s.parts, func(i, j int) bool {
		if s.parts[i].stepAt != s.parts[j].stepAt {
			return s.parts[i].stepAt < s.parts[j].stepAt
		}
		return s.parts[i].stepSeq < s.parts[j].stepSeq
	})
	for i, c := range s.parts {
		c.laneKey = uint64(i + 1)
		c.laneOps = 0
		c.laneObs = c.laneObs[:0]
		c.lanePos.Store(packPos(c.stepAt-start, c.laneKey))
		c.laneDone.Store(false)
	}
	s.armKey.Store(uint64(len(s.parts)))
	s.start, s.h = start, h

	m.eng.laneGuard = true
	s.active.Store(int64(s.n))
	g := s.gen.Add(1)
	for i := 1; i < s.n; i++ {
		if !s.alive[i].Load() && s.alive[i].CompareAndSwap(false, true) {
			// A fresh worker starts one generation behind so it executes
			// the window that spawned it.
			go s.worker(i, g-1)
		}
		select {
		case s.wake[i] <- struct{}{}:
		default:
		}
	}
	t0 := time.Now()
	s.runLane(0)
	s.busyNs[0].v.Add(time.Since(t0).Nanoseconds())
	s.active.Add(-1)
	for s.active.Load() != 0 {
		runtime.Gosched()
	}
	m.eng.laneGuard = false

	// Barrier: merge per-core observer buffers into the §11 lane in
	// (cycle, coreID) order, fold op counts, and re-sequence the pending
	// steps in commit-key order so engine-mode comparability is restored.
	m.mergeLaneObs(s.parts)
	if m.fl.Enabled() {
		// Flight records deferred by lanes run the shared promotion
		// pipeline here, outside the lane guard, in core order.
		m.fl.MergeDeferred()
	}
	consumed := Cycles(1)
	var totalOps uint64
	for _, c := range s.parts {
		m.eng.inlineSteps += c.laneOps
		totalOps += c.laneOps
		if c.stepAt-start > consumed {
			consumed = c.stepAt - start
		}
	}
	sort.Slice(s.parts, func(i, j int) bool {
		if s.parts[i].stepAt != s.parts[j].stepAt {
			return s.parts[i].stepAt < s.parts[j].stepAt
		}
		return s.parts[i].laneKey < s.parts[j].laneKey
	})
	for _, c := range s.parts {
		if c.running && c.stepPending {
			m.eng.seq++
			c.stepSeq = m.eng.seq
		} else {
			c.stepPending = false
		}
	}
	m.observeWindow(consumed)
	if totalOps == 0 {
		// Guaranteed-progress backstop: the head pre-check above should make
		// this unreachable, but a zero-commit window must never recur at the
		// same position, so execute the earliest pending step sequentially.
		if c := m.minPendingCore(); c != nil && c.stepAt < s.h {
			m.stepOnce(c)
		}
	}
	return true
}

// mergeLaneObs feeds the lanes' deferred observer entries through the
// engine's observer lane in (cycle, coreID) order.  Each buffer is
// when-nondecreasing by construction, so a k-way head merge suffices;
// equal-cycle entries commute (§11), which is what makes the coreID
// tie-break sufficient for byte-identical digests.
func (m *Machine) mergeLaneObs(parts []*Core) {
	idx := make([]int, len(parts))
	for {
		best := -1
		var bestWhen Cycles
		for i, c := range parts {
			if idx[i] >= len(c.laneObs) {
				continue
			}
			w := c.laneObs[idx[i]].when
			if best < 0 || w < bestWhen {
				best, bestWhen = i, w
			}
		}
		if best < 0 {
			return
		}
		ev := &parts[best].laneObs[idx[best]]
		idx[best]++
		m.eng.obsAt(ev.when, ev.kind, ev.target, ev.aux, ev.arg)
	}
}

// worker is the lane goroutine body for lanes 1..n-1.  seen is the last
// window generation this worker considers handled; the spawner passes the
// previous generation so the spawning window runs immediately.
func (s *laneSched) worker(li int, seen uint64) {
	timer := time.NewTimer(laneIdleTimeout)
	defer timer.Stop()
	for {
		g := s.gen.Load()
		if g != seen {
			seen = g
			t0 := time.Now()
			s.runLane(li)
			s.busyNs[li].v.Add(time.Since(t0).Nanoseconds())
			s.active.Add(-1)
			continue
		}
		spun := false
		for i := 0; i < laneSpinBudget; i++ {
			if s.gen.Load() != g {
				spun = true
				break
			}
			runtime.Gosched()
		}
		if spun {
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(laneIdleTimeout)
		select {
		case <-s.wake[li]:
		case <-timer.C:
			// Idle: hand the lane back.  If a window raced in, re-claim it;
			// otherwise exit (the coordinator respawns on demand).
			s.alive[li].Store(false)
			if s.gen.Load() != g && s.alive[li].CompareAndSwap(false, true) {
				continue
			}
			return
		}
	}
}

// runLane executes one window's worth of work for the lane's cores,
// returning when every one of them has parked.
func (s *laneSched) runLane(li int) {
	cores := s.coresOf[li]
	for {
		live, progress := 0, false
		for _, c := range cores {
			if c.laneDone.Load() {
				continue
			}
			switch s.advance(c) {
			case laneParked:
			case laneProgress:
				live++
				progress = true
			case laneBlocked:
				live++
			}
		}
		if live == 0 {
			return
		}
		if !progress {
			runtime.Gosched()
		}
	}
}

type laneResult uint8

const (
	laneParked   laneResult = iota // done for this window
	laneProgress                   // committed at least one op
	laneBlocked                    // waiting on another lane's active frontier
)

// advance runs core c until it parks or is blocked by an active lane.
func (s *laneSched) advance(c *Core) laneResult {
	m := s.m
	res := laneParked
	for {
		u := c.stepAt
		if u >= s.h {
			c.lanePos.Store(parkedPos)
			s.park(c)
			return res
		}
		myPos := packPos(u-s.start, c.laneKey)
		// Frontier check: every other participant must be strictly later
		// (cycle, key)-wise before this op may commit.
		for _, j := range s.parts {
			if j == c {
				continue
			}
			pj := j.lanePos.Load()
			if pj > myPos {
				continue
			}
			if j.laneDone.Load() && j.lanePos.Load() <= myPos {
				// An earlier frontier is frozen for the rest of the window:
				// this core can never commit again before the barrier.
				s.park(c)
				return res
			}
			if res == laneParked {
				return laneBlocked
			}
			return laneProgress // committed something; let siblings run
		}
		private, stopped := m.classifyPrivate(c, u)
		if stopped {
			// No op exists at u: nothing runs at the barrier for this core,
			// so release the frontier instead of freezing it.
			c.stepPending = false
			c.lanePos.Store(parkedPos)
			s.park(c)
			return laneProgress
		}
		if !private {
			// Bail out: the op executes at the barrier, in global order.
			s.park(c)
			return res
		}
		next, _, ok := m.stepOne(c, u)
		if !ok {
			// The op committed and the core stopped: release the frontier.
			c.stepPending = false
			c.lanePos.Store(parkedPos)
			s.park(c)
			return laneProgress
		}
		c.laneOps++
		key := s.armKey.Add(1)
		c.laneKey = key
		c.stepAt = next
		if next >= s.h {
			c.lanePos.Store(parkedPos)
			c.laneDone.Store(true)
			return laneProgress
		}
		c.lanePos.Store(packPos(next-s.start, key))
		res = laneProgress
	}
}

// park freezes core c's frontier for the rest of the window.
func (s *laneSched) park(c *Core) {
	c.laneDone.Store(true)
}
