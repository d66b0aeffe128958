package sim

import (
	"fmt"
	"math/bits"
	"unsafe"

	"pathfinder/internal/mem"
	"pathfinder/internal/workload"
)

// Checkpoint is a frozen image of a machine's mutable run state: per-core
// core/cache/LFB/SB state, the engine heap + timing wheel + sequence
// counters, the observer lane, PMU banks, device queues, LRSM/RAS state,
// and the workload generators' RNG streams.  The image is held in the same
// flat arrays a live machine uses (a shadow machine that never runs), so a
// fork is a set of memcpys into a freshly-built or reused machine — never a
// re-simulation of the prefix that produced the state.
//
// Immutable structures are shared copy-on-write by reference across every
// machine forked from the image: the Config value (including the FaultPlan
// pointer, immutable after parse), the address-space node table, and the
// workload substrate (CSR graphs, hash tables, decoded traces).
//
// Observability attachments sit outside the checkpoint boundary: the
// tracer, flight recorder, and access hook describe an observer of one
// particular run, not machine state, so Restore returns a machine with all
// three detached.  Attach them after restore; the restore-then-attach
// golden suite proves the sequence behaves identically to the same attach
// sequence on a fresh machine.
type Checkpoint struct {
	cfg    Config
	space  *mem.AddressSpace // frozen placement state at the barrier
	shadow *Machine          // frozen deep copy; never runs
	srcIdx map[any]int32     // shadow component -> table index, for event remap
	bytes  int               // approximate hot-state size of the image
}

// Checkpoint captures the machine's complete mutable state at the current
// cycle.  The machine must be quiescent — between Run slices, with no
// pending closure events (Schedule/After callbacks cannot be serialized;
// run past them first).  The machine itself is left untouched and can keep
// running; the checkpoint is an independent frozen copy.
//
// Every attached workload generator must implement workload.Forkable so its
// position (RNG streams, cursors, pending ops) can continue independently
// on each forked machine.
func (m *Machine) Checkpoint() (*Checkpoint, error) {
	if err := m.checkpointable(); err != nil {
		return nil, err
	}
	shadow := New(m.cfg, m.as.Clone())
	srcIdx := indexComponents(m)
	copyMachineState(shadow, m, srcIdx)
	for i, c := range m.cores {
		g, err := workload.Fork(c.gen)
		if err != nil {
			return nil, fmt.Errorf("sim: Checkpoint core %d: %w", i, err)
		}
		shadow.cores[i].gen = g
	}
	cp := &Checkpoint{
		cfg:    m.cfg,
		space:  shadow.as,
		shadow: shadow,
		srcIdx: indexComponents(shadow),
	}
	cp.bytes = cp.imageBytes()
	return cp, nil
}

// Cycle returns the simulated cycle the checkpoint was taken at.
func (cp *Checkpoint) Cycle() Cycles { return cp.shadow.eng.now }

// Bytes returns the approximate size of the image's hot state — the bytes
// a fork actually copies (cache arrays, queue rings, event wheels, PMU
// counters, page table).  Shared immutable structures are not counted.
func (cp *Checkpoint) Bytes() int { return cp.bytes }

// Restore builds a new machine positioned exactly at the checkpoint:
// running it produces byte-identical PMU counters, digests, and analyzer
// output to the machine the checkpoint was taken from (proven by the golden
// restore-equivalence suite).  The tracer, flight recorder, and access hook
// are detached; attach them after restore if the forked run needs them.
func (cp *Checkpoint) Restore() *Machine {
	m := New(cp.cfg, cp.space.Clone())
	if err := cp.restoreInto(m); err != nil {
		// New just built m from cp.cfg, so every compatibility and
		// forkability precondition holds by construction.
		panic("sim: " + err.Error())
	}
	return m
}

// RestoreInto re-positions an existing machine at the checkpoint, reusing
// its buffers — in steady state (a machine previously restored from the
// same spec) the fork allocates nothing.  The machine must have been built
// from the same Config (same component counts and timing parameters);
// typically it is a previous Restore() of this or an equivalently-specced
// checkpoint.  Attachments (tracer, flight recorder, access hook) are
// detached, exactly as Restore leaves them.
func (cp *Checkpoint) RestoreInto(m *Machine) error {
	if m.cfg != cp.cfg {
		return fmt.Errorf("sim: RestoreInto machine built from a different Config (%q vs %q)",
			m.cfg.Name, cp.cfg.Name)
	}
	return cp.restoreInto(m)
}

func (cp *Checkpoint) restoreInto(m *Machine) error {
	m.as.CopyStateFrom(cp.space)
	copyMachineState(m, cp.shadow, cp.srcIdx)
	for i, sc := range cp.shadow.cores {
		dc := m.cores[i]
		if workload.CopyState(sc.gen, dc.gen) {
			continue
		}
		g, err := workload.Fork(sc.gen)
		if err != nil {
			return fmt.Errorf("sim: restore core %d: %w", i, err)
		}
		dc.gen = g
	}
	return nil
}

// checkpointable verifies no pending event carries a closure: evFunc events
// bind arbitrary Go state the checkpoint cannot carry into another machine.
func (m *Machine) checkpointable() error {
	for _, ev := range m.eng.heap {
		if ev.kind == evFunc {
			return fmt.Errorf("sim: Checkpoint with a pending Schedule/After closure at cycle %d; run past it first", ev.when)
		}
	}
	for w := 0; w < wheelWords; w++ {
		occ := m.eng.occupied[w]
		for occ != 0 {
			slot := w<<6 + bits.TrailingZeros64(occ)
			occ &= occ - 1
			for _, ev := range m.eng.wheel[slot] {
				if ev.kind == evFunc {
					return fmt.Errorf("sim: Checkpoint with a pending Schedule/After closure at cycle %d; run past it first", ev.when)
				}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Component identity: pending events hold pointers to the components they
// act on, so copying an event between machines means translating its target
// to the destination's corresponding component.  componentTable enumerates
// every possible event target in New()'s construction order — identical
// Configs therefore produce positionally-identical tables, and (source
// index -> destination table) is the whole translation.
// ---------------------------------------------------------------------------

func (m *Machine) componentTable() []any {
	t := m.compTable[:0]
	for _, c := range m.cores {
		t = append(t, c, c.lfbOcc, c.oroData, c.oroDemand, c.oroL3Miss,
			c.rfoBusy, c.missL1Busy, c.missL2Busy)
	}
	for _, s := range m.slices {
		t = append(t, s, s.wbmtoi)
		fams := [5]*torFamily{s.ia, s.drd, s.drdPref, s.rfo, s.rfoPref}
		for _, f := range fams {
			for _, tr := range f.occ {
				t = append(t, tr)
			}
		}
	}
	for _, ch := range m.imc {
		t = append(t, ch, ch.rpqOcc, ch.wpqOcc)
	}
	for _, ch := range m.remoteIMC {
		t = append(t, ch, ch.rpqOcc, ch.wpqOcc)
	}
	for _, p := range m.ports {
		t = append(t, p, p.ingress, p.retryOcc, p.packReqOcc, p.packDataOcc,
			p.devRPQOcc, p.devWPQOcc)
	}
	for _, b := range m.banks {
		t = append(t, b)
	}
	m.compTable = t
	return t
}

func indexComponents(m *Machine) map[any]int32 {
	t := m.componentTable()
	idx := make(map[any]int32, len(t))
	for i, c := range t {
		idx[c] = int32(i)
	}
	return idx
}

// remapper translates event targets from the source machine's components to
// the destination's.
type remapper struct {
	srcIdx map[any]int32
	dst    []any
}

func (r *remapper) target(t any) any {
	if t == nil {
		return nil
	}
	i, ok := r.srcIdx[t]
	if !ok {
		// Every schedulable target is enumerated by componentTable; a miss
		// means an event site and the table drifted apart — a checkpoint
		// bug, not a user error.
		panic(fmt.Sprintf("sim: checkpoint: event target %T not in component table", t))
	}
	return r.dst[i]
}

// ---------------------------------------------------------------------------
// State copy.  One shared routine serves Checkpoint (live -> shadow),
// Restore (shadow -> fresh machine), and RestoreInto (shadow -> reused
// machine): dst and src must be structurally identical (same Config), and
// every copy reuses dst's buffers where capacity allows.
// ---------------------------------------------------------------------------

func copyMachineState(dst, src *Machine, srcIdx map[any]int32) {
	rm := remapper{srcIdx: srcIdx, dst: dst.componentTable()}
	copyEngineState(dst.eng, src.eng, &rm)

	for i, c := range src.cores {
		copyCoreState(dst.cores[i], c)
	}
	for i, s := range src.slices {
		copyCHAState(dst.slices[i], s)
	}
	for i, ch := range src.imc {
		copyIMCState(dst.imc[i], ch)
	}
	for i, ch := range src.remoteIMC {
		copyIMCState(dst.remoteIMC[i], ch)
	}
	for i, p := range src.ports {
		copyPortState(dst.ports[i], p)
	}
	dst.remoteBus = src.remoteBus
	for i, b := range src.banks {
		dst.banks[i].CopyCountersFrom(b)
	}
	dst.lastSync = src.lastSync
	dst.dispatch = src.dispatch

	// Attachments are observers of one particular run, not machine state.
	dst.tr = nil
	dst.cur = nil
	dst.fl = nil
	dst.accessHook = nil
}

func copyEngineState(dst, src *Engine, rm *remapper) {
	dst.now = src.now
	dst.seq = src.seq
	dst.inlineSteps = src.inlineSteps
	dst.dispatched = src.dispatched

	// Far heap: a verbatim copy is a valid heap (same ordering invariant).
	dst.heap = dst.heap[:0]
	for _, ev := range src.heap {
		ev.target = rm.target(ev.target)
		dst.heap = append(dst.heap, ev)
	}

	// Timing wheel: visit the union of occupied slots — src's to copy, dst's
	// to clear stale residue — so the cost scales with live entries, not
	// wheel size.  Between Run slices every non-empty bucket carries its
	// occupancy bit (runAt drops the bit as it empties the bucket), so the
	// union covers every slot that needs touching.
	for w := 0; w < wheelWords; w++ {
		union := src.occupied[w] | dst.occupied[w]
		for union != 0 {
			slot := w<<6 + bits.TrailingZeros64(union)
			union &= union - 1
			b := dst.wheel[slot]
			clear(b) // release stale target/fn references
			b = b[:0]
			for _, ev := range src.wheel[slot] {
				ev.target = rm.target(ev.target)
				b = append(b, ev)
			}
			dst.wheel[slot] = b
		}
	}
	dst.occupied = src.occupied
	dst.wheelLen = src.wheelLen

	// Observer lane: the same union walk over both wheel levels.
	for w := 0; w < obsNearWords; w++ {
		union := src.obsNearOcc[w] | dst.obsNearOcc[w]
		for union != 0 {
			slot := w<<6 + bits.TrailingZeros64(union)
			union &= union - 1
			dst.obsNear[slot] = copyObsSlot(dst.obsNear[slot], src.obsNear[slot], rm)
		}
	}
	for union := src.obsCoarseOcc | dst.obsCoarseOcc; union != 0; union &= union - 1 {
		b := bits.TrailingZeros64(union)
		dst.obsCoarse[b] = copyObsSlot(dst.obsCoarse[b], src.obsCoarse[b], rm)
	}
	dst.obsNearOcc = src.obsNearOcc
	dst.obsCoarseOcc = src.obsCoarseOcc
	dst.obsLen = src.obsLen
	dst.obsFar = dst.obsFar[:0]
	for _, fe := range src.obsFar {
		fe.ev.target = rm.target(fe.ev.target)
		dst.obsFar = append(dst.obsFar, fe)
	}
	dst.obsSeq = src.obsSeq
	dst.obsLast = src.obsLast
}

// copyObsSlot overwrites the observer slot dst with src's entries,
// remapped, reusing dst's buffer.
func copyObsSlot(dst, src []obsEvent, rm *remapper) []obsEvent {
	clear(dst) // release stale target references
	dst = dst[:0]
	for _, ev := range src {
		ev.target = rm.target(ev.target)
		dst = append(dst, ev)
	}
	return dst
}

func copyCoreState(dst, src *Core) {
	// Only a core that has run has caches: mirror src's, building them on
	// dst if it lacks them and dropping dst's when src has none.
	switch {
	case src.l1 == nil:
		dst.l1, dst.l2 = nil, nil
	case dst.l1 == nil:
		dst.l1, dst.l2 = src.l1.clone(), src.l2.clone()
	default:
		copyCacheState(dst.l1, src.l1)
		copyCacheState(dst.l2, src.l2)
	}
	dst.lfb = append(dst.lfb[:0], src.lfb...)
	dst.sb = append(dst.sb[:0], src.sb...)
	dst.sbNextFree = src.sbNextFree
	dst.sbLastDone = src.sbLastDone
	dst.lfbMinDone = src.lfbMinDone
	dst.sbMinDone = src.sbMinDone
	dst.pfMinDone = src.pfMinDone
	dst.fbFullUntil = src.fbFullUntil
	*dst.l1pf = *src.l1pf
	*dst.l2pf = *src.l2pf
	dst.pfDone = append(dst.pfDone[:0], src.pfDone...)
	dst.pfScratch = dst.pfScratch[:0] // scratch; always reset before use

	dst.lfbOcc.CopyStateFrom(src.lfbOcc)
	dst.oroData.CopyStateFrom(src.oroData)
	dst.oroDemand.CopyStateFrom(src.oroDemand)
	dst.oroL3Miss.CopyStateFrom(src.oroL3Miss)
	dst.rfoBusy.CopyStateFrom(src.rfoBusy)
	dst.missL1Busy.CopyStateFrom(src.missL1Busy)
	dst.missL2Busy.CopyStateFrom(src.missL2Busy)

	dst.running = src.running
	dst.op = src.op
	dst.stepPending = src.stepPending
	dst.stepAt = src.stepAt
	dst.stepSeq = src.stepSeq
}

func copyCacheState(dst, src *Cache) {
	if len(dst.ways) != len(src.ways) || dst.assoc != src.assoc || len(dst.presence) != len(src.presence) {
		panic(fmt.Sprintf("sim: checkpoint cache geometry mismatch (%d/%d lines, %d/%d ways)",
			len(dst.ways), len(src.ways), dst.assoc, src.assoc))
	}
	copy(dst.ways, src.ways)
	copy(dst.presence, src.presence)
	copy(dst.mru, src.mru)
	dst.stamp = src.stamp
	dst.Victim = src.Victim
	dst.HasVictim = src.HasVictim
}

func copyCHAState(dst, src *chaSlice) {
	copyCacheState(dst.llc, src.llc)
	df := [5]*torFamily{dst.ia, dst.drd, dst.drdPref, dst.rfo, dst.rfoPref}
	sf := [5]*torFamily{src.ia, src.drd, src.drdPref, src.rfo, src.rfoPref}
	for i := range df {
		for j := range df[i].occ {
			df[i].occ[j].CopyStateFrom(sf[i].occ[j])
		}
	}
	dst.wbmtoi.CopyStateFrom(src.wbmtoi)
}

func copyQueueState(dst, src *boundedQueue) {
	if len(dst.dep) != len(src.dep) {
		panic(fmt.Sprintf("sim: checkpoint queue capacity mismatch (%d vs %d)",
			len(dst.dep), len(src.dep)))
	}
	copy(dst.dep, src.dep)
	dst.idx = src.idx
}

func copyIMCState(dst, src *imcChannel) {
	dst.bus = src.bus
	copyQueueState(dst.rpq, src.rpq)
	copyQueueState(dst.wpq, src.wpq)
	dst.rpqOcc.CopyStateFrom(src.rpqOcc)
	dst.wpqOcc.CopyStateFrom(src.wpqOcc)
}

func copyPortState(dst, src *cxlPort) {
	dst.linkTx = src.linkTx
	dst.linkRx = src.linkRx
	// The fault plan is immutable after parse — shared copy-on-write, so a
	// SetFaultPlan on the source after the checkpoint does not leak into
	// forks (the pointer was captured here).
	dst.plan = src.plan
	dst.txIdx = src.txIdx
	dst.ingress.CopyStateFrom(src.ingress)
	dst.retryOcc.CopyStateFrom(src.retryOcc)
	dst.qos.CopyStateFrom(src.qos)
	dst.qosBase = src.qosBase
	copyQueueState(dst.packReq, src.packReq)
	copyQueueState(dst.packData, src.packData)
	dst.packReqOcc.CopyStateFrom(src.packReqOcc)
	dst.packDataOcc.CopyStateFrom(src.packDataOcc)
	copyQueueState(dst.devRPQ, src.devRPQ)
	copyQueueState(dst.devWPQ, src.devWPQ)
	dst.devRPQOcc.CopyStateFrom(src.devRPQOcc)
	dst.devWPQOcc.CopyStateFrom(src.devWPQOcc)
	dst.media = src.media
	dst.poisonSeen = src.poisonSeen
	dst.viral = src.viral
	dst.viralUntil = src.viralUntil
	dst.removalSeen = src.removalSeen
}

// imageBytes estimates the hot-state size of the frozen image: what a fork
// copies, excluding shared immutable structures.  Only the caches that
// exist count: a core that never ran carries none.
func (cp *Checkpoint) imageBytes() int {
	m := cp.shadow
	n := 0
	for _, c := range m.cores {
		if c.l1 != nil {
			n += c.l1.Bytes() + c.l2.Bytes()
		}
		n += len(c.lfb) * int(unsafe.Sizeof(lfbEntry{}))
		n += len(c.sb) * int(unsafe.Sizeof(sbEntry{}))
		n += len(c.pfDone) * 8
	}
	for _, s := range m.slices {
		n += s.llc.Bytes()
	}
	for _, ch := range m.imc {
		n += (len(ch.rpq.dep) + len(ch.wpq.dep)) * 8
	}
	for _, ch := range m.remoteIMC {
		n += (len(ch.rpq.dep) + len(ch.wpq.dep)) * 8
	}
	for _, p := range m.ports {
		n += (len(p.packReq.dep) + len(p.packData.dep) + len(p.devRPQ.dep) + len(p.devWPQ.dep)) * 8
	}
	for _, b := range m.banks {
		n += b.Catalog().Len() * 8 // counter words
	}
	e := m.eng
	n += (len(e.heap) + e.wheelLen) * int(unsafe.Sizeof(event{}))
	n += (e.obsLen + len(e.obsFar)) * int(unsafe.Sizeof(obsEvent{}))
	n += m.as.PageCount()
	return n
}
