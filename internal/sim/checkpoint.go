package sim

import (
	"fmt"
	"math/bits"
	"unsafe"

	"pathfinder/internal/mem"
	"pathfinder/internal/workload"
)

// Checkpoint is a frozen image of a machine's mutable run state: per-core
// core/cache/LFB/SB state, the queued core steps and sequence counters of
// the engine, the observer lane, PMU banks, device queues, LRSM/RAS state,
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
// flight recorder and access hook describe an observer of one particular
// run, not machine state, so Restore returns a machine with both
// detached.  Attach them after restore; the restore-then-attach
// golden suite proves the sequence behaves identically to the same attach
// sequence on a fresh machine.
type Checkpoint struct {
	cfg    Config
	space  *mem.AddressSpace // frozen placement state at the barrier
	shadow *Machine          // frozen deep copy; never runs
	bytes  int               // approximate hot-state size of the image
}

// Checkpoint captures the machine's complete mutable state at the current
// cycle.  The machine must be quiescent — between Run slices.  The machine
// itself is left untouched and can keep running; the checkpoint is an
// independent frozen copy.
//
// Every attached workload generator must implement workload.Forkable so its
// position (RNG streams, cursors, pending ops) can continue independently
// on each forked machine.
func (m *Machine) Checkpoint() (*Checkpoint, error) {
	shadow := New(m.cfg, m.as.Clone())
	copyMachineState(shadow, m)
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
	}
	cp.bytes = cp.imageBytes()
	return cp, nil
}

// Cycle returns the simulated cycle the checkpoint was taken at.
func (cp *Checkpoint) Cycle() Cycles { return cp.shadow.eng.now }

// Bytes returns the approximate size of the image's hot state — the bytes
// a fork actually copies (cache arrays, queue rings, queued steps and the
// observer lane, PMU counters, page table).  Shared immutable structures
// are not counted.
func (cp *Checkpoint) Bytes() int { return cp.bytes }

// Restore builds a new machine positioned exactly at the checkpoint:
// running it produces byte-identical PMU counters, digests, and analyzer
// output to the machine the checkpoint was taken from (proven by the golden
// restore-equivalence suite).  The flight recorder and access hook are
// detached; attach them after restore if the forked run needs them.
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
// checkpoint.  Attachments (flight recorder, access hook) are detached,
// exactly as Restore leaves them.
func (cp *Checkpoint) RestoreInto(m *Machine) error {
	if m.cfg != cp.cfg {
		return fmt.Errorf("sim: RestoreInto machine built from a different Config (%q vs %q)",
			m.cfg.Name, cp.cfg.Name)
	}
	return cp.restoreInto(m)
}

func (cp *Checkpoint) restoreInto(m *Machine) error {
	m.as.CopyStateFrom(cp.space)
	copyMachineState(m, cp.shadow)
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

// ---------------------------------------------------------------------------
// State copy.  One shared routine serves Checkpoint (live -> shadow),
// Restore (shadow -> fresh machine), and RestoreInto (shadow -> reused
// machine): dst and src must be structurally identical (same Config), and
// every copy reuses dst's buffers where capacity allows.  Queued steps and
// lane entries name the modules they act on by index, and identical
// Configs build positionally identical modules, so both copy verbatim.
// ---------------------------------------------------------------------------

func copyMachineState(dst, src *Machine) {
	copyEngineState(dst.eng, src.eng)

	dst.attached = dst.attached[:0]
	for i, c := range src.cores {
		copyCoreState(dst.cores[i], c)
		if c.l1 != nil {
			dst.attached = append(dst.attached, dst.cores[i])
		}
	}
	for i, s := range src.slices {
		copyCHAState(dst.slices[i], s)
	}
	for i, ch := range src.chans {
		copyIMCState(dst.chans[i], ch)
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
	dst.fl = nil
	dst.accessHook = nil
}

func copyEngineState(dst, src *Engine) {
	dst.now = src.now
	dst.seq = src.seq
	dst.inlineSteps = src.inlineSteps
	dst.dispatched = src.dispatched

	// Step queue: a verbatim copy is a valid heap (same ordering invariant).
	dst.heap = append(dst.heap[:0], src.heap...)

	// Observer lane: visit the union of occupied slots on both wheel levels
	// — src's to copy, dst's to truncate stale residue — so the cost scales
	// with live entries, not wheel size.
	for w := 0; w < obsNearWords; w++ {
		union := src.obsNearOcc[w] | dst.obsNearOcc[w]
		for union != 0 {
			slot := w<<6 + bits.TrailingZeros64(union)
			union &= union - 1
			dst.obsNear[slot] = append(dst.obsNear[slot][:0], src.obsNear[slot]...)
		}
	}
	for union := src.obsCoarseOcc | dst.obsCoarseOcc; union != 0; union &= union - 1 {
		b := bits.TrailingZeros64(union)
		dst.obsCoarse[b] = append(dst.obsCoarse[b][:0], src.obsCoarse[b]...)
	}
	dst.obsNearOcc = src.obsNearOcc
	dst.obsCoarseOcc = src.obsCoarseOcc
	dst.obsLen = src.obsLen
	dst.obsFar = append(dst.obsFar[:0], src.obsFar...)
	dst.obsSeq = src.obsSeq
	dst.obsLast = src.obsLast
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
	if len(dst.words) != len(src.words) || dst.stride != src.stride {
		panic(fmt.Sprintf("sim: checkpoint cache geometry mismatch (%d/%d words, %d/%d per set)",
			len(dst.words), len(src.words), dst.stride, src.stride))
	}
	copy(dst.words, src.words)
	copy(dst.ranks, src.ranks)
	dst.Victim = src.Victim
	dst.HasVictim = src.HasVictim
}

func copyCHAState(dst, src *chaSlice) {
	copyCacheState(dst.llc, src.llc)
	dst.torCur = src.torCur
	dst.torLast = src.torLast
	dst.torLeave = append(dst.torLeave[:0], src.torLeave...)
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
	for _, ch := range m.chans {
		n += (len(ch.rpq.dep) + len(ch.wpq.dep)) * 8
	}
	for _, p := range m.ports {
		n += (len(p.packReq.dep) + len(p.packData.dep) + len(p.devRPQ.dep) + len(p.devWPQ.dep)) * 8
	}
	for _, b := range m.banks {
		n += b.Catalog().Len() * 8 // counter words
	}
	e := m.eng
	n += len(e.heap) * int(unsafe.Sizeof(event{}))
	n += (e.obsLen + len(e.obsFar)) * int(unsafe.Sizeof(obsEvent{}))
	n += m.as.PageCount()
	return n
}
