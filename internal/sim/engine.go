// Package sim is a discrete-event simulator of a CXL-equipped server: cores
// (with store buffer, line-fill buffer, and hardware prefetchers), a
// three-level cache hierarchy with a MESIF-like directory, CHA/LLC slices
// with a Table-of-Requests, the mesh, integrated memory controllers, the
// M2PCIe/FlexBus I/O path, and CXL Type-3 devices with ingress/egress
// packing buffers and a device-side memory controller.
//
// Every architectural module owns a pmu.Bank and increments the counters of
// the paper's Tables 1-4 as requests traverse it, so the profiler layers
// above observe the machine exactly the way PathFinder observes real
// hardware: through PMU reads only.
//
// Timing uses a functional-first, timing-annotated discrete-event model:
// cache state changes happen in issue order while queueing and bandwidth
// contention are modeled with per-resource next-free clocks and occupancy
// integrators, which yields cycle-granular counter semantics without
// per-cycle ticking.
package sim

import (
	"fmt"
	"math/bits"

	"pathfinder/internal/pmu"
)

// Cycles is a point in simulated time, in core clock cycles.
type Cycles = uint64

// evKind selects the PMU payload an observer-lane entry applies, and with
// it the module its idx names: a core id, a CHA slice id, a channel index
// over Machine.chans, a CXL port id, or (evRecord) a test recorder.  Each
// kind names the module field it updates, so entries carry no pointer.
type evKind uint8

const (
	evLFBDemand     evKind = iota // core: lfbOcc + missL1Busy pulses, release at arg
	evORODemand                   // core: oroData + oroDemand pulses, release at arg
	evLFBPulse                    // core: lfbOcc pulse, release at arg
	evORODataPulse                // core: oroData pulse, release at arg
	evOROL3Pulse                  // core: oroL3Miss pulse, release at arg
	evRFOBusyPulse                // core: rfoBusy Begin, End at arg
	evMissL2Pulse                 // core: missL2Busy Begin, End at arg
	evServe                       // core: retired-load/OCR serve counters, aux=class|loc
	evTORPulse                    // slice: TOR residency of group aux, leave at arg
	evWBInsert                    // slice: writeback TOR inserts, aux=transition
	evWBMToIPulse                 // slice: wbmtoi pulse, release at arg
	evIMCReadAdmit                // channel: RPQ insert + CAS counters, leave at arg
	evIMCWriteAdmit               // channel: WPQ insert + CAS counters, leave at arg
	evM2PInc                      // port: m2pBank.Inc(aux)
	evDevInc                      // port: devBank.Inc(aux)
	evDevAdd                      // port: devBank.Add(aux, arg)
	evRetryOcc                    // port: retryOcc.Update(now, aux)
	evCXLArrive                   // port: M2PCIe ingress insert, leave at arg
	evCXLReadDev
	evCXLReadRPQ
	evCXLReadData
	evCXLWriteDev
	evCXLWriteWPQ
	evCXLWriteDone // port: device-side read/write stages
	evCXLCRC       // port: link CRC error + replay, arg=bytes
	evRecord       // Engine.recorders[idx]: the lane's order probe in tests
)

// obsRecorder receives evRecord entries as the observer lane applies them,
// so tests can check the applied order itself, not only its PMU effect.
// The entry is passed by value: a pointer would escape through the
// interface call and move every obsAt's entry to the heap.
type obsRecorder interface{ record(ev obsEvent) }

// event is one queued core step of the dispatch oracle: core (an index
// into Machine.cores) runs its next op at cycle when.  seq breaks
// same-cycle ties in schedule order.
type event struct {
	when Cycles
	seq  uint64
	core int
}

// obsEvent is one deferred observer action: a PMU payload (a counter
// increment or an occupancy/busy-tracker edge) of one module, stamped with
// the cycle it describes.  Observer entries are pure functions of PMU
// state — nothing in the simulation reads the counters they touch between
// observation points — so they can be applied lazily in bulk instead of
// paying an event-engine round-trip each.  At 24 bytes with no pointer,
// the lane is GC-noscan and a checkpoint copies it verbatim.
type obsEvent struct {
	when Cycles
	arg  uint64
	aux  int32
	idx  uint16 // the module the kind updates
	kind evKind
}

// obsFarEvent wraps a beyond-the-turn observer entry with its schedule
// order, the tie-break among same-cycle far entries in the heap.
type obsFarEvent struct {
	ev  obsEvent
	seq uint64
}

// The observer lane keeps a 65,536-cycle horizon: observer completion
// entries ride the *backlogged* service times of saturated CXL/IMC queues,
// which run tens of thousands of cycles ahead of the clock under
// backpressure.  A one-cycle slot per horizon cycle would put every
// insert and every drain on a cold cache line, so the horizon is split in
// two levels (DESIGN.md §11.2): obsNearSlots one-cycle slots hold the block
// of cycles the drain cursor is in, and obsCoarseSlots buckets of one block
// each hold the blocks after it.
const (
	obsNearBits    = 10
	obsNearSlots   = 1 << obsNearBits // cycles per block
	obsNearMask    = obsNearSlots - 1
	obsNearWords   = obsNearSlots / 64
	obsCoarseBits  = 6
	obsCoarseSlots = 1 << obsCoarseBits
	obsCoarseMask  = obsCoarseSlots - 1
	obsHorizon     = obsNearSlots * obsCoarseSlots
)

// Engine is the discrete-event core: the clock, the dispatch oracle's queue
// of core steps and the observer lane.  The queue is a flat binary min-heap
// ordered by (when, seq) that holds at most one step per core; on the
// sweep it stays empty, since each core mirrors its own next step (§12).
type Engine struct {
	now  Cycles
	seq  uint64
	mach *Machine // runs the queued core steps (nil for bare engines)

	heap []event // queued core steps, (when, seq)-ordered binary heap

	// Stepping observability: ops the sweep executed inline versus core
	// steps the oracle dispatched from the queue (the
	// pf_engine_inline_steps / pf_engine_dispatched_events counter pair).
	inlineSteps uint64
	dispatched  uint64

	// The observer lane: PMU bookkeeping (bank increments, occupancy and
	// busy edges) scheduled for a future cycle but carrying no simulation
	// side effects.  These entries never enter the step queue, so they
	// never interrupt the sweep; they are applied in exact (when,
	// schedule-order) order by drainObs at every observation point (the
	// exits of Run and RunUntil, Sync, DevLoad), at every clock advance of
	// the dispatch oracle, and whenever the sweep's clock leaves the
	// cursor's block (advance).  obsLast is the drain cursor: every entry
	// with when <= obsLast has been applied; it may trail the clock, but
	// only within the clock's block.
	//
	// Entries within obsHorizon of the cursor live on a two-level wheel.
	// obsNear holds the cursor's own block of obsNearSlots cycles, one
	// slot per cycle, so a slot holds entries of exactly one cycle in
	// schedule order.  obsCoarse holds the next blocks, one bucket per
	// block in schedule order: entries lie at most obsHorizon ahead, so
	// the pending blocks are (cursor block, cursor block+obsCoarseSlots]
	// and no two share a bucket.  When drainObs crosses into a block it
	// first cascades that block's bucket into the (then empty) near slots
	// in bucket order, and obsAt sends entries of the cursor's block to
	// the near slots only, so same-cycle entries keep their schedule order
	// across the two levels.  Entries beyond the horizon go to obsFar, a
	// (when, seq) min-heap; a far entry's seq is always below any wheel
	// entry's for the same cycle (wheel-eligibility only grows as the
	// cursor advances), so draining the far heap up to each near slot's
	// cycle before the slot preserves schedule order exactly.
	obsNear      [obsNearSlots][]obsEvent
	obsNearOcc   [obsNearWords]uint64
	obsCoarse    [obsCoarseSlots][]obsEvent
	obsCoarseOcc uint64 // bit b: obsCoarse[b] is non-empty
	obsLen       int    // wheel-resident entries, near and coarse
	obsFar       []obsFarEvent
	obsSeq       uint64
	obsLast      Cycles

	// recorders are the evRecord targets; only tests fill the table.
	recorders []obsRecorder
}

// NewEngine returns an engine at cycle zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycles { return e.now }

// Pending reports the number of queued core steps.
func (e *Engine) Pending() int { return len(e.heap) }

// at queues core c's next step for cycle when.  Scheduling in the past is a
// simulator bug and panics.
func (e *Engine) at(when Cycles, c *Core) {
	e.checkPast(when)
	e.seq++
	e.push(event{when: when, seq: e.seq, core: c.id})
}

// obsAt schedules a deferred observer action of module idx for cycle
// `when`.  Unlike at, the entry never enters the step queue: it is
// buffered on the lane and applied by drainObs at the next observation
// point at or after `when`.  Entries at or behind the drain cursor apply
// immediately — they are the newest bookkeeping for that cycle, so
// in-order application is preserved.
//
// A wheel entry is assigned field by field into its grown slot (growObs):
// building the entry on the stack to copy it in was most of obsAt's time.
func (e *Engine) obsAt(when Cycles, kind evKind, idx int, aux int32, arg uint64) {
	e.checkPast(when)
	if when <= e.obsLast {
		ev := obsEvent{when: when, arg: arg, aux: aux, idx: uint16(idx), kind: kind}
		e.applyObs(&ev)
		return
	}
	if when-e.obsLast < obsHorizon {
		var ev *obsEvent
		if when^e.obsLast < obsNearSlots { // the cursor's block
			slot := int(when) & obsNearMask
			ev = growObs(&e.obsNear[slot])
			e.obsNearOcc[slot>>6] |= 1 << uint(slot&63)
		} else {
			b := int(when>>obsNearBits) & obsCoarseMask
			ev = growObs(&e.obsCoarse[b])
			e.obsCoarseOcc |= 1 << uint(b)
		}
		ev.when = when
		ev.arg = arg
		ev.aux = aux
		ev.idx = uint16(idx)
		ev.kind = kind
		e.obsLen++
		return
	}
	e.obsSeq++
	e.obsFar = append(e.obsFar, obsFarEvent{
		ev:  obsEvent{when: when, arg: arg, aux: aux, idx: uint16(idx), kind: kind},
		seq: e.obsSeq,
	})
	heapUp(e.obsFar, len(e.obsFar)-1, obsLess)
}

// growObs extends a lane slot by one entry and returns the new entry for
// the caller to fill.  Reused capacity holds stale entries (drained slots
// are truncated, not cleared), so the caller must assign every field.
func growObs(s *[]obsEvent) *obsEvent {
	b := *s
	if n := len(b); n < cap(b) {
		b = b[:n+1]
	} else {
		b = append(b, obsEvent{})
	}
	*s = b
	return &b[len(b)-1]
}

// advance moves the clock forward to when, draining the observer lane
// only when the clock leaves the drain cursor's block.  Entries stamped
// between the cursor and the clock wait in the near slots and apply, in
// the same (when, schedule order), at the next drain: nothing reads a
// tracker or a bank between observation points (Sync, DevLoad, the exits
// of Run and RunUntil), so a drain per op would only pay for order the
// lane keeps anyway.  when must not lie behind the cursor.
func (e *Engine) advance(when Cycles) {
	e.now = when
	if when^e.obsLast >= obsNearSlots {
		e.drainObs(when)
	}
}

// drainObs applies every buffered observer entry with when <= ts, in
// nondecreasing when order (same-cycle entries in schedule order), and
// advances the drain cursor to ts.  The sweep drains once per block it
// leaves, scanning that block's near bitmap once; a drain that leaves the
// cursor's block jumps straight to the next block holding coarse entries.
func (e *Engine) drainObs(ts Cycles) {
	if ts <= e.obsLast {
		return
	}
	cur, end := e.obsLast, e.obsLast|obsNearMask // end: last cycle of cur's block
	for e.obsLen > 0 {
		if ts <= end {
			e.drainNear(cur, ts)
			break
		}
		e.drainNear(cur, end)
		if e.obsCoarseOcc == 0 {
			break
		}
		// Pending coarse blocks lie in (end's block, end's block +
		// obsCoarseSlots]: rotate the bitmap so bit 0 is the next block's.
		next := end>>obsNearBits + 1
		next += Cycles(bits.TrailingZeros64(bits.RotateLeft64(e.obsCoarseOcc, -int(next&obsCoarseMask))))
		if next > ts>>obsNearBits {
			break
		}
		e.cascade(int(next & obsCoarseMask))
		cur, end = next<<obsNearBits-1, next<<obsNearBits|obsNearMask
	}
	if len(e.obsFar) > 0 {
		e.drainFarUpTo(ts)
	}
	e.obsLast = ts
}

// drainNear applies the near slots for cycles (cur, end], both in the
// cursor's block, each after the far entries due by its cycle.  Slots at
// or before cur are already empty, so only the scan's top is masked.
func (e *Engine) drainNear(cur, end Cycles) {
	if end <= cur {
		return
	}
	hi := int(end) & obsNearMask
	for wi := (int(cur+1) & obsNearMask) >> 6; wi <= hi>>6; wi++ {
		w := e.obsNearOcc[wi]
		if wi == hi>>6 {
			w &= ^uint64(0) >> uint(63-hi&63)
		}
		for w != 0 {
			slot := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			b := e.obsNear[slot]
			if len(e.obsFar) > 0 {
				e.drainFarUpTo(b[0].when)
			}
			for i := range b {
				e.applyObs(&b[i])
			}
			e.obsLen -= len(b)
			// No clear: entries hold no pointer, so stale ones pin
			// nothing.
			e.obsNear[slot] = b[:0]
			e.obsNearOcc[wi] &^= 1 << uint(slot&63)
		}
	}
}

// cascade moves coarse bucket k — the block the cursor is entering — into
// the near slots, in bucket (schedule) order.  The near slots are empty:
// the previous block was drained to its end before the cursor left it.
func (e *Engine) cascade(k int) {
	src := e.obsCoarse[k]
	for i := range src {
		slot := int(src[i].when) & obsNearMask
		e.obsNear[slot] = append(e.obsNear[slot], src[i])
		e.obsNearOcc[slot>>6] |= 1 << uint(slot&63)
	}
	e.obsCoarse[k] = src[:0] // no clear, as in drainNear
	e.obsCoarseOcc &^= 1 << uint(k)
}

// drainFarUpTo applies far-heap entries due at or before w.
func (e *Engine) drainFarUpTo(w Cycles) {
	for len(e.obsFar) > 0 && e.obsFar[0].ev.when <= w {
		ev := e.obsFarPop()
		e.applyObs(&ev.ev)
	}
}

func obsLess(a, b *obsFarEvent) bool {
	if a.ev.when != b.ev.when {
		return a.ev.when < b.ev.when
	}
	return a.seq < b.seq
}

func (e *Engine) obsFarPop() obsFarEvent {
	h := e.obsFar
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	e.obsFar = h[:n]
	heapDown(e.obsFar, 0, obsLess)
	return ev
}

func (e *Engine) checkPast(when Cycles) {
	if when < e.now {
		panic(fmt.Sprintf(
			"sim: scheduling into the past: when=%d now=%d (%d cycles behind, %d events pending)",
			when, e.now, e.now-when, e.Pending()))
	}
}

// push adds a step to the queue.
func (e *Engine) push(ev event) {
	e.heap = append(e.heap, ev)
	heapUp(e.heap, len(e.heap)-1, evLess)
}

func evLess(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// pop removes and returns the earliest step by (when, seq).
func (e *Engine) pop() event {
	h := e.heap
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	e.heap = h[:n]
	heapDown(e.heap, 0, evLess)
	return ev
}

// heapUp restores binary min-heap order after h[i] was appended; heapDown
// after h[i] was replaced.  The engine keeps two such heaps, both ordered
// by (when, seq): the step queue and the lane's far entries.
func heapUp[T any](h []T, i int, less func(a, b *T) bool) {
	for i > 0 {
		p := (i - 1) / 2
		if !less(&h[i], &h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func heapDown[T any](h []T, i int, less func(a, b *T) bool) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && less(&h[r], &h[l]) {
			m = r
		}
		if !less(&h[m], &h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// RunUntil runs the queued core steps due up to and including cycle t in
// (when, seq) order, then advances the clock to t.  A step queues its
// core's continuation as it runs, and the continuation runs too if it
// falls at or before t.
func (e *Engine) RunUntil(t Cycles) {
	for len(e.heap) > 0 && e.heap[0].when <= t {
		ev := e.pop()
		e.now = ev.when
		// Settle observer work due by the new cycle before the step: the
		// cursor rides the clock, so the step finds every bank and tracker
		// as of its own cycle.
		e.drainObs(ev.when)
		e.dispatched++
		e.mach.coreStep(e.mach.cores[ev.core], ev.when)
	}
	if t > e.now {
		e.now = t
	}
	e.drainObs(e.now)
}

// packClassLoc folds a request class and serve location into an event aux.
func packClassLoc(class ReqClass, loc ServeLoc) int32 {
	return int32(class)<<8 | int32(loc)
}

func unpackClassLoc(aux int32) (ReqClass, ServeLoc) {
	return ReqClass(aux >> 8), ServeLoc(aux & 0xff)
}

// applyObs performs one observer action at its stamped cycle.  Payloads
// are pure PMU bookkeeping: bank counter increments and occupancy/busy
// tracker edges.  Entries for equal cycles commute, so drain order only
// has to be correct across distinct cycles.
func (e *Engine) applyObs(ev *obsEvent) {
	now := ev.when
	m := e.mach
	switch ev.kind {
	case evLFBDemand:
		c := m.cores[ev.idx]
		c.lfbOcc.Update(now, +1)
		c.lfbOcc.Release(ev.arg)
		c.missL1Busy.Begin(now)
		c.missL1Busy.Release(ev.arg)
	case evORODemand:
		c := m.cores[ev.idx]
		c.oroData.Update(now, +1)
		c.oroData.Release(ev.arg)
		c.oroDemand.Update(now, +1)
		c.oroDemand.Release(ev.arg)
	case evLFBPulse:
		c := m.cores[ev.idx]
		c.lfbOcc.Update(now, +1)
		c.lfbOcc.Release(ev.arg)
	case evORODataPulse:
		c := m.cores[ev.idx]
		c.oroData.Update(now, +1)
		c.oroData.Release(ev.arg)
	case evOROL3Pulse:
		c := m.cores[ev.idx]
		c.oroL3Miss.Update(now, +1)
		c.oroL3Miss.Release(ev.arg)
	case evRFOBusyPulse:
		c := m.cores[ev.idx]
		c.rfoBusy.Begin(now)
		c.rfoBusy.Release(ev.arg)
	case evMissL2Pulse:
		c := m.cores[ev.idx]
		c.missL2Busy.Begin(now)
		c.missL2Busy.Release(ev.arg)
	case evServe:
		class, loc := unpackClassLoc(ev.aux)
		m.cores[ev.idx].serveRetired(class, loc)
	case evTORPulse:
		m.slices[ev.idx].torPulse(now, Cycles(ev.arg), int(ev.aux))
	case evWBInsert:
		s := m.slices[ev.idx]
		s.bank.Inc(pmu.TORInsertsIAWB[int(ev.aux)])
		s.bank.Inc(pmu.TORInsertsIA[pmu.IAAll])
	case evWBMToIPulse:
		s := m.slices[ev.idx]
		s.wbmtoi.Update(now, +1)
		s.wbmtoi.Release(ev.arg)
	case evIMCReadAdmit:
		ch := m.chans[ev.idx]
		ch.bank.Inc(pmu.RPQInserts)
		ch.bank.Inc(pmu.CASCountRd)
		ch.bank.Inc(pmu.CASCountAll)
		ch.rpqOcc.Update(now, +1)
		ch.rpqOcc.Release(ev.arg)
	case evIMCWriteAdmit:
		ch := m.chans[ev.idx]
		ch.bank.Inc(pmu.WPQInserts)
		ch.bank.Inc(pmu.CASCountWr)
		ch.bank.Inc(pmu.CASCountAll)
		ch.wpqOcc.Update(now, +1)
		ch.wpqOcc.Release(ev.arg)
	case evM2PInc:
		m.ports[ev.idx].m2pBank.Inc(pmu.Event(ev.aux))
	case evDevInc:
		m.ports[ev.idx].devBank.Inc(pmu.Event(ev.aux))
	case evDevAdd:
		m.ports[ev.idx].devBank.Add(pmu.Event(ev.aux), ev.arg)
	case evRetryOcc:
		m.ports[ev.idx].retryOcc.Update(now, int(ev.aux))
	case evCXLArrive:
		p := m.ports[ev.idx]
		p.m2pBank.Inc(pmu.M2PRxInserts)
		p.ingress.Update(now, +1)
		p.ingress.Release(ev.arg)
	case evCXLReadDev:
		p := m.ports[ev.idx]
		p.devBank.Inc(pmu.CXLRxPackBufInsertsReq)
		p.packReqOcc.Update(now, +1)
		p.qos.Update(now, +1)
	case evCXLReadRPQ:
		p := m.ports[ev.idx]
		p.packReqOcc.Update(now, -1)
		p.devBank.Inc(pmu.CXLDevRPQInserts)
		p.devRPQOcc.Update(now, +1)
	case evCXLReadData:
		p := m.ports[ev.idx]
		p.devRPQOcc.Update(now, -1)
		p.qos.Update(now, -1)
		p.devBank.Inc(pmu.CXLDevCASRd)
		p.devBank.Inc(pmu.CXLTxPackBufInsertsData)
	case evCXLWriteDev:
		p := m.ports[ev.idx]
		p.devBank.Inc(pmu.CXLRxPackBufInsertsData)
		p.packDataOcc.Update(now, +1)
		p.qos.Update(now, +1)
	case evCXLWriteWPQ:
		p := m.ports[ev.idx]
		p.packDataOcc.Update(now, -1)
		p.devBank.Inc(pmu.CXLDevWPQInserts)
		p.devWPQOcc.Update(now, +1)
	case evCXLWriteDone:
		p := m.ports[ev.idx]
		p.devWPQOcc.Update(now, -1)
		p.qos.Update(now, -1)
		p.devBank.Inc(pmu.CXLDevCASWr)
		p.devBank.Inc(pmu.CXLTxPackBufInsertsReq)
	case evCXLCRC:
		p := m.ports[ev.idx]
		p.devBank.Inc(pmu.CXLLinkCRCErrors)
		p.devBank.Inc(pmu.CXLLinkRetries)
		p.devBank.Add(pmu.CXLLinkReplayBytes, ev.arg)
	case evRecord:
		e.recorders[ev.idx].record(*ev)
	}
}
