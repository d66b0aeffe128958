package sim

import "sort"

// The sequential sweep (DESIGN.md §12).
//
// Core steps never enter the event engine in production.  Each core's next
// step is mirrored on the core as (stepAt, stepSeq), with the seq taken
// from the engine's own counter, so a pending step compares exactly against
// engine events.  The run loop repeatedly executes the globally earliest
// item by (when, seq): an engine event dispatches as usual, a core step runs
// one op inline.  That reproduces the dispatch order of an engine that
// schedules one evCoreStep per op without paying a wheel push, a bitmap
// scan and a dispatch per op.
//
// The dispatch oracle (SetLanes(-1)) is that engine: every op round-trips
// through evCoreStep.  The golden suites run both and require byte-identical
// digests; absorbCoreEvents and flushStepMirror move pending steps between
// the two at any point of a run.

// WindowStats is what the removed parallel window scheduler reported.
//
// Deprecated: the sweep opens no windows, so every field stays zero.
// perfbench is its last user.
type WindowStats struct {
	Windows      uint64
	WindowCycles [24]uint64
}

// WindowStats always returns zero counters.
//
// Deprecated: see WindowStats; perfbench is its last caller.
func (m *Machine) WindowStats() WindowStats { return WindowStats{} }

// SetLanes selects how core steps run.  n < 0 selects the dispatch oracle,
// which the golden suites compare the sweep against; any n >= 0 selects the
// sequential sweep, the default.  Switching between Run slices is supported:
// pending steps move between the mirror and the engine in order.
//
// Deprecated: lane counts are gone; perfbench is the last caller that
// passes one (0 and 1, both the sweep).  Tests still select the oracle with
// SetLanes(-1).
func (m *Machine) SetLanes(n int) {
	if dispatch := n < 0; dispatch != m.dispatch {
		m.dispatch = dispatch
		if dispatch {
			m.flushStepMirror()
		} else {
			m.absorbCoreEvents()
		}
	}
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
// (stepAt, stepSeq), or nil.  Only a core that has run can hold a step, and
// every stepSeq is distinct, so scanning m.attached in any order finds it.
func (m *Machine) minPendingCore() *Core {
	var best *Core
	for _, c := range m.attached {
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

// stepOnce executes core c's mirrored step: advance the clock to its cycle,
// run exactly one op, and re-arm the continuation.
func (m *Machine) stepOnce(c *Core) {
	eng := m.eng
	when := c.stepAt
	c.stepPending = false
	if when > eng.now {
		eng.advance(when)
	}
	next, ok := m.stepOne(c, when)
	if !ok {
		return
	}
	eng.inlineSteps++
	m.armStep(c, next)
}

// runSweep runs the machine up to and including cycle t: a merge of the
// mirrored core steps and the engine's event queue in exact (when, seq)
// order.
func (m *Machine) runSweep(t Cycles) {
	eng := m.eng
	for {
		c := m.minPendingCore()
		eWhen, eSeq, eOk := eng.peekNext()
		if eOk && eWhen <= t && (c == nil || eWhen < c.stepAt ||
			(eWhen == c.stepAt && eSeq < c.stepSeq)) {
			if c != nil && eWhen == c.stepAt {
				// Same-cycle interleaving with a core step: dispatch one
				// event at a time so seq order is honored exactly.
				eng.Step()
			} else {
				// dispatch drains the lane before each payload it runs.
				eng.advance(eWhen)
				eng.runAt(eWhen)
			}
			continue
		}
		if c == nil || c.stepAt > t {
			break
		}
		m.stepOnce(c)
	}
	if t > eng.now {
		eng.now = t
	}
	eng.drainObs(eng.now)
}

// absorbCoreEvents pulls every evCoreStep out of the engine's wheel and
// heap into the core-step mirror (oracle → sweep transition).
func (m *Machine) absorbCoreEvents() {
	eng := m.eng
	absorb := func(ev *event) bool {
		if ev.kind != evCoreStep {
			return false
		}
		c := ev.target.(*Core)
		c.stepPending = true
		c.stepAt = ev.when
		c.stepSeq = ev.seq
		return true
	}
	for slot := 0; slot < wheelSlots; slot++ {
		b := eng.wheel[slot]
		if len(b) == 0 {
			continue
		}
		out := b[:0]
		for i := range b {
			if absorb(&b[i]) {
				eng.wheelLen--
				continue
			}
			out = append(out, b[i])
		}
		clear(b[len(out):])
		eng.wheel[slot] = out
		if len(out) == 0 {
			eng.occupied[slot>>6] &^= 1 << uint(slot&63)
		}
	}
	out := eng.heap[:0]
	for i := range eng.heap {
		if !absorb(&eng.heap[i]) {
			out = append(out, eng.heap[i])
		}
	}
	clear(eng.heap[len(out):])
	eng.heap = out
	// Re-establish the heap invariant after filtering.
	for i := len(eng.heap)/2 - 1; i >= 0; i-- {
		eng.siftDown(i)
	}
}

// flushStepMirror schedules every mirrored core step back into the engine
// (sweep → oracle transition), preserving the mirror's relative order.
func (m *Machine) flushStepMirror() {
	pend := make([]*Core, 0, len(m.attached))
	for _, c := range m.attached {
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
