package sim

// The sequential sweep (DESIGN.md §12).
//
// Core steps never enter the event engine in production.  Each core's next
// step is mirrored on the core as (stepAt, stepSeq), with the seq taken
// from the engine's own counter, so the mirror orders steps exactly as the
// engine's queue would.  The run loop repeatedly executes the earliest
// mirrored step by (when, seq), one op inline.  That reproduces the
// dispatch order of an engine that queues one core step per op without
// paying a queue push, pop and lane drain per op.
//
// The dispatch oracle (SetLanes(-1)) is that engine: every op round-trips
// through the step queue.  The golden suites run both and require
// byte-identical digests; absorbCoreEvents and flushStepMirror move pending
// steps between the two at any point of a run, so on the sweep the queue
// is always empty.

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
// seq from the engine counter — exactly the seq the oracle would have
// queued the step with.
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

// runSweep runs the machine up to and including cycle t: the mirrored core
// steps in exact (when, seq) order.
func (m *Machine) runSweep(t Cycles) {
	for {
		c := m.minPendingCore()
		if c == nil || c.stepAt > t {
			break
		}
		m.stepOnce(c)
	}
	eng := m.eng
	if t > eng.now {
		eng.now = t
	}
	eng.drainObs(eng.now)
}

// absorbCoreEvents moves every queued core step into the core-step mirror
// (oracle → sweep transition), keeping its cycle and seq.
func (m *Machine) absorbCoreEvents() {
	eng := m.eng
	for _, ev := range eng.heap {
		c := m.cores[ev.core]
		c.stepPending = true
		c.stepAt = ev.when
		c.stepSeq = ev.seq
	}
	eng.heap = eng.heap[:0]
}

// flushStepMirror queues every mirrored core step in the engine (sweep →
// oracle transition), keeping its cycle and seq, so the queue runs the
// steps in the mirror's order.
func (m *Machine) flushStepMirror() {
	for _, c := range m.attached {
		if c.stepPending {
			c.stepPending = false
			m.eng.push(event{when: c.stepAt, seq: c.stepSeq, core: c.id})
		}
	}
}
