package sim

import (
	"fmt"
	"testing"

	"pathfinder/internal/pmu"
)

// TestEngineWheelBoundary pins the wheel/heap routing boundary: an event
// exactly wheelSlots-1 ahead is the farthest wheel-resident cycle, one
// past it must take the heap, and both fire in schedule order once the
// clock reaches them.
func TestEngineWheelBoundary(t *testing.T) {
	e := NewEngine()
	e.RunUntil(10) // non-zero base so slot arithmetic wraps mid-wheel
	var got []int
	edge := e.Now() + wheelSlots - 1
	e.Schedule(edge, func(Cycles) { got = append(got, 0) })
	if e.wheelLen != 1 || len(e.heap) != 0 {
		t.Fatalf("event at now+wheelSlots-1 routed to heap (wheel=%d heap=%d)",
			e.wheelLen, len(e.heap))
	}
	e.Schedule(edge+1, func(Cycles) { got = append(got, 1) })
	if len(e.heap) != 1 {
		t.Fatalf("event at now+wheelSlots routed to wheel (wheel=%d heap=%d)",
			e.wheelLen, len(e.heap))
	}
	// A same-cycle pair split across wheel and heap: the heap-resident
	// event was scheduled first and must fire first.
	e.Schedule(edge+1, func(Cycles) { got = append(got, 2) })
	e.RunUntil(edge + 2)
	if fmt.Sprint(got) != "[0 1 2]" {
		t.Fatalf("firing order = %v, want [0 1 2]", got)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending", e.Pending())
	}
}

// TestEngineStepRunUntilEquivalence runs an identical mixed wheel+heap
// schedule (with same-cycle cascades) through Step-by-Step execution and
// through one RunUntil, requiring the same firing sequence and clock.
func TestEngineStepRunUntilEquivalence(t *testing.T) {
	build := func(e *Engine, log *[]string) {
		rec := func(tag string) func(Cycles) {
			return func(now Cycles) { *log = append(*log, fmt.Sprintf("%s@%d", tag, now)) }
		}
		e.Schedule(50, rec("a"))
		e.Schedule(50, func(now Cycles) {
			*log = append(*log, fmt.Sprintf("b@%d", now))
			e.Schedule(now, rec("cascade"))            // same-cycle cascade
			e.Schedule(now+wheelSlots+100, rec("far")) // heap path
		})
		e.Schedule(wheelSlots+200, rec("c"))
		e.Schedule(3, rec("first"))
	}

	var stepLog, runLog []string
	se := NewEngine()
	build(se, &stepLog)
	for se.Step() {
	}
	re := NewEngine()
	build(re, &runLog)
	re.RunUntil(2 * wheelSlots)

	if fmt.Sprint(stepLog) != fmt.Sprint(runLog) {
		t.Fatalf("Step order %v != RunUntil order %v", stepLog, runLog)
	}
	if se.Now() != wheelSlots+200 {
		t.Fatalf("Step clock = %d, want %d (last event)", se.Now(), wheelSlots+200)
	}
}

// TestObserverLaneIntegrals schedules occupancy edges through the deferred
// observer lane — near slots, coarse buckets on a block edge, and the far
// heap, in scrambled order — and checks the tracker integrates exactly as
// immediate in-order updates would.
func TestObserverLaneIntegrals(t *testing.T) {
	e := NewEngine()
	b := pmu.NewBank(pmu.Default, "imc0ch0")
	tr := pmu.NewOccTracker(b, pmu.RPQOccupancy, pmu.RPQCyclesNE, -1, 0)

	far := Cycles(3 * obsHorizon)
	edge := Cycles(2 * obsNearSlots) // first cycle of the third block
	// Scrambled schedule order; correct time order is what must apply.
	e.obsAt(250, evOcc, tr, -1, 0)
	e.obsAt(edge, evOcc, tr, -1, 0)
	e.obsAt(100, evOcc, tr, +1, 0)
	e.obsAt(far+50, evOcc, tr, -1, 0)
	e.obsAt(200, evOcc, tr, +1, 0)
	e.obsAt(far, evOcc, tr, +1, 0)
	e.obsAt(edge-1, evOcc, tr, +1, 0)
	e.obsAt(300, evOcc, tr, -1, 0)

	e.RunUntil(4 * obsHorizon)
	// 1*(200-100) + 2*(250-200) + 1*(300-250) + 1*1 + 1*50 = 301
	if got := b.Read(pmu.RPQOccupancy); got != 301 {
		t.Fatalf("occupancy integral = %d, want 301", got)
	}
	// not-empty: (300-100) + 1 + 50 = 251
	if got := b.Read(pmu.RPQCyclesNE); got != 251 {
		t.Fatalf("not-empty cycles = %d, want 251", got)
	}
	if e.obsLen != 0 || len(e.obsFar) != 0 {
		t.Fatalf("observer lane not drained: wheel=%d far=%d", e.obsLen, len(e.obsFar))
	}
}

// TestObserverFarBeforeNearSameCycle: entries for one cycle scheduled from
// ever closer clocks — beyond the horizon (far heap), from a coarse
// distance (coarse bucket), then from the cycle's own block (near slot) —
// apply in schedule order.  Order is observable here because any inversion
// of the levels drives the tracker negative and panics.
func TestObserverFarBeforeNearSameCycle(t *testing.T) {
	e := NewEngine()
	b := pmu.NewBank(pmu.Default, "imc0ch0")
	tr := pmu.NewOccTracker(b, pmu.RPQOccupancy, -1, -1, 0)

	target := Cycles(2*obsHorizon) + 10
	e.obsAt(target, evOcc, tr, +1, 0) // far at schedule time
	e.RunUntil(target - 2*obsNearSlots)
	e.obsAt(target, evOcc, tr, -1, 0) // coarse, same cycle, later seq
	e.obsAt(target, evOcc, tr, +1, 0)
	e.RunUntil(target - 5)
	e.obsAt(target, evOcc, tr, -1, 0) // near: the cursor's block
	e.RunUntil(target + 10)
	if tr.Len() != 0 {
		t.Fatalf("occupancy = %d, want 0", tr.Len())
	}
}

// TestObserverImmediateApply: an observer entry stamped at or behind the
// drain cursor applies synchronously — it is the newest bookkeeping for
// that cycle and the engine must not hold it for a future drain.
func TestObserverImmediateApply(t *testing.T) {
	e := NewEngine()
	b := pmu.NewBank(pmu.Default, "core0")
	e.RunUntil(500)
	e.obsAt(500, evBankInc, b, int32(pmu.MemLoadL1Hit), 0)
	if got := b.Read(pmu.MemLoadL1Hit); got != 1 {
		t.Fatalf("counter = %d after at-cursor obsAt, want immediate 1", got)
	}
}

// TestObserverDrainOnStep: single-stepping must settle observer work due
// by each event's cycle, so closures observe counters exactly as the
// event-per-observer engine left them.
func TestObserverDrainOnStep(t *testing.T) {
	e := NewEngine()
	b := pmu.NewBank(pmu.Default, "core0")
	e.obsAt(40, evBankInc, b, int32(pmu.MemLoadL1Hit), 0)
	var seen uint64
	e.Schedule(60, func(Cycles) { seen = b.Read(pmu.MemLoadL1Hit) })
	if !e.Step() {
		t.Fatal("no event to step")
	}
	if seen != 1 {
		t.Fatalf("closure at 60 read %d, want 1 (obs entry at 40 must drain first)", seen)
	}
}
