package sim

import (
	"fmt"
	"testing"

	"pathfinder/internal/pmu"
	"pathfinder/internal/workload"
)

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

// TestObserverDrainOnStep: the oracle settles the lane entries due by a
// queued step's cycle before running the step, so the step finds every
// bank as of its own cycle.
func TestObserverDrainOnStep(t *testing.T) {
	m, _ := oracleRig(t)
	b := pmu.NewBank(pmu.Default, "core0")
	m.eng.obsAt(40, evBankInc, b, int32(pmu.MemLoadL1Hit), 0)
	var seen []uint64
	thinks := []uint16{59, 0} // steps at 0 and 60
	m.Attach(0, genFunc(func(op *workload.Op) bool {
		if len(thinks) == 0 {
			return false
		}
		seen = append(seen, b.Read(pmu.MemLoadL1Hit))
		*op = workload.Op{Kind: nop, Think: thinks[0]}
		thinks = thinks[1:]
		return true
	}))
	m.eng.RunUntil(60)
	if fmt.Sprint(seen) != "[0 1]" {
		t.Fatalf("steps at 0 and 60 read %v, want [0 1] (the entry at 40 must drain before the step at 60)", seen)
	}
}
