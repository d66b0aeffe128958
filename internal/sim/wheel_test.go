package sim

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"pathfinder/internal/pmu"
	"pathfinder/internal/workload"
)

// TestObserverLaneIntegrals schedules occupancy edges through the deferred
// observer lane — near slots, coarse buckets on a block edge, and the far
// heap, in scrambled order — and checks the tracker integrates exactly as
// immediate in-order updates would.  The edges move CXL port 0's LRSM
// retry-buffer tracker, the one lane kind that applies a signed delta.
func TestObserverLaneIntegrals(t *testing.T) {
	m := New(smallConfig(), testSpace(t))
	e, b := m.eng, m.Bank("cxl0")

	far := Cycles(3 * obsHorizon)
	edge := Cycles(2 * obsNearSlots) // first cycle of the third block
	// Scrambled schedule order; correct time order is what must apply.
	e.obsAt(250, evRetryOcc, 0, -1, 0)
	e.obsAt(edge, evRetryOcc, 0, -1, 0)
	e.obsAt(100, evRetryOcc, 0, +1, 0)
	e.obsAt(far+50, evRetryOcc, 0, -1, 0)
	e.obsAt(200, evRetryOcc, 0, +1, 0)
	e.obsAt(far, evRetryOcc, 0, +1, 0)
	e.obsAt(edge-1, evRetryOcc, 0, +1, 0)
	e.obsAt(300, evRetryOcc, 0, -1, 0)

	e.RunUntil(4 * obsHorizon)
	// 1*(200-100) + 2*(250-200) + 1*(300-250) + 1*1 + 1*50 = 301
	if got := b.Read(pmu.CXLLinkRetryBufOcc); got != 301 {
		t.Fatalf("occupancy integral = %d, want 301", got)
	}
	// not-empty: (300-100) + 1 + 50 = 251
	if got := b.Read(pmu.CXLLinkRetryBufNE); got != 251 {
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
	m := New(smallConfig(), testSpace(t))
	e, tr := m.eng, m.ports[0].retryOcc

	target := Cycles(2*obsHorizon) + 10
	e.obsAt(target, evRetryOcc, 0, +1, 0) // far at schedule time
	e.RunUntil(target - 2*obsNearSlots)
	e.obsAt(target, evRetryOcc, 0, -1, 0) // coarse, same cycle, later seq
	e.obsAt(target, evRetryOcc, 0, +1, 0)
	e.RunUntil(target - 5)
	e.obsAt(target, evRetryOcc, 0, -1, 0) // near: the cursor's block
	e.RunUntil(target + 10)
	if tr.Len() != 0 {
		t.Fatalf("occupancy = %d, want 0", tr.Len())
	}
}

// TestObserverImmediateApply: an observer entry stamped at or behind the
// drain cursor applies synchronously — it is the newest bookkeeping for
// that cycle and the engine must not hold it for a future drain.
func TestObserverImmediateApply(t *testing.T) {
	m := New(smallConfig(), testSpace(t))
	b := m.Bank("cxl0")
	m.eng.RunUntil(500)
	m.eng.obsAt(500, evDevInc, 0, int32(pmu.CXLDevTimeouts), 0)
	if got := b.Read(pmu.CXLDevTimeouts); got != 1 {
		t.Fatalf("counter = %d after at-cursor obsAt, want immediate 1", got)
	}
}

// TestObserverDrainOnStep: the oracle settles the lane entries due by a
// queued step's cycle before running the step, so the step finds every
// bank as of its own cycle.
func TestObserverDrainOnStep(t *testing.T) {
	m, _ := oracleRig(t)
	b := m.Bank("cxl0")
	m.eng.obsAt(40, evDevInc, 0, int32(pmu.CXLDevTimeouts), 0)
	var seen []uint64
	thinks := []uint16{59, 0} // steps at 0 and 60
	m.Attach(0, genFunc(func(op *workload.Op) bool {
		if len(thinks) == 0 {
			return false
		}
		seen = append(seen, b.Read(pmu.CXLDevTimeouts))
		*op = workload.Op{Kind: nop, Think: thinks[0]}
		thinks = thinks[1:]
		return true
	}))
	m.eng.RunUntil(60)
	if fmt.Sprint(seen) != "[0 1]" {
		t.Fatalf("steps at 0 and 60 read %v, want [0 1] (the entry at 40 must drain before the step at 60)", seen)
	}
}

// TestLaneEntriesPointerFree: a lane entry is 24 bytes, and neither it nor a
// queued step holds a pointer, so the lane and the step queue stay
// GC-noscan and a checkpoint copies both verbatim.
func TestLaneEntriesPointerFree(t *testing.T) {
	if got := unsafe.Sizeof(obsEvent{}); got != 24 {
		t.Fatalf("a lane entry is %d bytes, want 24", got)
	}
	var pointerFree func(reflect.Type) bool
	pointerFree = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !pointerFree(ty.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Array:
			return pointerFree(ty.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.String:
			return false
		}
		return true
	}
	for _, v := range []any{obsEvent{}, obsFarEvent{}, event{}} {
		ty := reflect.TypeOf(v)
		for i := 0; i < ty.NumField(); i++ {
			if f := ty.Field(i); !pointerFree(f.Type) {
				t.Errorf("%s.%s (%s) holds a pointer", ty.Name(), f.Name, f.Type)
			}
		}
	}
}
