package experiments

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// TestSupervisePanicIsolation is the acceptance scenario: one task
// panics, the pool survives, every other task completes, and the summary
// names the failure with its classification.
func TestSupervisePanicIsolation(t *testing.T) {
	prev := SetParallelism(4)
	defer SetParallelism(prev)

	const n = 8
	var completed atomic.Int64
	rep := Supervise(SuperviseOptions{Label: "panic-test"}, n, func(i int, _ *TaskCtx) error {
		if i == 3 {
			panic("injected experiment bug")
		}
		completed.Add(1)
		return nil
	})

	if got := completed.Load(); got != n-1 {
		t.Fatalf("%d of %d healthy tasks completed", got, n-1)
	}
	for i, o := range rep.Outcomes {
		if i == 3 {
			if o.Class != FailPanic || o.Err == nil {
				t.Fatalf("task 3 outcome %+v, want FailPanic", o)
			}
			continue
		}
		if !o.OK() {
			t.Fatalf("healthy task %d failed: %+v", i, o)
		}
	}
	sum := rep.Summary()
	if !strings.Contains(sum, "7/8 tasks ok") ||
		!strings.Contains(sum, "task 3 failed [panic]") ||
		!strings.Contains(sum, "injected experiment bug") {
		t.Fatalf("summary missing failure detail: %q", sum)
	}
	if len(rep.Failed()) != 1 || rep.Failed()[0].Index != 3 {
		t.Fatalf("Failed() = %+v", rep.Failed())
	}
}

// TestSupervisePanicIsolationSerial proves the serial path (parallelism 1)
// contains panics the same way.
func TestSupervisePanicIsolationSerial(t *testing.T) {
	prev := SetParallelism(1)
	defer SetParallelism(prev)

	var completed atomic.Int64
	rep := Supervise(SuperviseOptions{Label: "serial"}, 4, func(i int, _ *TaskCtx) error {
		if i == 0 {
			panic("boom")
		}
		completed.Add(1)
		return nil
	})
	if completed.Load() != 3 || rep.Outcomes[0].Class != FailPanic {
		t.Fatalf("serial supervision broken: completed=%d outcomes=%+v",
			completed.Load(), rep.Outcomes)
	}
}

// TestSupervisePermanentNoRetry: an error return is recorded as the
// task's FailPermanent outcome after its one run.
func TestSupervisePermanentNoRetry(t *testing.T) {
	var tries atomic.Int64
	rep := Supervise(SuperviseOptions{Label: "perm"}, 1, func(i int, tc *TaskCtx) error {
		tries.Add(1)
		return errors.New("bad config")
	})
	o := rep.Outcomes[0]
	if o.Class != FailPermanent || o.Err == nil || tries.Load() != 1 {
		t.Fatalf("outcome %+v after %d tries, want FailPermanent after one run", o, tries.Load())
	}
	if sum := rep.Summary(); !strings.Contains(sum, "task 0 failed [permanent]: bad config") {
		t.Fatalf("summary missing failure detail: %q", sum)
	}
}

func TestSuperviseCycleBudget(t *testing.T) {
	rep := Supervise(SuperviseOptions{Label: "budget", CycleBudget: 10_000},
		1, func(i int, tc *TaskCtx) error {
			for {
				// A cooperative simulation loop: charge each chunk and stop
				// when the supervisor says the budget is gone.
				if err := tc.Charge(4_000); err != nil {
					return err
				}
			}
		})
	o := rep.Outcomes[0]
	if o.Class != FailDeadline || !errors.Is(o.Err, ErrBudget) {
		t.Fatalf("outcome %+v, want FailDeadline/ErrBudget", o)
	}

	// An unbudgeted context never expires.
	tc := &TaskCtx{}
	if err := tc.Charge(1 << 40); err != nil {
		t.Fatalf("unbudgeted Charge returned %v", err)
	}
	if tc.Remaining() != 0 {
		t.Fatalf("unbudgeted Remaining = %d", tc.Remaining())
	}
}
