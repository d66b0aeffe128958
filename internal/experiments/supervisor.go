package experiments

import (
	"errors"
	"fmt"
	"strings"
)

// The supervised runner is the worker pool with failure containment: a
// panicking task becomes a classified TaskOutcome instead of killing the
// pool, and tasks get a cooperative simulated-cycle budget.  runIndexed
// keeps its fail-fast contract for the experiment suite; Supervise is the
// entry point for long soaks that must report partial results rather than
// die.

// FailureClass classifies why a supervised task ended.
type FailureClass uint8

// Task failure classes.
const (
	FailNone      FailureClass = iota // task succeeded
	FailPanic                         // task panicked; recovered by the pool
	FailDeadline                      // task exceeded its cycle budget
	FailPermanent                     // task returned any other error
)

// String returns the class mnemonic used in summaries.
func (c FailureClass) String() string {
	switch c {
	case FailNone:
		return "ok"
	case FailPanic:
		return "panic"
	case FailDeadline:
		return "deadline"
	case FailPermanent:
		return "permanent"
	}
	return fmt.Sprintf("FailureClass(%d)", uint8(c))
}

// ErrBudget is returned by TaskCtx.Charge when a task has consumed its
// simulated-cycle budget; the supervisor classifies it FailDeadline.
var ErrBudget = errors.New("experiments: task exceeded its cycle budget")

// TaskCtx is the context handed to a supervised task: a cooperative
// simulated-cycle budget.  Tasks running a Machine call Charge between Run
// chunks so a runaway scenario is cut off deterministically — at the same
// simulated cycle on every host — rather than by wall clock.
type TaskCtx struct {
	budget uint64
	used   uint64
}

// Charge accounts cycles of simulated work against the task's budget and
// returns ErrBudget once it is exhausted (a zero budget never expires).
func (tc *TaskCtx) Charge(cycles uint64) error {
	tc.used += cycles
	if tc.budget > 0 && tc.used > tc.budget {
		return ErrBudget
	}
	return nil
}

// Remaining returns the unconsumed cycle budget (0 when exhausted or when
// the task is unbudgeted).
func (tc *TaskCtx) Remaining() uint64 {
	if tc.budget == 0 || tc.used >= tc.budget {
		return 0
	}
	return tc.budget - tc.used
}

// SuperviseOptions tunes the supervised runner.  The zero value means no
// cycle budget.
type SuperviseOptions struct {
	Label       string // experiment label for pprof/metrics
	CycleBudget uint64 // per-task simulated-cycle budget (0 = unlimited)
}

// TaskOutcome is one task's final disposition.
type TaskOutcome struct {
	Index int
	Class FailureClass
	Err   error // nil when Class is FailNone
}

// OK reports whether the task succeeded.
func (o TaskOutcome) OK() bool { return o.Class == FailNone }

// RunReport aggregates per-task outcomes of one supervised run.  Every
// task has an outcome — partial results survive individual failures.
type RunReport struct {
	Label    string
	Outcomes []TaskOutcome
}

// Failed returns the outcomes of tasks that did not succeed, in index
// order.
func (r *RunReport) Failed() []TaskOutcome {
	var out []TaskOutcome
	for _, o := range r.Outcomes {
		if !o.OK() {
			out = append(out, o)
		}
	}
	return out
}

// Summary renders a one-line result with every failure and its
// classification.
func (r *RunReport) Summary() string {
	ok := 0
	for _, o := range r.Outcomes {
		if o.OK() {
			ok++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d/%d tasks ok", r.Label, ok, len(r.Outcomes))
	for _, o := range r.Outcomes {
		if !o.OK() {
			fmt.Fprintf(&b, "; task %d failed [%s]: %v", o.Index, o.Class, o.Err)
		}
	}
	return b.String()
}

// Supervise invokes fn(0..n-1) on the worker pool with failure
// containment: a panic, budget expiry, or error in one task is recorded
// as that task's outcome while every other task runs to completion.
// Outcomes are indexed by task, so aggregation order matches a serial
// loop regardless of scheduling.
func Supervise(opt SuperviseOptions, n int, fn func(i int, tc *TaskCtx) error) *RunReport {
	label := opt.Label
	if label == "" {
		label = "supervised"
	}
	rep := &RunReport{Label: label, Outcomes: make([]TaskOutcome, n)}
	panics := runPool(label, n, func(i int) {
		err := fn(i, &TaskCtx{budget: opt.CycleBudget})
		class := FailPermanent
		switch {
		case err == nil:
			class = FailNone
		case errors.Is(err, ErrBudget):
			class = FailDeadline
		}
		rep.Outcomes[i] = TaskOutcome{Index: i, Class: class, Err: err}
	})
	for i, p := range panics {
		if p != nil {
			rep.Outcomes[i] = TaskOutcome{Index: i, Class: FailPanic, Err: p}
		}
	}
	return rep
}
