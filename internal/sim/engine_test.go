package sim

import (
	"fmt"
	"strings"
	"testing"

	"pathfinder/internal/workload"
)

// nop is an op kind stepOne runs as pure compute: no memory access, and
// the core's next step comes Think+1 cycles after this one.
const nop = workload.Prefetch + 1

// genFunc adapts a function to workload.Generator.
type genFunc func(op *workload.Op) bool

func (f genFunc) Next(op *workload.Op) bool { return f(op) }

// probe attaches to core i a workload that logs "i@cycle" at each of its
// steps and issues a nop with the next of its think times, ending after
// the last one.  The attach arms its first step at the current cycle.
func probe(m *Machine, log *[]string, i int, thinks ...uint16) {
	m.Attach(i, genFunc(func(op *workload.Op) bool {
		if len(thinks) == 0 {
			return false
		}
		*log = append(*log, fmt.Sprintf("%d@%d", i, m.Now()))
		*op = workload.Op{Kind: nop, Think: thinks[0]}
		thinks = thinks[1:]
		return true
	}))
}

// oracleRig returns a machine on the dispatch oracle, whose engine queues
// one step per op, and an empty step log for its probes.
func oracleRig(t *testing.T) (*Machine, *[]string) {
	t.Helper()
	m := New(smallConfig(), testSpace(t))
	m.SetLanes(-1)
	return m, new([]string)
}

// TestEngineWheelHeapMerge: steps queued for one cycle from different
// clocks — from far ahead, from halfway, from just before it and from the
// cycle before — run in schedule (seq) order once the clock reaches it.
func TestEngineWheelHeapMerge(t *testing.T) {
	const target = 10_000
	m, log := oracleRig(t)
	probe(m, log, 0, target-1, 999)               // queued at 0 for target
	probe(m, log, 1, target/2-1, target/2-1, 999) // re-queued at target/2
	m.eng.RunUntil(target - 10)
	probe(m, log, 2, 9, 999) // queued at target-10
	m.eng.RunUntil(target - 1)
	probe(m, log, 3, 0, 999) // queued at target-1
	m.eng.RunUntil(target)
	want := "[0@0 1@0 1@5000 2@9990 3@9999 0@10000 1@10000 2@10000 3@10000]"
	if got := fmt.Sprint(*log); got != want {
		t.Fatalf("step order = %v, want %v", got, want)
	}
}

// TestEngineStepRunUntilEquivalence runs one schedule of tying core steps
// (every 2, 3 and 6 cycles) three ways: one RunUntil on the oracle,
// one-cycle slices that switch between the sweep and the oracle before
// every slice (so each switch moves queued steps, ties included, between
// the queue and the mirror), and one Run on the sweep.  All three must run
// the same steps in the same order and stop at the same clock.
func TestEngineStepRunUntilEquivalence(t *testing.T) {
	const end = 200
	run := func(slice Cycles, lanes func(k int) int) (string, Cycles) {
		m := New(smallConfig(), testSpace(t))
		log := new([]string)
		for i, think := range []uint16{1, 2, 5} {
			thinks := make([]uint16, end)
			for j := range thinks {
				thinks[j] = think
			}
			probe(m, log, i, thinks...)
		}
		for k := 0; m.Now() < end; k++ {
			m.SetLanes(lanes(k))
			m.Run(slice)
		}
		return fmt.Sprint(*log), m.Now()
	}
	want, wantNow := run(end, func(int) int { return -1 })
	for _, tc := range []struct {
		name  string
		slice Cycles
		lanes func(k int) int
	}{
		{"one-cycle slices switching modes", 1, func(k int) int { return -(k % 2) }},
		{"sweep", end, func(int) int { return 0 }},
	} {
		got, now := run(tc.slice, tc.lanes)
		if got != want {
			t.Fatalf("%s: steps %v, oracle RunUntil ran %v", tc.name, got, want)
		}
		if now != wantNow {
			t.Fatalf("%s: clock %d, oracle RunUntil stopped at %d", tc.name, now, wantNow)
		}
	}
	if n := strings.Count(want, "@"); n < end {
		t.Fatalf("only %d steps ran", n)
	}
}

// TestEnginePastPanicMessage: the past-scheduling panic must carry
// enough context to debug the misbehaving schedule site.
func TestEnginePastPanicMessage(t *testing.T) {
	m, log := oracleRig(t)
	probe(m, log, 0, 49, 9, 139) // steps at 0, 50 and 60, then one queued at 200
	m.eng.RunUntil(100)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("scheduling into the past did not panic")
		}
		msg := fmt.Sprint(r)
		for _, part := range []string{"when=40", "now=100", "60 cycles behind", "1 events pending"} {
			if !strings.Contains(msg, part) {
				t.Errorf("panic message %q missing %q", msg, part)
			}
		}
	}()
	m.eng.at(40, m.cores[1])
}

// TestMachineBankUnknownPanics: a misnamed bank must fail loudly with
// the available names, not return nil for the caller to deref.
func TestMachineBankUnknownPanics(t *testing.T) {
	m := New(smallConfig(), testSpace(t))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unknown bank name did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "cxl9") || !strings.Contains(msg, "cxl0") {
			t.Errorf("panic %q should name the missing bank and the available ones", msg)
		}
	}()
	m.Bank("cxl9")
}
