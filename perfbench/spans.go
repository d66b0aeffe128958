package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public call it makes.  Spans of one chunk, epoch or experiment call
// share an ID; Parent is the index of the enclosing span (-1 at the top).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Cycles uint64 `json:"cycles,omitempty"` // simulated cycles, on sim.run spans
	Ops    uint64 `json:"ops,omitempty"`    // workload ops, on sim.run spans
}

// tracer keeps spans in memory until the run writes them out.  A nil
// tracer is tracing off: every method is a no-op, so untraced runs share
// the traced code path at the cost of a nil check.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string, id int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
		Start: int64(time.Since(t.t0))})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// endSim closes a sim.run span with the work it covered.
func (t *tracer) endSim(i int, cycles, ops uint64) {
	if t == nil {
		return
	}
	t.spans[i].Cycles, t.spans[i].Ops = cycles, ops
	t.end(i)
}

// selfTimes returns each span name's total self time: a span's duration
// minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[i]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total int64
	cur, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if lo > curEnd {
			total += curEnd - cur
			cur, curEnd = lo, hi
		} else if hi > curEnd {
			curEnd = hi
		}
	}
	return total + curEnd - cur
}

// write dumps the spans as JSON into dir.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	return path, nil
}
