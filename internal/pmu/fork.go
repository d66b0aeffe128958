package pmu

import "fmt"

// The CopyStateFrom family duplicates a tracker's mutable run state into a
// structurally-identical tracker on another machine, for the checkpoint/
// restore layer in internal/sim.  The destination keeps its own bank and
// event wiring (set at construction) — only integration state moves.  All
// copies reuse the destination's buffers, so a restore into an existing
// machine allocates only when a pending-release queue outgrew its capacity.

// CopyStateFrom copies src's occupancy-integration state (current level,
// integration watermark, pending falling edges) into t.
func (t *OccTracker) CopyStateFrom(src *OccTracker) {
	t.cur = src.cur
	t.last = src.last
	t.rel = append(t.rel[:0], src.rel...)
}

// CopyStateFrom copies src's busy-interval state (reference-count depth,
// open-interval start, pending End edges) into t.
func (t *BusyTracker) CopyStateFrom(src *BusyTracker) {
	t.depth = src.depth
	t.since = src.since
	t.rel = append(t.rel[:0], src.rel...)
}

// CopyCountersFrom copies every counter value from src, which must be
// allocated against a catalog of the same length.
func (b *Bank) CopyCountersFrom(src *Bank) {
	if len(b.vals) != len(src.vals) {
		panic(fmt.Sprintf("pmu: bank %s: CopyCountersFrom src %s holds %d values, want %d",
			b.name, src.name, len(src.vals), len(b.vals)))
	}
	copy(b.vals, src.vals)
}
