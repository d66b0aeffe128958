package sim

import (
	"testing"

	"pathfinder/internal/mem"
)

// BenchmarkCacheLookupHit measures the predicted-way hit: repeated lookups
// of a resident line must cost one tag compare, not a scan of the set.
func BenchmarkCacheLookupHit(b *testing.B) {
	c := NewCache(48<<10, 12)
	la := uint64(4 * mem.LineSize)
	c.Insert(la, Exclusive)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Lookup(la) < 0 {
			b.Fatal("miss on resident line")
		}
	}
}

// BenchmarkCacheLookupConflict measures the mispredicted path: alternating
// lookups of two lines in the same set defeat the MRU predictor every
// time, falling back to the way scan.
func BenchmarkCacheLookupConflict(b *testing.B) {
	c := NewCache(48<<10, 12)
	sets := uint64(c.Sets())
	a := uint64(0)
	d := sets * mem.LineSize // same set, different tag
	c.Insert(a, Exclusive)
	c.Insert(d, Exclusive)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		la := a
		if i&1 == 1 {
			la = d
		}
		if c.Lookup(la) < 0 {
			b.Fatal("miss on resident line")
		}
	}
}

// TestCacheWayPredictorStaysCoherent drives the predictor through hits,
// conflicting inserts, and invalidations: a stale prediction must never
// produce a wrong lookup result.
func TestCacheWayPredictorStaysCoherent(t *testing.T) {
	c := NewCache(2*12*mem.LineSize, 12) // 2 sets, 12 ways
	sets := uint64(c.Sets())
	line := func(i uint64) uint64 { return i * sets * mem.LineSize } // all in set 0
	// Fill the set and hit each line, moving the prediction around.
	for i := uint64(0); i < 12; i++ {
		c.Insert(line(i), Exclusive)
	}
	for i := uint64(0); i < 12; i++ {
		if c.Lookup(line(i)) < 0 {
			t.Fatalf("line %d missing after fill", i)
		}
	}
	// Invalidate the last-hit line: the stale prediction points at an
	// invalid way and must fall through to a (failed) scan.
	c.Invalidate(line(11))
	if c.Lookup(line(11)) >= 0 {
		t.Fatal("invalidated line still found")
	}
	if c.Lookup(line(3)) < 0 {
		t.Fatal("resident line lost after invalidate")
	}
	// Evicting insert: the predictor must track the replacement.
	c.Insert(line(100), Modified)
	if got := c.Lookup(line(100)); got < 0 || c.State(got) != Modified {
		t.Fatal("inserted line not found via predictor")
	}
	// Peek must not disturb the predictor (recency untouched either).
	if c.Peek(line(3)) < 0 {
		t.Fatal("peek missed resident line")
	}
	if got := c.Lookup(line(100)); got < 0 {
		t.Fatal("line lost after peek")
	}
}
