package sim

import (
	"testing"
	"testing/quick"

	"pathfinder/internal/mem"
	"pathfinder/internal/workload"
)

// collectOwners scans every core's private caches for line la and returns
// the cores holding it in an ownership state (M or E).  Cores that never
// ran have no caches and are skipped.
func collectOwners(m *Machine, la uint64) []int {
	var owners []int
	for _, c := range m.cores {
		if c.l1 == nil {
			continue
		}
		for _, cache := range []*Cache{c.l1, c.l2} {
			if w := cache.Peek(la); w >= 0 && (cache.State(w) == Modified || cache.State(w) == Exclusive) {
				owners = append(owners, c.id)
				break
			}
		}
	}
	return owners
}

// TestSingleWriterInvariant drives two cores over a shared region with a
// random load/store mix and asserts the MESIF single-writer property on
// every line afterwards: at most one core owns any line.
func TestSingleWriterInvariant(t *testing.T) {
	f := func(seed uint64, mix uint8) bool {
		as := mem.NewAddressSpace(12, []mem.Node{
			{ID: 0, Kind: mem.LocalDRAM, Capacity: 1 << 30},
			{ID: 1, Kind: mem.CXLDRAM, Device: 0, Capacity: 1 << 30},
		})
		r, err := as.Alloc(256<<10, mem.Fixed(mem.NodeID(seed%2)))
		if err != nil {
			return false
		}
		cfg := smallConfig()
		cfg.Cores = 2
		m := New(cfg, as)
		frac := float64(mix%100) / 100
		wr := workload.Region{Base: r.Base, Size: r.Size}
		g0 := workload.NewStream(wr, 1, frac, seed|1)
		g0.Reuse = 2
		m.Attach(0, workload.NewLimit(g0, 4000))
		g1 := workload.NewGUPS(wr, 1, 0, 0, seed|3)
		m.Attach(1, workload.NewLimit(g1, 4000))
		m.Run(60_000_000)

		for a := r.Base; a < r.Base+r.Size; a += mem.LineSize {
			if owners := collectOwners(m, a); len(owners) > 1 {
				t.Logf("line %#x owned by cores %v", a, owners)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheBoundedOccupancy: random insert/invalidate sequences never
// exceed capacity, never duplicate a tag, and victims appear exactly when
// a full set must evict.
func TestCacheBoundedOccupancy(t *testing.T) {
	f := func(ops []uint16) bool {
		c := NewCache(4096, 4) // 16 sets x 4 ways
		live := make(map[uint64]bool)
		for _, o := range ops {
			la := uint64(o%512) * 64
			switch o % 3 {
			case 0, 1:
				c.Insert(la, State(1+o%4))
				live[la] = true
				if c.HasVictim {
					if !live[c.Victim.Tag] {
						return false // evicted something never inserted
					}
					delete(live, c.Victim.Tag)
				}
			case 2:
				if _, had := c.Invalidate(la); had {
					delete(live, la)
				}
			}
		}
		if c.Occupied() != len(live) {
			return false
		}
		if c.Occupied() > c.Sets()*c.Ways() {
			return false
		}
		for la := range live {
			if c.Peek(la) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInclusionAfterBackInvalidation: after an LLC victim's
// back-invalidation, no core retains the line privately.
func TestInclusionAfterBackInvalidation(t *testing.T) {
	as := testSpace(t)
	r, err := as.Alloc(32<<20, mem.Fixed(0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.LLCSize = 512 << 10 // tiny LLC: constant evictions
	cfg.LLCSlices = 2
	m := New(cfg, as)
	g := workload.NewStream(workload.Region{Base: r.Base, Size: r.Size}, 1, 0.3, 5)
	m.Attach(0, workload.NewLimit(g, 30000))
	m.Run(100_000_000)

	// Every line a core holds privately must still be present in the LLC
	// (inclusion), modulo the functional-timing approximation of lines
	// filled in the current instant.
	violations := 0
	checked := 0
	c := m.cores[0]
	for a := r.Base; a < r.Base+r.Size; a += mem.LineSize {
		inPrivate := c.l1.Peek(a) >= 0 || c.l2.Peek(a) >= 0
		if !inPrivate {
			continue
		}
		checked++
		s := m.slices[mem.SliceOf(a, len(m.slices))]
		if s.llc.Peek(a) < 0 {
			violations++
		}
	}
	if checked == 0 {
		t.Fatal("nothing cached to check")
	}
	if frac := float64(violations) / float64(checked); frac > 0.02 {
		t.Fatalf("inclusion violated for %.1f%% of %d private lines", frac*100, checked)
	}
}
