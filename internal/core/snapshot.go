package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pathfinder/internal/pmu"
	"pathfinder/internal/sim"
)

// BankIndex is the per-machine columnar layout of snapshots: every PMU bank
// gets one fixed slot, and a snapshot is a single flat []uint64 arena of
// bankCount x eventCount counter deltas.  The index is built once (at
// capturer or digest-decode time); all reads resolve through precomputed
// arena offsets — no name formatting or map lookups on the read path.
type BankIndex struct {
	eventCount int
	names      []string       // slot -> bank name
	byName     map[string]int // bank name -> slot
	sorted     []int          // slots in lexicographic name order (digest order)

	// Typed groups: instance number -> arena offset (slot * eventCount).
	// A hole (offset -1) marks an instance the layout does not carry.
	core, cha, imc, m2p, cxl []int

	nCores, nCHA, nIMC, nCXL int // present (non-hole) banks per group
}

// NewBankIndex builds the columnar layout for an ordered bank-name list.
// Names follow the machine's module naming ("core3", "cha0", "imc1",
// "m2pcie0", "cxl0"); names outside the typed groups (e.g. "rimc0") are
// carried in the arena and reachable by name, just not via typed accessors.
func NewBankIndex(names []string, eventCount int) *BankIndex {
	if eventCount <= 0 {
		panic("core: bank index needs a positive event count")
	}
	idx := &BankIndex{
		eventCount: eventCount,
		names:      append([]string(nil), names...),
		byName:     make(map[string]int, len(names)),
	}
	place := func(group *[]int, inst, slot int) {
		for len(*group) <= inst {
			*group = append(*group, -1)
		}
		(*group)[inst] = slot * eventCount
	}
	for slot, name := range idx.names {
		if _, dup := idx.byName[name]; dup {
			panic(fmt.Sprintf("core: duplicate bank name %q in index", name))
		}
		idx.byName[name] = slot
		if prefix, inst, ok := splitBankName(name); ok {
			switch prefix {
			case "core":
				place(&idx.core, inst, slot)
				idx.nCores++
			case "cha":
				place(&idx.cha, inst, slot)
				idx.nCHA++
			case "imc":
				place(&idx.imc, inst, slot)
				idx.nIMC++
			case "m2pcie":
				place(&idx.m2p, inst, slot)
			case "cxl":
				place(&idx.cxl, inst, slot)
				idx.nCXL++
			}
		}
	}
	idx.sorted = make([]int, len(idx.names))
	for i := range idx.sorted {
		idx.sorted[i] = i
	}
	sort.Slice(idx.sorted, func(a, b int) bool {
		return idx.names[idx.sorted[a]] < idx.names[idx.sorted[b]]
	})
	return idx
}

// IndexFor builds the bank index of a machine's PMU layout.
func IndexFor(m *sim.Machine) *BankIndex {
	banks := m.Banks()
	names := make([]string, len(banks))
	ec := 0
	for i, b := range banks {
		names[i] = b.Name()
		if n := b.Catalog().Len(); n > ec {
			ec = n
		}
	}
	return NewBankIndex(names, ec)
}

// splitBankName parses "cha12" into ("cha", 12, true).
func splitBankName(name string) (prefix string, inst int, ok bool) {
	i := len(name)
	for i > 0 && name[i-1] >= '0' && name[i-1] <= '9' {
		i--
	}
	if i == 0 || i == len(name) {
		return "", 0, false
	}
	n, err := strconv.Atoi(name[i:])
	if err != nil {
		return "", 0, false
	}
	return name[:i], n, true
}

// EventCount returns the catalog size the layout was built against.
func (idx *BankIndex) EventCount() int { return idx.eventCount }

// ArenaLen returns the flat arena length of one snapshot.
func (idx *BankIndex) ArenaLen() int { return len(idx.names) * idx.eventCount }

// NumBanks returns the number of banks in the layout.
func (idx *BankIndex) NumBanks() int { return len(idx.names) }

// offsetIn resolves one typed-group instance to its arena offset, panicking
// descriptively for instances the layout does not carry (the Machine.Bank
// convention: a misaddressed read is a rig bug, not a zero).
func (idx *BankIndex) offsetIn(group []int, kind string, i int) int {
	if i >= 0 && i < len(group) && group[i] >= 0 {
		return group[i]
	}
	panic(fmt.Sprintf("core: snapshot layout has no %q bank %d (have %s)",
		kind, i, strings.Join(idx.names, ", ")))
}

// CoreBank returns the arena offset of core i's delta vector.
func (idx *BankIndex) CoreBank(i int) int { return idx.offsetIn(idx.core, "core", i) }

// CHABank returns the arena offset of CHA slice i's delta vector.
func (idx *BankIndex) CHABank(i int) int { return idx.offsetIn(idx.cha, "cha", i) }

// IMCBank returns the arena offset of IMC channel i's delta vector.
func (idx *BankIndex) IMCBank(i int) int { return idx.offsetIn(idx.imc, "imc", i) }

// M2PBank returns the arena offset of CXL port i's M2PCIe delta vector.
func (idx *BankIndex) M2PBank(i int) int { return idx.offsetIn(idx.m2p, "m2pcie", i) }

// CXLBank returns the arena offset of CXL device i's delta vector.
func (idx *BankIndex) CXLBank(i int) int { return idx.offsetIn(idx.cxl, "cxl", i) }

// Snapshot is one scheduling-epoch observation: per-bank counter deltas
// between two Sync points, tagged with the epoch window.  All PathFinder
// analyses operate on snapshots — never on simulator internals.  The deltas
// live in a single flat arena laid out by the snapshot's BankIndex.
type Snapshot struct {
	Seq        int
	Start, End sim.Cycles

	idx   *BankIndex
	arena []uint64

	pool *snapshotPool // recycler; nil for snapshots not owned by a capturer
}

// Index returns the snapshot's bank layout.
func (s *Snapshot) Index() *BankIndex { return s.idx }

// Release returns the snapshot to its capturer's recycler.  After Release
// the snapshot must not be read again; snapshots that did not come from a
// capturer (decoded digests, hand-built tests) ignore it.
func (s *Snapshot) Release() {
	p := s.pool
	if p == nil {
		return
	}
	s.pool = nil // double-Release is a no-op, not a pool corruption
	p.put(s)
}

// snapshotPoolMax bounds a capturer's free list: an epoch loop holds one
// or two snapshots at a time, and any released beyond the bound are left
// to the garbage collector.
const snapshotPoolMax = 4

// snapshotPool is a capturer's free list of released snapshots.  A
// sync.Pool misses whenever the goroutine migrates to another P between
// Release and Capture; this list hands back the most recently released
// snapshot on any goroutine, so recycling is deterministic.  Release may
// run on any goroutine, hence the mutex.
type snapshotPool struct {
	mu   sync.Mutex
	free []*Snapshot
}

func (p *snapshotPool) put(s *Snapshot) {
	p.mu.Lock()
	if len(p.free) < snapshotPoolMax {
		p.free = append(p.free, s)
	}
	p.mu.Unlock()
}

// get pops the most recently released snapshot, or returns nil.
func (p *snapshotPool) get() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return nil
	}
	s := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return s
}

// bankDelta returns the delta vector of a named bank.  Unknown names are a
// rig bug and panic descriptively (they used to read as silent zeros).
func (s *Snapshot) bankDelta(name string) []uint64 {
	slot, ok := s.idx.byName[name]
	if !ok {
		panic(fmt.Sprintf("core: snapshot has no bank %q (have %s)",
			name, strings.Join(s.idx.names, ", ")))
	}
	off := slot * s.idx.eventCount
	return s.arena[off : off+s.idx.eventCount]
}

// Capturer produces snapshots from a machine by differencing bank totals
// between epochs.  It owns the machine's BankIndex, a reused pair of total
// arenas, and a free list of recycled snapshots, so steady-state epoch
// loops capture without allocating.
type Capturer struct {
	m     *sim.Machine
	idx   *BankIndex
	banks []*pmu.Bank // slot order
	prev  []uint64    // bank totals at the previous capture
	cur   []uint64    // scratch for the current totals
	pool  *snapshotPool
	seq   int
	last  sim.Cycles

	// Pool effectiveness, pushed into the metrics registry by the profiler
	// at epoch boundaries: a miss is a Capture that had to allocate.
	poolHits, poolMisses uint64
}

// NewCapturer returns a capturer rebased at the machine's current time.
func NewCapturer(m *sim.Machine) *Capturer {
	c := &Capturer{
		m:     m,
		idx:   IndexFor(m),
		banks: m.Banks(),
		pool:  &snapshotPool{},
	}
	c.prev = make([]uint64, c.idx.ArenaLen())
	c.cur = make([]uint64, c.idx.ArenaLen())
	m.Sync()
	c.copyTotals(c.prev)
	c.last = m.Now()
	return c
}

// Index returns the machine's bank layout (shared by all captures).
func (c *Capturer) Index() *BankIndex { return c.idx }

// copyTotals snapshots every bank's running totals into the arena dst.
func (c *Capturer) copyTotals(dst []uint64) {
	ec := c.idx.eventCount
	for slot, b := range c.banks {
		b.CopyTo(dst[slot*ec : (slot+1)*ec])
	}
}

// Capture takes a snapshot of the epoch since the previous Capture (or
// since NewCapturer).  The returned snapshot is recycled through Release.
func (c *Capturer) Capture() *Snapshot {
	c.m.Sync()
	now := c.m.Now()
	s := c.pool.get()
	if s == nil {
		c.poolMisses++
		s = &Snapshot{arena: make([]uint64, c.idx.ArenaLen())}
	} else {
		c.poolHits++
		if len(s.arena) != c.idx.ArenaLen() {
			s.arena = make([]uint64, c.idx.ArenaLen())
		}
	}
	s.Seq = c.seq
	s.Start = c.last
	s.End = now
	s.idx = c.idx
	s.pool = c.pool
	c.seq++
	c.last = now

	c.copyTotals(c.cur)
	cur, prev, arena := c.cur, c.prev, s.arena
	for i := range arena {
		arena[i] = cur[i] - prev[i]
	}
	c.prev, c.cur = cur, prev
	return s
}

// PoolStats reports how many Captures recycled a snapshot versus had to
// allocate one.
func (c *Capturer) PoolStats() (hits, misses uint64) {
	return c.poolHits, c.poolMisses
}

// Cycles returns the epoch length in cycles.
func (s *Snapshot) Cycles() float64 { return float64(s.End - s.Start) }

// NumCores returns the number of core banks in the snapshot.
func (s *Snapshot) NumCores() int { return s.idx.nCores }

// NumCHA returns the number of CHA banks.
func (s *Snapshot) NumCHA() int { return s.idx.nCHA }

// NumCXL returns the number of CXL device banks.
func (s *Snapshot) NumCXL() int { return s.idx.nCXL }

// Core reads an event delta from core i's bank.
func (s *Snapshot) Core(i int, e pmu.Event) float64 {
	return float64(s.arena[s.idx.CoreBank(i)+int(e)])
}

// CoreSum reads an event delta summed over the given cores (all cores when
// the slice is nil).
func (s *Snapshot) CoreSum(cores []int, e pmu.Event) float64 {
	var t uint64
	if cores == nil {
		for _, off := range s.idx.core {
			if off >= 0 {
				t += s.arena[off+int(e)]
			}
		}
		return float64(t)
	}
	for _, i := range cores {
		t += s.arena[s.idx.CoreBank(i)+int(e)]
	}
	return float64(t)
}

// CHA reads an event delta from CHA slice i.
func (s *Snapshot) CHA(i int, e pmu.Event) float64 {
	return float64(s.arena[s.idx.CHABank(i)+int(e)])
}

// CHASum reads an event delta summed over all CHA slices (the per-socket
// scope of the paper's CHA counters).
func (s *Snapshot) CHASum(e pmu.Event) float64 {
	var t uint64
	for _, off := range s.idx.cha {
		if off >= 0 {
			t += s.arena[off+int(e)]
		}
	}
	return float64(t)
}

// IMCSum reads an event delta summed over all IMC channels.
func (s *Snapshot) IMCSum(e pmu.Event) float64 {
	var t uint64
	for _, off := range s.idx.imc {
		if off >= 0 {
			t += s.arena[off+int(e)]
		}
	}
	return float64(t)
}

// M2P reads an event delta from the M2PCIe bank of CXL port dev.
func (s *Snapshot) M2P(dev int, e pmu.Event) float64 {
	return float64(s.arena[s.idx.M2PBank(dev)+int(e)])
}

// CXL reads an event delta from the CXL device bank.
func (s *Snapshot) CXL(dev int, e pmu.Event) float64 {
	return float64(s.arena[s.idx.CXLBank(dev)+int(e)])
}

// CoreFamilySum sums a whole OCR-style family scenario over cores.
func (s *Snapshot) CoreFamilySum(cores []int, fam pmu.Family, scn int) float64 {
	return s.CoreSum(cores, fam.At(scn))
}
