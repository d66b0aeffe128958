package sim

import (
	"fmt"
	"slices"
	"unsafe"

	"pathfinder/internal/mem"
)

// State is a MESIF coherence state.
type State uint8

// Coherence states of the Intel-style MESIF protocol (§2.2).
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
	Forward
)

// String returns the single-letter state name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Forward:
		return "F"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// stateMask selects the state bits of a way's tag word.  Line addresses are
// line aligned, so their low mem.LineShift bits are free to hold the MESIF
// state; a way whose state bits are zero is invalid.
const stateMask = mem.LineSize - 1

// way is one resident line in 16 bytes: the line address with its state in
// the low bits, and the LRU stamp.  The stamp stays 64-bit — a narrower one
// would wrap within a long run and change which way is least recent.
type way struct {
	tag   uint64 // line address | State
	stamp uint64
}

// holds reports whether a way's tag word holds line address la in a valid
// state.  la must be line aligned: the XOR then leaves exactly the way's
// state bits when the addresses match, and a state is valid when non-zero.
func holds(tag, la uint64) bool {
	x := tag ^ la
	return x != 0 && x <= stateMask
}

// Line is an evicted line as Insert reports it in Cache.Victim: tag,
// coherence state and, in the LLC, the presence bitmap of cores that held a
// private copy.
type Line struct {
	Tag      uint64 // line address (full address, line aligned)
	State    State
	Presence uint64 // cores with a private copy (LLC/SF only)
}

// Cache is a set-associative, write-back cache over line-granular tags.
// It is purely functional (no timing): the machine composes timing around
// lookups and fills.  Lookups return way indices (-1 on a miss), which stay
// valid until the next Insert or Invalidate of the same set.
type Cache struct {
	assoc   int
	setMask uint64
	ways    []way // sets * assoc, set-major
	stamp   uint64

	// presence is the snoop filter: per way, the bitmap of cores holding a
	// private copy, meaningful only while the way is valid (Insert resets
	// it).  Only the LLC allocates it; private caches leave it nil.
	presence []uint64

	// mru is the per-set way predictor: the way of the last hit (or
	// insert) in each set.  Hit-dominated lookups check it before
	// scanning the ways — temporal reuse makes it right most of the
	// time, turning the common hit into a single tag compare.
	mru []uint8

	// Victim carries eviction results out of Insert without allocating.
	Victim    Line
	HasVictim bool
}

// NewCache builds a private cache of the given total size in bytes and
// associativity.  The set count is forced to a power of two (sizes round
// down), matching hardware indexing.
func NewCache(size, ways int) *Cache {
	checkCacheGeometry(size, ways)
	sets := size / (mem.LineSize * ways)
	if sets < 1 {
		sets = 1
	}
	// Round down to a power of two.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	return &Cache{
		assoc:   ways,
		setMask: uint64(sets - 1),
		ways:    make([]way, sets*ways),
		mru:     make([]uint8, sets),
	}
}

// checkCacheGeometry panics unless size and ways describe a cache NewCache
// can build: both positive, and at most 256 ways for the uint8 way
// predictor.
func checkCacheGeometry(size, ways int) {
	if size <= 0 || ways <= 0 {
		panic("sim: cache needs positive size and ways")
	}
	if ways > 256 {
		panic("sim: cache associativity above 256 breaks the way predictor")
	}
}

// newLLC builds an LLC slice: a cache whose ways also carry the snoop
// filter's presence bitmaps.
func newLLC(size, ways int) *Cache {
	c := NewCache(size, ways)
	c.presence = make([]uint64, len(c.ways))
	return c
}

// clone returns an independent copy of c.
func (c *Cache) clone() *Cache {
	d := *c
	d.ways = slices.Clone(c.ways)
	d.presence = slices.Clone(c.presence)
	d.mru = slices.Clone(c.mru)
	return &d
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.mru) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.assoc }

// Bytes returns the memory the cache's state arrays hold.
func (c *Cache) Bytes() int {
	return len(c.ways)*int(unsafe.Sizeof(way{})) + len(c.presence)*8 + len(c.mru)
}

// setIdx returns the set index of line address la.
func (c *Cache) setIdx(la uint64) uint64 {
	return (la >> mem.LineShift) & c.setMask
}

// Lookup returns the way holding la, bumping its LRU recency, or -1 on a
// miss.  la must be line aligned: a set low bit could falsely match a way.
// The predicted (last-hit) way is probed first, so lookups with temporal
// reuse cost one tag compare instead of a scan of every way.
func (c *Cache) Lookup(la uint64) int {
	si := c.setIdx(la)
	base := int(si) * c.assoc
	if w := base + int(c.mru[si]); holds(c.ways[w].tag, la) {
		c.stamp++
		c.ways[w].stamp = c.stamp
		return w
	}
	set := c.ways[base : base+c.assoc]
	for i := range set {
		if holds(set[i].tag, la) {
			c.stamp++
			set[i].stamp = c.stamp
			c.mru[si] = uint8(i)
			return base + i
		}
	}
	return -1
}

// Peek returns the way holding la without touching recency, or -1.  la
// must be line aligned, as for Lookup.  The predicted way is probed first;
// the predictor itself is left untouched (Peek models snoops and presence
// checks, not demand reuse).
func (c *Cache) Peek(la uint64) int {
	si := c.setIdx(la)
	base := int(si) * c.assoc
	if w := base + int(c.mru[si]); holds(c.ways[w].tag, la) {
		return w
	}
	set := c.ways[base : base+c.assoc]
	for i := range set {
		if holds(set[i].tag, la) {
			return base + i
		}
	}
	return -1
}

// State returns the coherence state of way w.
func (c *Cache) State(w int) State { return State(c.ways[w].tag & stateMask) }

// SetState changes the coherence state of the valid way w.
func (c *Cache) SetState(w int, st State) {
	c.ways[w].tag = c.ways[w].tag&^stateMask | uint64(st)
}

// Presence returns the presence bitmap of LLC way w.
func (c *Cache) Presence(w int) uint64 { return c.presence[w] }

// SetPresence replaces the presence bitmap of LLC way w.
func (c *Cache) SetPresence(w int, p uint64) { c.presence[w] = p }

// Insert places la with the given state, evicting the LRU way if the set is
// full.  The evicted line, if any, is exposed via Victim/HasVictim (valid
// until the next Insert).  Inserting an already-present line updates its
// state in place, keeping its presence bitmap; a new line starts with none.
// It returns the inserted way.  la must be line aligned: only a simulator
// bug produces anything else, so a misaligned address panics.
func (c *Cache) Insert(la uint64, st State) int {
	if la&stateMask != 0 {
		panic(fmt.Sprintf("sim: Cache.Insert of misaligned line address %#x", la))
	}
	c.HasVictim = false
	si := c.setIdx(la)
	base := int(si) * c.assoc
	set := c.ways[base : base+c.assoc]
	for i := range set {
		if holds(set[i].tag, la) {
			set[i].tag = la | uint64(st)
			c.stamp++
			set[i].stamp = c.stamp
			c.mru[si] = uint8(i)
			return base + i
		}
	}
	// Miss: evict the first invalid way, else the least recently used.
	vi := -1
	for i := range set {
		if set[i].tag&stateMask == 0 {
			vi = i
			break
		}
		if vi < 0 || set[i].stamp < set[vi].stamp {
			vi = i
		}
	}
	w := base + vi
	if v := set[vi].tag; v&stateMask != 0 {
		c.Victim = Line{Tag: v &^ stateMask, State: State(v & stateMask)}
		if c.presence != nil {
			c.Victim.Presence = c.presence[w]
		}
		c.HasVictim = true
	}
	c.stamp++
	set[vi] = way{tag: la | uint64(st), stamp: c.stamp}
	if c.presence != nil {
		c.presence[w] = 0
	}
	c.mru[si] = uint8(vi)
	return w
}

// Invalidate removes la, returning its previous state and whether it was
// present.  la must be line aligned, as for Lookup.
func (c *Cache) Invalidate(la uint64) (State, bool) {
	base := int(c.setIdx(la)) * c.assoc
	set := c.ways[base : base+c.assoc]
	for i := range set {
		if holds(set[i].tag, la) {
			st := State(set[i].tag & stateMask)
			set[i] = way{}
			return st, true
		}
	}
	return Invalid, false
}

// Occupied counts valid lines (test and introspection helper).
func (c *Cache) Occupied() int {
	n := 0
	for i := range c.ways {
		if c.ways[i].tag&stateMask != 0 {
			n++
		}
	}
	return n
}
