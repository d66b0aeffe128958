package sim

import (
	"fmt"
	"math/bits"
	"slices"

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

// stateMask selects the state bits of a tag word.  Line addresses are
// line aligned, so their low mem.LineShift bits are free to hold the MESIF
// state; a way whose state bits are zero is invalid.
const stateMask = mem.LineSize - 1

// holds reports whether tag word tag holds line address la in a valid
// state.  la must be line aligned: the XOR then leaves exactly the way's
// state bits when the addresses match, and a state is valid when non-zero.
func holds(tag, la uint64) bool {
	x := tag ^ la
	return x != 0 && x <= stateMask
}

// maxWays caps a cache's associativity: a set's LRU order is one 64-bit
// rank word of 4-bit ranks.
const maxWays = 16

// nibbles has a one in every 4-bit lane of a rank word.
const nibbles = 0x1111111111111111

// zeroNibble returns the index of the lowest zero nibble of x, which must
// have one.  A borrow only ever runs upward from a zero nibble, so the
// lowest set bit of the mask marks exactly the lowest zero nibble.
func zeroNibble(x uint64) int {
	return bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3)) >> 2
}

// promote returns rank word r with way w moved to rank 0 (most recently
// used) and every way ranked above it aged by one.  It works on the even
// and the odd nibbles in separate 8-bit lanes: (b|0x80)-k keeps bit 7 of a
// lane exactly when its rank b >= k, and borrows nothing across lanes.
// Unused nibbles hold 0xF, which is never below k, so they stay 0xF.
func promote(r uint64, w int) uint64 {
	const lo, hi = 0x0F0F0F0F0F0F0F0F, 0x8080808080808080
	sh := uint(w) * 4
	k := (r >> sh & 0xF) * 0x0101010101010101
	e, o := r&lo, r>>4&lo
	e += (^((e | hi) - k) & hi) >> 7
	o += (^((o | hi) - k) & hi) >> 7
	return (e | o<<4) &^ (0xF << sh)
}

// initialRanks is the rank word of a fresh set: way i at rank i, and 0xF in
// the nibbles of ways the set does not have.
func initialRanks(assoc int) uint64 {
	r := ^uint64(0)
	for i := 0; i < assoc; i++ {
		r = r&^(0xF<<(4*i)) | uint64(i)<<(4*i)
	}
	return r
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
//
// A set is assoc tag words (line address | State).  In the LLC the set's
// assoc presence words follow its tags in the same slice: per way, the
// snoop filter's bitmap of cores holding a private copy, meaningful only
// while the way is valid (Insert resets it).  Each set also has one rank
// word holding way i's LRU rank in nibble i.  Rank 0 is the most recently
// used way, which doubles as the way predictor; a hit moves its way to
// rank 0, and a miss fills the first invalid way, else the way ranked
// assoc-1.
type Cache struct {
	assoc   int
	stride  int // words per set: assoc tags, then assoc presence words in the LLC
	setMask uint64
	lruRank uint64   // assoc-1 in every nibble: XOR finds the LRU way
	words   []uint64 // stride words per set, set-major
	ranks   []uint64 // one rank word per set

	// Victim carries eviction results out of Insert without allocating.
	Victim    Line
	HasVictim bool
}

// NewCache builds a private cache of the given total size in bytes and
// associativity.  The set count is forced to a power of two (sizes round
// down), matching hardware indexing.
func NewCache(size, ways int) *Cache { return newCache(size, ways, ways) }

// newLLC builds an LLC slice: a cache whose sets also carry the snoop
// filter's presence words, in the same allocation as the tags.
func newLLC(size, ways int) *Cache { return newCache(size, ways, 2*ways) }

func newCache(size, ways, stride int) *Cache {
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
	c := &Cache{
		assoc:   ways,
		stride:  stride,
		setMask: uint64(sets - 1),
		lruRank: uint64(ways-1) * nibbles,
		words:   make([]uint64, sets*stride),
		ranks:   make([]uint64, sets),
	}
	r := initialRanks(ways)
	for i := range c.ranks {
		c.ranks[i] = r
	}
	return c
}

// checkCacheGeometry panics unless size and ways describe a cache NewCache
// can build: both positive, and at most maxWays ways for the rank word.
func checkCacheGeometry(size, ways int) {
	if size <= 0 || ways <= 0 {
		panic("sim: cache needs positive size and ways")
	}
	if ways > maxWays {
		panic(fmt.Sprintf("sim: cache associativity %d exceeds %d, the ways one rank word orders", ways, maxWays))
	}
}

// clone returns an independent copy of c.
func (c *Cache) clone() *Cache {
	d := *c
	d.words = slices.Clone(c.words)
	d.ranks = slices.Clone(c.ranks)
	return &d
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.ranks) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.assoc }

// Bytes returns the memory the cache's state arrays hold.
func (c *Cache) Bytes() int { return (len(c.words) + len(c.ranks)) * 8 }

// setIdx returns the set index of line address la.
func (c *Cache) setIdx(la uint64) uint64 {
	return (la >> mem.LineShift) & c.setMask
}

// Lookup returns the way holding la, moving it to rank 0, or -1 on a miss.
// la must be line aligned: a set low bit could falsely match a way.  The
// rank-0 way is probed first, so lookups with temporal reuse cost one tag
// compare instead of a scan of every way.
func (c *Cache) Lookup(la uint64) int {
	si := c.setIdx(la)
	base := int(si) * c.stride
	r := c.ranks[si]
	if w := base + zeroNibble(r); holds(c.words[w], la) {
		return w // already rank 0
	}
	set := c.words[base : base+c.assoc]
	for i, t := range set {
		if holds(t, la) {
			c.ranks[si] = promote(r, i)
			return base + i
		}
	}
	return -1
}

// Peek returns the way holding la without touching recency, or -1.  la
// must be line aligned, as for Lookup.  The rank-0 way is probed first.
func (c *Cache) Peek(la uint64) int {
	si := c.setIdx(la)
	base := int(si) * c.stride
	if w := base + zeroNibble(c.ranks[si]); holds(c.words[w], la) {
		return w
	}
	set := c.words[base : base+c.assoc]
	for i, t := range set {
		if holds(t, la) {
			return base + i
		}
	}
	return -1
}

// State returns the coherence state of way w.
func (c *Cache) State(w int) State { return State(c.words[w] & stateMask) }

// SetState changes the coherence state of the valid way w.
func (c *Cache) SetState(w int, st State) {
	c.words[w] = c.words[w]&^stateMask | uint64(st)
}

// Presence returns the presence bitmap of LLC way w.
func (c *Cache) Presence(w int) uint64 { return c.words[w+c.assoc] }

// SetPresence replaces the presence bitmap of LLC way w.
func (c *Cache) SetPresence(w int, p uint64) { c.words[w+c.assoc] = p }

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
	base := int(si) * c.stride
	set := c.words[base : base+c.assoc]
	r := c.ranks[si]
	// One pass finds a hit or the first invalid way.
	vi := -1
	for i, t := range set {
		if holds(t, la) {
			set[i] = la | uint64(st)
			c.ranks[si] = promote(r, i)
			return base + i
		}
		if vi < 0 && t&stateMask == 0 {
			vi = i
		}
	}
	presence := c.stride > c.assoc
	if vi < 0 {
		// Every way is valid: evict the one ranked assoc-1.
		vi = zeroNibble(r ^ c.lruRank)
		v := set[vi]
		c.Victim = Line{Tag: v &^ stateMask, State: State(v & stateMask)}
		if presence {
			c.Victim.Presence = c.words[base+c.assoc+vi]
		}
		c.HasVictim = true
	}
	set[vi] = la | uint64(st)
	if presence {
		c.words[base+c.assoc+vi] = 0
	}
	c.ranks[si] = promote(r, vi)
	return base + vi
}

// Invalidate removes la, returning its previous state and whether it was
// present.  la must be line aligned, as for Lookup.
func (c *Cache) Invalidate(la uint64) (State, bool) {
	base := int(c.setIdx(la)) * c.stride
	set := c.words[base : base+c.assoc]
	for i, t := range set {
		if holds(t, la) {
			set[i] = 0
			return State(t & stateMask), true
		}
	}
	return Invalid, false
}

// Occupied counts valid lines (test and introspection helper).
func (c *Cache) Occupied() int {
	n := 0
	for base := 0; base < len(c.words); base += c.stride {
		for _, t := range c.words[base : base+c.assoc] {
			if t&stateMask != 0 {
				n++
			}
		}
	}
	return n
}
