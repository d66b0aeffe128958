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

// A tag word is 32 bits: the line number's bits above the set index in
// the high tagBits, the MESIF state in the low stateBits.  A way whose
// state bits are zero is invalid.
const (
	stateBits = 3
	stateMask = 1<<stateBits - 1
	tagBits   = 32 - stateBits
)

// holds reports whether tag word t holds the line whose key is key (see
// Cache.locate) in a valid state: when the tag bits match, the XOR leaves
// exactly the way's state bits, and a state is valid when non-zero.
func holds(t, key uint32) bool {
	x := t ^ key
	return x != 0 && x <= stateMask
}

// tagReach returns the first address that tags of a cache with the given
// set count cannot name: a line number must fit tagBits above the set
// index, and an address at or beyond the reach would alias a lower line.
func tagReach(sets int) uint64 {
	return uint64(sets) << (tagBits + mem.LineShift)
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
// A set is assoc 32-bit tag words (the line number above the set index,
// then the State).  In the LLC the set's assoc presence words follow its
// tags in the same slice: per way, the snoop filter's 32-bit bitmap of
// cores holding a private copy, meaningful only while the way is valid
// (Insert resets it).  Each set also has one rank word holding way i's LRU
// rank in nibble i.  Rank 0 is the most recently used way, which doubles
// as the way predictor; a hit moves its way to rank 0, and a miss fills
// the first invalid way, else the way ranked assoc-1.
//
// Tags name only lines below the cache's reach: Insert panics beyond it,
// and the machine refuses ops beyond its smallest cache's reach.
type Cache struct {
	assoc   int
	stride  int // words per set: assoc tags, then assoc presence words in the LLC
	setMask uint64
	setBits uint     // log2 of the set count
	lruRank uint64   // assoc-1 in every nibble: XOR finds the LRU way
	words   []uint32 // stride words per set, set-major
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
	sets := cacheSets(size, ways)
	c := &Cache{
		assoc:   ways,
		stride:  stride,
		setMask: uint64(sets - 1),
		setBits: uint(bits.TrailingZeros(uint(sets))),
		lruRank: uint64(ways-1) * nibbles,
		words:   make([]uint32, sets*stride),
		ranks:   make([]uint64, sets),
	}
	r := initialRanks(ways)
	for i := range c.ranks {
		c.ranks[i] = r
	}
	return c
}

// cacheSets returns the set count of a cache of size bytes and ways ways:
// the lines over the ways, rounded down to a power of two.
func cacheSets(size, ways int) int {
	checkCacheGeometry(size, ways)
	sets := size / (mem.LineSize * ways)
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	return p
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

// reach returns the first address the cache's tags cannot name.
func (c *Cache) reach() uint64 { return tagReach(c.Sets()) }

// Bytes returns the memory the cache's state arrays hold.
func (c *Cache) Bytes() int { return len(c.words)*4 + len(c.ranks)*8 }

// locate returns line address la's set index and its key: the line number
// above the set index, shifted clear of the state bits.  A tag word holds
// la exactly when it is the key plus a valid state.
func (c *Cache) locate(la uint64) (si int, key uint32) {
	line := la >> mem.LineShift
	return int(line & c.setMask), uint32(line>>c.setBits) << stateBits
}

// Lookup returns the way holding la, moving it to rank 0, or -1 on a miss.
// The rank-0 way is probed first, so lookups with temporal reuse cost one
// tag compare instead of a scan of every way.
func (c *Cache) Lookup(la uint64) int {
	si, key := c.locate(la)
	base := si * c.stride
	r := c.ranks[si]
	if w := base + zeroNibble(r); holds(c.words[w], key) {
		return w // already rank 0
	}
	set := c.words[base : base+c.assoc]
	for i, t := range set {
		if holds(t, key) {
			c.ranks[si] = promote(r, i)
			return base + i
		}
	}
	return -1
}

// Peek returns the way holding la without touching recency, or -1.  The
// rank-0 way is probed first.
func (c *Cache) Peek(la uint64) int {
	si, key := c.locate(la)
	base := si * c.stride
	if w := base + zeroNibble(c.ranks[si]); holds(c.words[w], key) {
		return w
	}
	set := c.words[base : base+c.assoc]
	for i, t := range set {
		if holds(t, key) {
			return base + i
		}
	}
	return -1
}

// State returns the coherence state of way w.
func (c *Cache) State(w int) State { return State(c.words[w] & stateMask) }

// SetState changes the coherence state of the valid way w.
func (c *Cache) SetState(w int, st State) {
	c.words[w] = c.words[w]&^stateMask | uint32(st)
}

// Presence returns the presence bitmap of LLC way w.
func (c *Cache) Presence(w int) uint64 { return uint64(c.words[w+c.assoc]) }

// SetPresence replaces the presence bitmap of LLC way w.  It holds 32
// cores, the most Config.validate allows.
func (c *Cache) SetPresence(w int, p uint64) { c.words[w+c.assoc] = uint32(p) }

// Insert places la with the given state, evicting the LRU way if the set is
// full.  The evicted line, if any, is exposed via Victim/HasVictim (valid
// until the next Insert).  Inserting an already-present line updates its
// state in place, keeping its presence bitmap; a new line starts with none.
// It returns the inserted way.  la must be line aligned and below the reach:
// only a simulator bug produces anything else, so such an address panics.
func (c *Cache) Insert(la uint64, st State) int {
	if la&(mem.LineSize-1) != 0 || la >= c.reach() {
		panic(fmt.Sprintf("sim: Cache.Insert of line address %#x, misaligned or beyond the tags' reach %#x", la, c.reach()))
	}
	c.HasVictim = false
	si, key := c.locate(la)
	base := si * c.stride
	set := c.words[base : base+c.assoc]
	r := c.ranks[si]
	// One pass finds a hit or the first invalid way.
	vi := -1
	for i, t := range set {
		if holds(t, key) {
			set[i] = key | uint32(st)
			c.ranks[si] = promote(r, i)
			return base + i
		}
		if vi < 0 && t&stateMask == 0 {
			vi = i
		}
	}
	presence := c.stride > c.assoc
	if vi < 0 {
		// Every way is valid: evict the one ranked assoc-1.  Its line
		// address is its tag above the set index, the inverse of locate.
		vi = zeroNibble(r ^ c.lruRank)
		v := set[vi]
		line := uint64(v>>stateBits)<<c.setBits | uint64(si)
		c.Victim = Line{Tag: line << mem.LineShift, State: State(v & stateMask)}
		if presence {
			c.Victim.Presence = uint64(c.words[base+c.assoc+vi])
		}
		c.HasVictim = true
	}
	set[vi] = key | uint32(st)
	if presence {
		c.words[base+c.assoc+vi] = 0
	}
	c.ranks[si] = promote(r, vi)
	return base + vi
}

// Invalidate removes la, returning its previous state and whether it was
// present.
func (c *Cache) Invalidate(la uint64) (State, bool) {
	si, key := c.locate(la)
	base := si * c.stride
	set := c.words[base : base+c.assoc]
	for i, t := range set {
		if holds(t, key) {
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
