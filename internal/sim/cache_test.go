package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"pathfinder/internal/mem"
)

// stampCache is the reference replacement policy: per way the full line
// address with the state in its low bits, and a 64-bit stamp bumped on
// every touch; a miss fills the first invalid way, else the valid way with
// the lowest stamp.  Way indices follow Cache's layout (set*stride + way),
// so returned ways compare directly.
type stampCache struct {
	assoc, stride int
	setMask       uint64
	tags, stamps  []uint64 // set*assoc + way
	presence      []uint64 // set*assoc + way; nil for a private cache
	clock         uint64

	victim    Line
	hasVictim bool
}

// refState selects the state bits of a reference tag: the line offset bits.
const refState = mem.LineSize - 1

func newStampCache(c *Cache) *stampCache {
	n := c.Sets() * c.assoc
	r := &stampCache{assoc: c.assoc, stride: c.stride, setMask: c.setMask,
		tags: make([]uint64, n), stamps: make([]uint64, n)}
	if c.stride > c.assoc {
		r.presence = make([]uint64, n)
	}
	return r
}

// find returns la's set index and its way, or -1.
func (r *stampCache) find(la uint64) (int, int) {
	si := int((la >> mem.LineShift) & r.setMask)
	for i := 0; i < r.assoc; i++ {
		if t := r.tags[si*r.assoc+i]; t&refState != 0 && t&^refState == la {
			return si, i
		}
	}
	return si, -1
}

// at maps a Cache way index to the reference arrays.
func (r *stampCache) at(w int) int { return w/r.stride*r.assoc + w%r.stride }

func (r *stampCache) lookup(la uint64, touch bool) int {
	si, i := r.find(la)
	if i < 0 {
		return -1
	}
	if touch {
		r.clock++
		r.stamps[si*r.assoc+i] = r.clock
	}
	return si*r.stride + i
}

func (r *stampCache) insert(la uint64, st State) int {
	r.hasVictim = false
	si, hit := r.find(la)
	base := si * r.assoc
	r.clock++
	if hit >= 0 {
		r.tags[base+hit] = la | uint64(st)
		r.stamps[base+hit] = r.clock
		return si*r.stride + hit
	}
	inv, lru := -1, -1
	for i := 0; i < r.assoc; i++ {
		if r.tags[base+i]&refState == 0 {
			if inv < 0 {
				inv = i
			}
		} else if lru < 0 || r.stamps[base+i] < r.stamps[base+lru] {
			lru = i
		}
	}
	vi := inv
	if vi < 0 {
		vi = lru
		v := r.tags[base+vi]
		r.victim = Line{Tag: v &^ refState, State: State(v & refState)}
		if r.presence != nil {
			r.victim.Presence = r.presence[base+vi]
		}
		r.hasVictim = true
	}
	r.tags[base+vi] = la | uint64(st)
	r.stamps[base+vi] = r.clock
	if r.presence != nil {
		r.presence[base+vi] = 0
	}
	return si*r.stride + vi
}

func (r *stampCache) invalidate(la uint64) (State, bool) {
	si, i := r.find(la)
	if i < 0 {
		return Invalid, false
	}
	w := si*r.assoc + i
	st := State(r.tags[w] & refState)
	r.tags[w], r.stamps[w] = 0, 0
	return st, true
}

func (r *stampCache) occupied() int {
	n := 0
	for _, t := range r.tags {
		if t&refState != 0 {
			n++
		}
	}
	return n
}

// TestCacheRankMatchesStampLRU drives random Lookup, Peek, Insert,
// Invalidate, SetState and SetPresence calls into Cache and into the
// stamp-LRU reference, at 1, 2, 4, 12 and 16 ways, on private caches and
// on the LLC.  Every returned way, every victim (with its presence) and the
// occupancy must match: the rank word must pick exactly the victim the
// lowest stamp picks, and the victim's tag, rebuilt from its set and tag
// word, must be the full address the reference stored when it was
// inserted.
func TestCacheRankMatchesStampLRU(t *testing.T) {
	const sets = 4
	for _, ways := range []int{1, 2, 4, 12, 16} {
		for _, llc := range []bool{false, true} {
			name := fmt.Sprintf("%d-way private", ways)
			c := NewCache(sets*ways*mem.LineSize, ways)
			if llc {
				name = fmt.Sprintf("%d-way LLC", ways)
				c = newLLC(sets*ways*mem.LineSize, ways)
			}
			t.Run(name, func(t *testing.T) { driveCacheDifferential(t, c, int64(ways)) })
		}
	}
}

func driveCacheDifferential(t *testing.T, c *Cache, seed int64) {
	ref := newStampCache(c)
	rng := rand.New(rand.NewSource(seed))
	// Three clusters of as many lines as the cache holds, so sets
	// overflow: at address 0, at half the tags' reach (the top tag bit
	// set) and just below the reach (every tag bit set).  The clusters
	// share set indices, so one set holds tags that differ only in their
	// top bits.
	lines := uint64(c.Sets() * c.assoc)
	reach := c.reach()
	bases := [...]uint64{0, reach / 2, reach - lines*mem.LineSize}
	line := func() uint64 { return bases[rng.Intn(len(bases))] + rng.Uint64()%lines*mem.LineSize }
	states := []State{Shared, Exclusive, Modified, Forward}
	victims := 0
	for op := 0; op < 20_000; op++ {
		la := line()
		switch p := rng.Intn(100); {
		case p < 35:
			if got, want := c.Lookup(la), ref.lookup(la, true); got != want {
				t.Fatalf("op %d: Lookup(%#x) = %d, reference %d", op, la, got, want)
			}
		case p < 45:
			if got, want := c.Peek(la), ref.lookup(la, false); got != want {
				t.Fatalf("op %d: Peek(%#x) = %d, reference %d", op, la, got, want)
			}
		case p < 80:
			st := states[rng.Intn(len(states))]
			got, want := c.Insert(la, st), ref.insert(la, st)
			if got != want {
				t.Fatalf("op %d: Insert(%#x) = way %d, reference %d", op, la, got, want)
			}
			if c.HasVictim != ref.hasVictim || (ref.hasVictim && c.Victim != ref.victim) {
				t.Fatalf("op %d: Insert(%#x) victim %+v (%v), reference %+v (%v)",
					op, la, c.Victim, c.HasVictim, ref.victim, ref.hasVictim)
			}
			if ref.hasVictim {
				victims++
			}
		case p < 88:
			gs, gok := c.Invalidate(la)
			ws, wok := ref.invalidate(la)
			if gs != ws || gok != wok {
				t.Fatalf("op %d: Invalidate(%#x) = %v %v, reference %v %v", op, la, gs, gok, ws, wok)
			}
		case p < 94:
			// SetState on a resident way, Invalid included.
			w := c.Peek(la)
			if w < 0 {
				continue
			}
			st := State(rng.Intn(int(Forward) + 1))
			c.SetState(w, st)
			i := ref.at(w)
			ref.tags[i] = ref.tags[i]&^refState | uint64(st)
		default:
			w := c.Peek(la)
			if ref.presence == nil || w < 0 {
				continue
			}
			p := uint64(rng.Uint32()) // a presence word holds 32 cores
			c.SetPresence(w, p)
			ref.presence[ref.at(w)] = p
			if got := c.Presence(w); got != p {
				t.Fatalf("op %d: Presence(%d) = %#x after SetPresence(%#x)", op, w, got, p)
			}
		}
		if got, want := c.Occupied(), ref.occupied(); got != want {
			t.Fatalf("op %d: Occupied = %d, reference %d", op, got, want)
		}
	}
	if victims < 1000 {
		t.Fatalf("only %d evictions: the sets never filled", victims)
	}
}
