package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// obsLog is a recording observer target: the entries the lane applied, in
// the order it applied them.
type obsLog []obsEvent

func (l *obsLog) record(ev obsEvent) { *l = append(*l, ev) }

// laneRig drives one engine's observer lane against an oracle: every
// recorder entry carries its schedule index in arg, and entries due by the
// drain cursor must have been applied in (when, schedule index) order.
type laneRig struct {
	e       *Engine
	log     obsLog
	pending []obsEvent // scheduled, not yet matched; in schedule order
	checked int        // log prefix already matched against the oracle
	nextID  uint64

	// cursor is where the oracle expects the lane's drain cursor: the
	// clock after RunUntil, and after an advance the old cursor unless the
	// clock left its block.  lagged
	// counts checks that found the cursor behind the clock.
	cursor Cycles
	lagged int

	// levels records which lane levels each cycle's entries went to, so the
	// test can prove it split same-cycle entries across all of them.
	levels map[Cycles]uint8
}

// Lane levels an entry can take at schedule time.
const (
	lvlNow uint8 = 1 << iota // applied immediately (when <= obsLast)
	lvlNear
	lvlCoarse
	lvlFar
)

// newLaneRig returns a rig whose engine's recorder 0 is the rig's own log.
func newLaneRig() *laneRig {
	r := &laneRig{
		e:      NewEngine(),
		levels: map[Cycles]uint8{},
	}
	r.e.recorders = []obsRecorder{&r.log}
	return r
}

// level classifies where the lane puts an entry for cycle when right now.
func (r *laneRig) level(when Cycles) uint8 {
	e := r.e
	switch {
	case when <= e.obsLast:
		return lvlNow
	case when-e.obsLast >= obsHorizon:
		return lvlFar
	case when>>obsNearBits == e.obsLast>>obsNearBits:
		return lvlNear
	}
	return lvlCoarse
}

// obs schedules one recorder entry at cycle when.
func (r *laneRig) obs(when Cycles) {
	r.levels[when] |= r.level(when)
	id := r.nextID
	r.nextID++
	r.pending = append(r.pending, obsEvent{when: when, arg: id})
	r.e.obsAt(when, evRecord, 0, 0, id)
}

// runUntil runs the engine to t; the lane drains to the clock.
func (r *laneRig) runUntil(t Cycles) {
	r.e.RunUntil(t)
	r.cursor = r.e.Now()
}

// advance moves the clock to t the way the sweep does: the lane drains
// only when the clock leaves the cursor's block, so entries between the
// cursor and the clock stay pending.
func (r *laneRig) advance(t Cycles) {
	r.e.advance(t)
	if t^r.cursor >= obsNearSlots {
		r.cursor = t
	}
}

// check matches the entries applied since the last check against the
// oracle: exactly the entries due by the expected drain cursor, in (when,
// schedule order).
func (r *laneRig) check(t *testing.T, label string, op int) {
	t.Helper()
	now := r.e.Now()
	if r.e.obsLast != r.cursor {
		t.Fatalf("%s op %d (now %d): drain cursor at %d, oracle expects %d",
			label, op, now, r.e.obsLast, r.cursor)
	}
	if r.cursor < now {
		r.lagged++
	}
	var due []obsEvent
	rest := r.pending[:0]
	for _, ev := range r.pending {
		if ev.when <= r.cursor {
			due = append(due, ev)
		} else {
			rest = append(rest, ev)
		}
	}
	r.pending = rest
	slices.SortStableFunc(due, func(a, b obsEvent) int { return cmp.Compare(a.when, b.when) })
	got := r.log[r.checked:]
	if len(got) != len(due) {
		t.Fatalf("%s op %d (now %d): lane applied %d new entries, oracle has %d due",
			label, op, now, len(got), len(due))
	}
	for i := range due {
		if got[i].when != due[i].when || got[i].arg != due[i].arg {
			t.Fatalf("%s op %d (now %d): applied #%d is (when %d, sched %d), oracle wants (when %d, sched %d)",
				label, op, now, r.checked+i, got[i].when, got[i].arg, due[i].when, due[i].arg)
		}
	}
	r.checked += len(due)
}

// fork copies the rig's engine into dst the way a checkpoint fork does.
// The entries copy verbatim: recorder 0 of dst's engine is dst's own log.
func (r *laneRig) fork(dst *laneRig) {
	dst.log = slices.Clone(r.log)
	dst.pending = slices.Clone(r.pending)
	dst.checked = r.checked
	dst.nextID = r.nextID
	dst.cursor = r.cursor
	copyEngineState(dst.e, r.e)
}

// occupied reports whether the lane holds entries on all three levels.
func (r *laneRig) occupied() bool {
	near := false
	for _, w := range r.e.obsNearOcc {
		near = near || w != 0
	}
	return near && r.e.obsCoarseOcc != 0 && len(r.e.obsFar) > 0
}

// hotPeriod and hotResidues define recurring target cycles: scheduling
// "hot cycle k" from ever closer clocks puts entries for one cycle on the
// far heap, then a coarse bucket, then a near slot, then applies them
// immediately.  The residues sit on and beside block and horizon edges.
const hotPeriod = 144 << obsNearBits

var hotResidues = []Cycles{0, obsNearMask, obsNearSlots, 4*obsNearSlots - 1, 40_000, obsHorizon - 1, obsHorizon, 100_001}

// target resolves a distance class to an absolute cycle at the rig's clock.
func (r *laneRig) target(class int, x uint64) Cycles {
	now := r.e.Now()
	switch class {
	case 0:
		return now // at the drain cursor
	case 1:
		return now + 1 + Cycles(x%64)
	case 2:
		return now | obsNearMask // the cursor block's last cycle
	case 3:
		return (now | obsNearMask) + 1 // the next block's first cycle
	case 4: // a later block's first or last cycle, out to one past the horizon
		b := now>>obsNearBits + 1 + Cycles(x%(obsCoarseSlots+1))
		return b<<obsNearBits | Cycles(x>>8&1)*obsNearMask
	case 5:
		return now + obsHorizon - 1 // the wheel's last cycle
	case 6:
		return now + obsHorizon // the far heap's first
	case 7:
		return now + obsNearSlots + Cycles(x%(obsHorizon-obsNearSlots))
	case 8:
		return now + obsHorizon + Cycles(x%200_000)
	}
	w := now - now%hotPeriod + hotResidues[x%uint64(len(hotResidues))]
	if w < now {
		w += hotPeriod
	}
	return w
}

// approach schedules entries for one cycle w from ever closer clocks:
// beyond the horizon, at its last cycle, from a coarse distance, from w's
// own block, and at w itself, so w's entries span every level of the lane.
// w starts its block, ends it, or lies inside it, by x.
func (r *laneRig) approach(x uint64) {
	w := r.e.Now() + obsHorizon + Cycles(x%4096)
	switch x >> 12 & 3 {
	case 0:
		w &^= obsNearMask
	case 1:
		w |= obsNearMask
	}
	r.obs(w)
	r.runUntil(w - obsHorizon + 1)
	r.obs(w)
	r.runUntil(w - obsNearSlots - Cycles(x>>16%obsNearSlots))
	r.obs(w)
	if w&obsNearMask != 0 {
		r.runUntil(w &^ obsNearMask)
	} else {
		r.runUntil(w - 1) // the previous block's end: w is one cycle ahead, in the next block
	}
	r.obs(w)
	r.runUntil(w)
	r.obs(w)
}

// clockTarget resolves a clock-move class to an absolute cycle: no move,
// a few cycles, the block's last cycle, the next block's first, a few
// blocks on, or a jump over many empty blocks.
func clockTarget(now Cycles, class int, x uint64) Cycles {
	return [...]Cycles{
		now,
		now + 1 + Cycles(x%50),
		now | obsNearMask,
		(now | obsNearMask) + 1,
		now + 1000 + Cycles(x%8000),
		now + 100_000 + Cycles(x%200_000),
	}[class]
}

// laneScript generates a seeded sequence of lane operations.  Ops resolve
// their cycles against the clock when they run, so a fork replays a
// suffix exactly as the original runs it.
func laneScript(rng *rand.Rand, n int) []func(r *laneRig) {
	ops := make([]func(r *laneRig), 0, n)
	for len(ops) < n {
		x := rng.Uint64()
		switch p := rng.Intn(88); {
		case p < 45: // one entry
			class := rng.Intn(10)
			ops = append(ops, func(r *laneRig) { r.obs(r.target(class, x)) })
		case p < 55: // a same-cycle burst
			class, k := rng.Intn(10), 2+rng.Intn(4)
			ops = append(ops, func(r *laneRig) {
				w := r.target(class, x)
				for i := 0; i < k; i++ {
					r.obs(w)
				}
			})
		case p < 57: // approach one cycle level by level
			ops = append(ops, func(r *laneRig) { r.approach(x) })
		case p < 72: // RunUntil, from no advance to a jump over many empty blocks
			class := rng.Intn(6)
			ops = append(ops, func(r *laneRig) { r.runUntil(clockTarget(r.e.Now(), class, x)) })
		default: // advance the clock as the sweep does, over the same targets
			class := rng.Intn(6)
			ops = append(ops, func(r *laneRig) { r.advance(clockTarget(r.e.Now(), class, x)) })
		}
	}
	return ops
}

// TestObserverLaneDifferential runs seeded random schedules through the
// observer lane — entries at the cursor, in its block, on block edges, in
// coarse buckets, at the horizon edge and beyond it, interleaved with
// RunUntil and the sweep's clock advance (which drains only when the clock
// leaves the cursor's block) — and checks every applied entry against a
// (when, schedule order) oracle.  Midway each run forks the engine with
// entries on all three levels, once into a fresh engine and once over a
// used one (the RestoreInto case), and both forks must apply exactly the
// original's sequence.
func TestObserverLaneDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := laneScript(rng, 4000)

		orig := newLaneRig()
		// The used engine carries stale entries on every level that the
		// fork must overwrite, not merge.
		used := newLaneRig()
		for i, op := range laneScript(rand.New(rand.NewSource(-seed)), 2000) {
			op(used)
			used.check(t, "used", i)
			if i >= 300 && used.occupied() {
				break
			}
		}
		if !used.occupied() {
			t.Fatalf("seed %d: the used engine holds no entries on some level", seed)
		}
		rigs := []*laneRig{orig}
		names := []string{"original", "fresh fork", "used fork"}
		forked := false
		for i, op := range ops {
			for k, r := range rigs {
				op(r)
				r.check(t, names[k], i)
			}
			if !forked && i >= len(ops)/2 && orig.occupied() {
				fresh := newLaneRig()
				orig.fork(fresh)
				orig.fork(used)
				rigs = append(rigs, fresh, used)
				forked = true
			}
		}
		if !forked {
			t.Fatalf("seed %d: the lane never held entries on all three levels", seed)
		}
		for _, r := range rigs {
			r.runUntil(r.e.Now() + 2*hotPeriod)
			r.check(t, "final drain", len(ops))
			if len(r.pending) != 0 || r.e.obsLen != 0 || len(r.e.obsFar) != 0 {
				t.Fatalf("seed %d: lane not empty after the final drain", seed)
			}
		}
		same := func(a, b obsEvent) bool { return a.when == b.when && a.arg == b.arg }
		for k, r := range rigs[1:] {
			if !slices.EqualFunc(r.log, orig.log, same) {
				t.Fatalf("seed %d: %s applied a different sequence than the original", seed, names[k+1])
			}
		}
		split := 0
		for _, l := range orig.levels {
			if l&(lvlFar|lvlCoarse|lvlNear) == lvlFar|lvlCoarse|lvlNear {
				split++
			}
		}
		if split == 0 {
			t.Fatalf("seed %d: no cycle had entries on the far, coarse and near levels", seed)
		}
		if orig.lagged == 0 {
			t.Fatalf("seed %d: the drain cursor never trailed the clock", seed)
		}
	}
}
