package sim

import (
	"math/rand"
	"slices"
	"testing"

	"pathfinder/internal/pmu"
)

// torTrackers is the reference TOR: one pmu.OccTracker per scenario of the
// five families, fed one Update(+1) and one Release per scenario a
// residency enters, on a bank of its own.
type torTrackers struct {
	bank                           *pmu.Bank
	ia, drd, drdPref, rfo, rfoPref []*pmu.OccTracker
}

func newTORTrackers() *torTrackers {
	b := pmu.NewBank(pmu.Default, "cha0")
	fam := func(occ, ne pmu.Family) []*pmu.OccTracker {
		trs := make([]*pmu.OccTracker, len(occ))
		for i := range occ {
			trs[i] = pmu.NewOccTracker(b, occ[i], ne[i], -1, 0)
		}
		return trs
	}
	return &torTrackers{
		bank:    b,
		ia:      fam(pmu.TOROccupancyIA, pmu.TORCyclesNEIA),
		drd:     fam(pmu.TOROccupancyIADRd, pmu.TORCyclesNEIADRd),
		drdPref: fam(pmu.TOROccupancyIADRdPref, pmu.TORCyclesNEIADRdPref),
		rfo:     fam(pmu.TOROccupancyIARFO, pmu.TORCyclesNEIARFO),
		rfoPref: fam(pmu.TOROccupancyIARFOPref, pmu.TORCyclesNEIARFOPref),
	}
}

func (r *torTrackers) residency(enter, leave Cycles, class ReqClass, loc ServeLoc) {
	trs, ins, scns := r.drd, pmu.TORInsertsIADRd, drdScnTable[loc]
	switch class {
	case ClassL1PF, ClassL2PFDRd:
		trs, ins = r.drdPref, pmu.TORInsertsIADRdPref
	case ClassRFO:
		trs, ins, scns = r.rfo, pmu.TORInsertsIARFO, rfoScnTable[loc]
	case ClassL2PFRFO:
		trs, ins, scns = r.rfoPref, pmu.TORInsertsIARFOPref, rfoScnTable[loc]
	}
	for _, scn := range scns {
		r.bank.Inc(ins[scn])
		trs[scn].Update(enter, +1)
		trs[scn].Release(leave)
	}
	for _, scn := range iaScnTable[loc] {
		r.bank.Inc(pmu.TORInsertsIA[scn])
		r.ia[scn].Update(enter, +1)
		r.ia[scn].Release(leave)
	}
}

func (r *torTrackers) sync(now Cycles) {
	for _, f := range [][]*pmu.OccTracker{r.ia, r.drd, r.drdPref, r.rfo, r.rfoPref} {
		for _, tr := range f {
			tr.Advance(now)
		}
	}
}

// TestTORIntegratorsMatchTrackers runs seeded random TOR residencies —
// nondecreasing enters, leaves in any order, same-cycle ties and
// zero-length residencies — into one slice's integrators and into 34
// reference trackers, with Syncs at random cycles.  Every insert,
// occupancy and not-empty counter must match at every Sync.
func TestTORIntegratorsMatchTrackers(t *testing.T) {
	if torInts != 34 {
		t.Fatalf("%d TOR integrators, want 34", torInts)
	}
	classes := []ReqClass{ClassDRd, ClassRFO, ClassL1PF, ClassL2PFDRd, ClassL2PFRFO, ClassSWPF}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newCHASlice(0, 0, 64*1024, 4, pmu.NewBank(pmu.Default, "cha0"))
		ref := newTORTrackers()
		now, syncs, entered := Cycles(0), 0, 0
		for op := 0; op < 20_000; op++ {
			switch p := rng.Intn(100); {
			case p < 30: // the clock moves; ties stay at the same cycle
				now += Cycles(rng.Intn(200))
			case p < 95:
				class := classes[rng.Intn(len(classes))]
				loc := SrvLLC + ServeLoc(rng.Intn(int(srvCount-SrvLLC)))
				leave := now
				if rng.Intn(8) != 0 { // one in eight is zero-length
					leave += Cycles(rng.Intn(3000))
				}
				s.torPulse(now, leave, torGroupOf(class, loc))
				ref.residency(now, leave, class, loc)
				entered++
			default:
				at := now + Cycles(rng.Intn(2))
				s.sync(at)
				ref.sync(at)
				now = at
				syncs++
				if got, want := s.bank.Values(), ref.bank.Values(); !slices.Equal(got, want) {
					for e := range got {
						if got[e] != want[e] {
							t.Fatalf("seed %d, sync at %d: %s = %d, reference %d",
								seed, at, pmu.Default.Name(pmu.Event(e)), got[e], want[e])
						}
					}
				}
			}
		}
		now += 4000 // past every leave: the TOR must drain empty
		s.sync(now)
		ref.sync(now)
		if !slices.Equal(s.bank.Values(), ref.bank.Values()) {
			t.Fatalf("seed %d: counters differ after the final drain", seed)
		}
		for i, c := range s.torCur {
			if c != 0 || len(s.torLeave) != 0 {
				t.Fatalf("seed %d: integrator %d holds %d after the final drain (%d leaves pending)",
					seed, i, c, len(s.torLeave))
			}
		}
		if syncs < 100 || entered < 10_000 {
			t.Fatalf("seed %d: only %d syncs and %d residencies", seed, syncs, entered)
		}
		occ := 0
		for _, ctr := range torCtr {
			if s.bank.Read(ctr.occ) != 0 && s.bank.Read(ctr.ne) != 0 {
				occ++
			}
		}
		if occ != torInts {
			t.Fatalf("seed %d: only %d of %d integrators saw occupancy", seed, occ, torInts)
		}
	}
}
