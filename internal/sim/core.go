package sim

import (
	"pathfinder/internal/pmu"
	"pathfinder/internal/workload"
)

// lfbEntry is one line-fill-buffer slot: an in-flight demand miss,
// prefetch, or RFO, held from allocation until its data returns.
type lfbEntry struct {
	line      uint64
	done      Cycles
	times     reqTimes
	class     ReqClass
	missedL2  bool
	missedLLC bool
}

// sbEntry is one store-buffer slot, held until the store commits to L1D.
type sbEntry struct {
	line uint64
	done Cycles
}

// Core models one CPU core: its private L1D and L2, line fill buffer,
// store buffer, hardware prefetchers, and the per-core PMU bank.
type Core struct {
	id      int
	cluster int
	bank    *pmu.Bank

	// l1 and l2 are nil until the core first runs (see buildCaches).
	l1, l2 *Cache

	lfb    []lfbEntry
	lfbOcc *pmu.OccTracker

	sb         []sbEntry
	sbNextFree Cycles
	sbLastDone Cycles // commit time of the previous store (TSO in-order drain)

	// Earliest completion time in each pending list (max when empty).
	// Pruning is skipped entirely while now is below the watermark, so
	// hit-dominated runs stop rescanning unchanged lists every op.
	lfbMinDone Cycles
	sbMinDone  Cycles
	pfMinDone  Cycles

	fbFullUntil Cycles // end of the last counted LFB-full wait interval

	l1pf, l2pf *prefetcher
	// pfDone holds the completion cycles of in-flight hardware/software
	// prefetches.  The in-flight count is derived by pruning completed
	// entries at read time, which replaces a per-prefetch retirement
	// event through the engine.
	pfDone    []Cycles
	pfScratch []uint64

	// Offcore-outstanding trackers (the core PMU's latency events).
	oroData   *pmu.OccTracker
	oroDemand *pmu.OccTracker
	oroL3Miss *pmu.OccTracker
	rfoBusy   *pmu.BusyTracker

	// Outstanding-demand-miss cycle trackers.
	missL1Busy *pmu.BusyTracker
	missL2Busy *pmu.BusyTracker

	gen     workload.Generator
	running bool

	// op is the scratch operation filled by gen.Next.  It lives on the
	// core, not the stepOne stack: a stack-local would escape through the
	// Generator interface call and cost one heap object per simulated op.
	op workload.Op

	// The sweep's core-step mirror (see sweep.go): instead of
	// round-tripping through the engine's step queue, each core's next
	// step is held here as (cycle, engine-seq), ordered exactly as the
	// queue would order it.
	stepPending bool
	stepAt      Cycles
	stepSeq     uint64
}

func newCore(id, cluster int, cfg *Config, bank *pmu.Bank) *Core {
	c := &Core{
		id:      id,
		cluster: cluster,
		bank:    bank,
		l1pf:    newPrefetcher(cfg.L1PFDegree, cfg.L1PFDistance, cfg.PFTrainHits),
		l2pf:    newPrefetcher(cfg.L2PFDegree, cfg.L2PFDistance, cfg.PFTrainHits),

		lfbOcc: pmu.NewOccTracker(bank, pmu.L1DPendMissPending,
			pmu.L1DPendMissCycles, -1, cfg.LFBEntries),
		oroData: pmu.NewOccTracker(bank, pmu.ORODataRd,
			pmu.OROCyclesDataRd, -1, 0),
		oroDemand: pmu.NewOccTracker(bank, pmu.ORODemandDataRd,
			pmu.OROCyclesDemandDataRd, -1, 0),
		oroL3Miss: pmu.NewOccTracker(bank, pmu.OROL3MissDemandDataRd, -1, -1, 0),
	}
	c.rfoBusy = pmu.NewBusyTracker(bank, pmu.OROCyclesDemandRFO)
	c.missL1Busy = pmu.NewBusyTracker(bank, pmu.CyclesL1DMiss)
	c.missL2Busy = pmu.NewBusyTracker(bank, pmu.CyclesL2Miss)
	return c
}

// buildCaches allocates the core's L1D and L2.  Machine.Attach calls it
// when a core first gets a workload: snoops, back-invalidations and victim
// writebacks reach a core only through an LLC presence bit, which only a
// running core sets, so a core that never runs needs no private caches.
func (c *Core) buildCaches(cfg *Config) {
	c.l1 = NewCache(cfg.L1DSize, cfg.L1DWays)
	c.l2 = NewCache(cfg.L2Size, cfg.L2Ways)
}

// ID returns the core number.
func (c *Core) ID() int { return c.id }

// Bank returns the core's PMU bank.
func (c *Core) Bank() *pmu.Bank { return c.bank }

// Running reports whether a workload is attached and not yet exhausted.
func (c *Core) Running() bool { return c.running }

// pfLive returns the number of prefetches still in flight at cycle now,
// pruning completed entries.  A prefetch whose data returned exactly at
// now is no longer in flight — matching the retirement event the engine
// used to dispatch ahead of any same-cycle core step.
func (c *Core) pfLive(now Cycles) int {
	if now < c.pfMinDone {
		return len(c.pfDone)
	}
	out := c.pfDone[:0]
	min := ^Cycles(0)
	for _, d := range c.pfDone {
		if d > now {
			if d < min {
				min = d
			}
			out = append(out, d)
		}
	}
	c.pfDone = out
	c.pfMinDone = min
	return len(out)
}

// findLFB returns the pending LFB entry covering line la, pruning entries
// completed by cycle now.
func (c *Core) findLFB(la uint64, now Cycles) *lfbEntry {
	c.pruneLFB(now)
	for i := range c.lfb {
		if c.lfb[i].line == la {
			return &c.lfb[i]
		}
	}
	return nil
}

// pruneLFB drops entries whose data has returned by now.
func (c *Core) pruneLFB(now Cycles) {
	if now < c.lfbMinDone {
		return
	}
	out := c.lfb[:0]
	min := ^Cycles(0)
	for _, e := range c.lfb {
		if e.done > now {
			if e.done < min {
				min = e.done
			}
			out = append(out, e)
		}
	}
	c.lfb = out
	c.lfbMinDone = min
}

// allocLFB finds a free LFB slot at or after t, returning the time the
// slot becomes available and, when a wait occurred, a copy of the entry
// waited on (for stall attribution; by value — a returned pointer into
// c.lfb would force a heap copy per full-buffer wait, the only simulator
// hot-path allocation).  FB-full wait cycles are counted here.
func (c *Core) allocLFB(t Cycles, cap int) (Cycles, lfbEntry, bool) {
	c.pruneLFB(t)
	if len(c.lfb) < cap {
		return t, lfbEntry{}, false
	}
	// Wait for the earliest completion.
	ei := 0
	for i := range c.lfb {
		if c.lfb[i].done < c.lfb[ei].done {
			ei = i
		}
	}
	waited := c.lfb[ei]
	w := waited.done
	// Count full-wait cycles without double-counting overlapping waiters:
	// the counter is "cycles a demand request waited", a per-cycle core
	// condition.
	from := t
	if c.fbFullUntil > from {
		from = c.fbFullUntil
	}
	if w > from {
		c.bank.Add(pmu.L1DPendMissFBFull, w-from)
		c.fbFullUntil = w
	}
	c.pruneLFB(w)
	return w, waited, true
}

// demandLoadsOutstanding reports whether any LFB entry is a demand load —
// the condition separating resource_stalls.sb from
// exe_activity.bound_on_stores.
func (c *Core) demandLoadsOutstanding() bool {
	for i := range c.lfb {
		if c.lfb[i].class == ClassDRd {
			return true
		}
	}
	return false
}

// pruneSB drops completed store-buffer entries.
func (c *Core) pruneSB(now Cycles) {
	if now < c.sbMinDone {
		return
	}
	out := c.sb[:0]
	min := ^Cycles(0)
	for _, e := range c.sb {
		if e.done > now {
			if e.done < min {
				min = e.done
			}
			out = append(out, e)
		}
	}
	c.sb = out
	c.sbMinDone = min
}

// sync flushes the core's trackers so a snapshot observes integrals up to
// now.
func (c *Core) sync(now Cycles) {
	c.lfbOcc.Advance(now)
	c.oroData.Advance(now)
	c.oroDemand.Advance(now)
	c.oroL3Miss.Advance(now)
	c.rfoBusy.Flush(now)
	c.missL1Busy.Flush(now)
	c.missL2Busy.Flush(now)
}

// accessResult carries the outcome of a memory access below the L1D.
type accessResult struct {
	done      Cycles
	loc       ServeLoc
	times     reqTimes
	dev       devTimes
	missedL2  bool
	missedLLC bool
}

// attributeLoadStall charges a blocked interval [b0, b1) of the core to the
// hierarchical stall counters, based on how deep the blocking request went:
// the whole interval stalls on the L1D miss; the part after the request
// passed L2 (or the LLC) also stalls on the L2 (L3) miss, yielding the
// memory_activity/cycle_activity semantics of Table 1.
func (c *Core) attributeLoadStall(b0, b1 Cycles, res *accessResult) {
	if b1 <= b0 {
		return
	}
	c.bank.Add(pmu.StallsL1DMiss, b1-b0)
	if res.missedL2 {
		off := res.times.torEnter
		if off < b0 {
			off = b0
		}
		if b1 > off {
			c.bank.Add(pmu.StallsL2Miss, b1-off)
		}
	}
	if res.missedLLC {
		off := res.times.memEnter
		if off < b0 {
			off = b0
		}
		if b1 > off {
			c.bank.Add(pmu.StallsL3Miss, b1-off)
		}
	}
}
