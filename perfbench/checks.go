package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"pathfinder/internal/core"
	"pathfinder/internal/pmu"
	"pathfinder/internal/sim"
)

// conservation re-expresses the chaos monitors' flow and capacity checks
// over the public Snapshot accessors, for one snapshot window of device 0.
// A window's queue residue (inserts minus completions) is the change in
// occupancy across it, so it lies within ±capacity.  It returns "" when
// every check holds.
func conservation(s *core.Snapshot, cfg sim.Config) string {
	queues := []struct {
		name      string
		ins, done pmu.Event
		cap       int
	}{
		{"device RPQ", pmu.CXLDevRPQInserts, pmu.CXLDevCASRd, cfg.CXLRPQEntries},
		{"device WPQ", pmu.CXLDevWPQInserts, pmu.CXLDevCASWr, cfg.CXLWPQEntries},
	}
	for _, q := range queues {
		res := s.CXL(0, q.ins) - s.CXL(0, q.done)
		if res < -float64(q.cap) || res > float64(q.cap) {
			return fmt.Sprintf("%s residue %.0f outside ±%d", q.name, res, q.cap)
		}
	}
	if crc, retries := s.CXL(0, pmu.CXLLinkCRCErrors), s.CXL(0, pmu.CXLLinkRetries); crc != retries {
		return fmt.Sprintf("CRC errors %.0f != link retries %.0f", crc, retries)
	}
	clocks := s.Cycles()
	if clocks == 0 {
		return "empty snapshot window"
	}
	occ := []struct {
		name string
		e    pmu.Event
		cap  int
	}{
		{"device RPQ", pmu.CXLDevRPQOccupancy, cfg.CXLRPQEntries},
		{"device WPQ", pmu.CXLDevWPQOccupancy, cfg.CXLWPQEntries},
		{"pack buf req", pmu.CXLRxPackBufOccReq, cfg.PackBufEntries},
		{"pack buf data", pmu.CXLRxPackBufOccData, cfg.PackBufEntries},
	}
	const slack = 1e-6
	for _, o := range occ {
		if avg := s.CXL(0, o.e) / clocks; avg > float64(o.cap)+slack {
			return fmt.Sprintf("%s mean occupancy %.3f exceeds capacity %d", o.name, avg, o.cap)
		}
	}
	return ""
}

// finiteReport reports whether an analysis result holds only finite values.
func finiteReport(qr *core.QueueReport, bd *core.StallBreakdown) bool {
	for pt := range qr.Q {
		if !finite(qr.Q[pt][:]...) || !finite(bd.Stall[pt][:]...) {
			return false
		}
	}
	return true
}

// model accumulates the simulated (modelled) statistics of a phase from its
// snapshots.  They depend only on the simulation, so a change meant only to
// speed the simulator up must leave every one of them identical.
type model struct {
	cycles                       float64
	inst, clk                    float64
	l1Hit, l1Miss, l3Hit, l3Miss float64
	sbStall                      float64
	torOcc, torIns               float64
	casRd, casWr                 float64
	flexOcc, dimmOcc             float64
}

// add folds one snapshot in; active is a plan over the cores that run work.
func (md *model) add(s *core.Snapshot, active *core.Plan) {
	md.cycles += s.Cycles()
	md.inst += active.CoreSum(s, pmu.InstRetiredAny)
	md.clk += active.CoreSum(s, pmu.CPUClkUnhalted)
	md.l1Hit += active.CoreSum(s, pmu.MemLoadL1Hit)
	md.l1Miss += active.CoreSum(s, pmu.MemLoadL1Miss)
	md.l3Hit += active.CoreSum(s, pmu.MemLoadL3Hit)
	md.l3Miss += active.CoreSum(s, pmu.MemLoadL3Miss)
	md.sbStall += active.CoreSum(s, pmu.ResourceStallsSB)
	md.torOcc += active.CHASum(s, pmu.TOROccupancyIADRd[pmu.ScnMissCXL])
	md.torIns += active.CHASum(s, pmu.TORInsertsIADRd[pmu.ScnMissCXL])
	md.casRd += active.CXL(s, pmu.CXLDevCASRd)
	md.casWr += active.CXL(s, pmu.CXLDevCASWr)
	var q [core.CompCount]float64
	if active.MeasuredQueuesInto(s, &q) {
		md.flexOcc += q[core.CompFlexBusMC] * s.Cycles()
		md.dimmOcc += q[core.CompCXLDIMM] * s.Cycles()
	}
}

// report writes the modelled per-layer metrics.
func (md *model) report(ghz float64, out map[string]float64) {
	out["sim.ipc"] = ratio(md.inst, md.clk)
	out["sim.l1d_hit_pct"] = 100 * ratio(md.l1Hit, md.l1Hit+md.l1Miss)
	out["sim.llc_hit_pct"] = 100 * ratio(md.l3Hit, md.l3Hit+md.l3Miss)
	out["sim.sb_stall_pct"] = 100 * ratio(md.sbStall, md.clk)
	out["cxl.read_lat_ns"] = ratio(md.torOcc, md.torIns) / ghz
	out["cxl.gbps"] = ratio((md.casRd+md.casWr)*64, md.cycles/ghz)
	out["cxl.flexbus_queue"] = ratio(md.flexOcc, md.cycles)
	out["cxl.dimm_queue"] = ratio(md.dimmOcc, md.cycles)
}

// digest hashes the PMU deltas of every measured snapshot (or, on
// fig-suite, every experiment's printed result), in order.  Two runs of one
// seed that simulated the same thing print the same digest.
type digest struct{ parts [][sha256.Size]byte }

func newDigest() *digest { return &digest{} }

func (d *digest) add(s *core.Snapshot) {
	d.parts = append(d.parts, sha256.Sum256(core.EncodeDigest(s)))
}

func (d *digest) addText(s string) { d.parts = append(d.parts, sha256.Sum256([]byte(s))) }

func (d *digest) hex() string { return d.prefixHex(len(d.parts)) }

// prefixHex digests only the first n parts.
func (d *digest) prefixHex(n int) string {
	h := sha256.New()
	for _, p := range d.parts[:min(n, len(d.parts))] {
		h.Write(p[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}
