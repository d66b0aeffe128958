package chaos

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"pathfinder/internal/core"
	"pathfinder/internal/cxl"
	"pathfinder/internal/obs"
	"pathfinder/internal/sim"
)

const testCycles = 250_000

// TestGenCaseDeterministic: a case is a pure function of its seed.
func TestGenCaseDeterministic(t *testing.T) {
	for seed := uint64(1); seed < 20; seed++ {
		a, err := GenCase(seed, testCycles)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, _ := GenCase(seed, testCycles)
		if a.Plan.String() != b.Plan.String() || a.Workload != b.Workload {
			t.Fatalf("seed %d not deterministic: %q/%s vs %q/%s",
				seed, a.Plan.String(), a.Workload, b.Plan.String(), b.Workload)
		}
		// The printed plan must round-trip so replay sees the same case.
		rt, err := cxl.ParseFaultPlan(a.Plan.String())
		if err != nil {
			t.Fatalf("seed %d: plan %q does not re-parse: %v", seed, a.Plan.String(), err)
		}
		if rt.String() != a.Plan.String() {
			t.Fatalf("seed %d: plan round-trip drift %q -> %q", seed, a.Plan.String(), rt.String())
		}
	}
}

// TestSoakClean: a short soak of the real simulator finds nothing — the
// built-in invariants hold under generated fault plans.
func TestSoakClean(t *testing.T) {
	rep, err := Soak(Options{Cases: 4, BaseSeed: 100, Cycles: testCycles})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings {
		t.Errorf("unexpected finding [%s] seed=%d plan=%q: %s",
			f.Violation.Invariant, f.Case.Seed, f.Case.Plan.String(), f.Violation.Detail)
	}
	if failed := rep.Tasks.Failed(); len(failed) > 0 {
		t.Fatalf("supervision failures: %s", rep.Tasks.Summary())
	}
}

// TestRunTwiceForkEngages: the run-twice replay must actually fork from a
// midpoint checkpoint on every workload row — including the two-core
// multicore row — not silently fall back to a full second run, and
// the forked suffix digest must match the straight leg byte for byte.
func TestRunTwiceForkEngages(t *testing.T) {
	covered := map[string]bool{}
	for seed := uint64(1); seed < 40 && len(covered) < len(workloadNames); seed++ {
		c, err := GenCase(seed, testCycles)
		if err != nil {
			t.Fatal(err)
		}
		if covered[c.Workload] {
			continue
		}
		covered[c.Workload] = true
		fp := &forkProbe{}
		res, err := runCase(c, nil, nil, fp)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, c.Workload, err)
		}
		if fp.cp == nil {
			t.Fatalf("seed %d (%s): no midpoint checkpoint taken: %v", seed, c.Workload, fp.skip)
		}
		if fp.at == 0 || fp.at >= c.Cycles {
			t.Fatalf("seed %d (%s): checkpoint at cycle %d of %d", seed, c.Workload, fp.at, c.Cycles)
		}
		if len(fp.straight) == 0 || !bytes.Equal(fp.straight, fp.forked) {
			t.Fatalf("seed %d (%s): forked suffix digest diverged (%d vs %d bytes)",
				seed, c.Workload, len(fp.straight), len(fp.forked))
		}
		for _, v := range res.Violations {
			t.Errorf("seed %d (%s): unexpected violation [%s]: %s", seed, c.Workload, v.Invariant, v.Detail)
		}
	}
	for _, w := range workloadNames {
		if !covered[w] {
			t.Errorf("workload row %q never generated in 40 seeds", w)
		}
	}
}

// TestSoakShrinkAndReplay drives the full failure pipeline with a
// synthetic invariant that trips whenever M2S CRC noise is enabled: the
// soak must report the violation with seed and plan, the shrinker must
// strip every knob except the culprit, and replaying the shrunk plan must
// reproduce the identical violation.
func TestSoakShrinkAndReplay(t *testing.T) {
	crcTrip := Invariant{Name: "synthetic-crc", Check: func(p *Probe) string {
		if p.Case.Plan.CRCRate[cxl.DirM2S] > 0 {
			return "m2s crc noise present"
		}
		return ""
	}}

	// A deliberately over-stuffed case: the culprit knob plus noise the
	// shrinker should remove.
	plan := &cxl.FaultPlan{Seed: 42}
	plan.CRCRate[cxl.DirM2S] = 0.01
	plan.CRCRate[cxl.DirS2M] = 0.01
	plan.Bursts = []cxl.Burst{{Dir: cxl.DirS2M, Start: 10_000, Len: 5_000, Rate: 0.5}}
	plan.Timeouts = []cxl.Episode{{Start: 50_000, Len: 4_000}}
	plan.RemoveAt = 200_000
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	c := Case{Seed: 42, Plan: plan, Workload: workloadFor(42), Cycles: testCycles}

	res, err := Run(c, []Invariant{crcTrip}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violates("synthetic-crc") {
		t.Fatalf("synthetic invariant did not trip: %+v", res.Violations)
	}

	shrunk, runs := Shrink(c, "synthetic-crc", 64, func(cand Case) bool {
		r, rerr := Run(cand, []Invariant{crcTrip}, nil)
		return rerr == nil && r.Violates("synthetic-crc")
	})
	if runs == 0 {
		t.Fatal("shrinker did not run any candidates")
	}
	p := shrunk.Plan
	if p.CRCRate[cxl.DirM2S] == 0 {
		t.Fatalf("shrinker removed the culprit knob: %q", p.String())
	}
	if p.CRCRate[cxl.DirS2M] != 0 || len(p.Bursts) != 0 || len(p.Timeouts) != 0 || p.RemoveAt != 0 {
		t.Fatalf("shrinker left irrelevant knobs: %q", p.String())
	}

	// The shrunk (seed, plan) pair replays to the identical violation,
	// byte for byte across two invocations.
	var out1, out2 bytes.Buffer
	if _, err := Replay(&out1, shrunk.Seed, p.String(), shrunk.Cycles, []Invariant{crcTrip}); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(&out2, shrunk.Seed, p.String(), shrunk.Cycles, []Invariant{crcTrip}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatalf("replay output not byte-identical:\n%s\n----\n%s", out1.String(), out2.String())
	}
	if !strings.Contains(out1.String(), "VIOLATION [synthetic-crc]") ||
		!strings.Contains(out1.String(), "seed=42") ||
		!strings.Contains(out1.String(), "digest sha256=") {
		t.Fatalf("replay report incomplete:\n%s", out1.String())
	}
}

// TestSoakReportPrintsSeedAndPlan: every finding report carries the seed,
// the full plan string, and a ready-to-paste replay command.
func TestSoakReportPrintsSeedAndPlan(t *testing.T) {
	always := Invariant{Name: "always", Check: func(*Probe) string { return "tripped" }}
	var out bytes.Buffer
	rep, err := Soak(Options{
		Cases: 2, BaseSeed: 300, Cycles: testCycles,
		Extra: []Invariant{always}, MaxShrink: 8, Out: &out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) < 2 {
		t.Fatalf("want a finding per case, got %d", len(rep.Findings))
	}
	s := out.String()
	for _, want := range []string{
		"VIOLATION [always]", "seed=300", "seed=301", "plan=", "replay: pfbench -replay '",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
	// The printed plan string must itself parse.
	for _, f := range rep.Findings {
		if _, err := cxl.ParseFaultPlan(f.Shrunk.Plan.String()); err != nil {
			t.Fatalf("shrunk plan %q unparseable: %v", f.Shrunk.Plan.String(), err)
		}
	}
}

// TestViolationBundleResidencyCrossCheck: a tripped case ships a parseable
// postmortem bundle, and the flight recorder's device-segment evidence
// agrees with the analyzer estimates carried in the bundle's aux section.
//
// The cross-check is Little's law over the whole run.  The recorder's
// device segment for a CXL-served demand load spans memEnter→done:
// M2PCIe ingress, link transit both ways, controller, device RPQ through
// media, and the final mesh hop back to the CHA.  The analyzer's
// Q[DRd][FlexBus+MC] + Q[DRd][CXL DIMM] price almost the same span, with
// two known structural offsets:
//
//   - the analyzer's constant LinkTransit (2·FlexBus + Ctrl + 2·M2P)
//     re-prices the controller and one M2P leg that the measured
//     packing-buffer and ingress occupancy integrals already contain, and
//   - the mesh hop returning data to the CHA is booked under CompCHA,
//     not the device components.
//
// So the recorder-side occupancy L_flight = Σ devResidency / clocks must
// equal Q_flex + Q_dimm + λ·(Mesh − Ctrl − M2P), with λ the CXL
// demand-load rate.  A fault-free pointer chase keeps the comparison
// tight: one outstanding load, no prefetch training, no dirty victims
// extending completions.
func TestViolationBundleResidencyCrossCheck(t *testing.T) {
	plan := &cxl.FaultPlan{Seed: 9}
	c := Case{Seed: 9, Plan: plan, Workload: "chase", Cycles: DefaultCycles}
	trip := Invariant{Name: "forced", Check: func(*Probe) string { return "harvest a bundle" }}
	res, err := Run(c, []Invariant{trip}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violates("forced") {
		t.Fatalf("forced invariant did not trip: %+v", res.Violations)
	}
	if res.Bundle == nil {
		t.Fatal("violating case produced no bundle")
	}

	b, err := obs.ReadBundle(bytes.NewReader(res.Bundle))
	if err != nil {
		t.Fatalf("bundle does not parse: %v", err)
	}
	if b.Trigger != "chaos-violation" {
		t.Fatalf("trigger = %q", b.Trigger)
	}
	if b.FaultPlan != plan.String() {
		t.Fatalf("bundle plan %q, want %q", b.FaultPlan, plan.String())
	}
	if !b.Flight.Enabled || b.Flight.Records == 0 || len(b.Flight.Tail) == 0 {
		t.Fatalf("flight section empty: records=%d tail=%d", b.Flight.Records, len(b.Flight.Tail))
	}

	var aux struct {
		Clocks float64            `json:"clocks"`
		Queues map[string]float64 `json:"queues"`
	}
	if err := json.Unmarshal(b.Aux, &aux); err != nil {
		t.Fatalf("aux does not parse: %v", err)
	}
	if aux.Clocks == 0 {
		t.Fatal("aux carries no run length")
	}

	loads := b.Flight.Classes[obs.FlightLoad]
	cxlIdx := int(sim.SrvCXL)
	n := float64(loads.ByLoc[cxlIdx])
	if n == 0 {
		t.Fatal("no CXL-served demand loads recorded")
	}
	lFlight := float64(loads.DevByLoc[cxlIdx]) / aux.Clocks
	cfg := chaosConfig(plan)
	k := core.ConstsFor(cfg)
	correction := k.Mesh - float64(cfg.CXLCtrlLat+cfg.M2PLat)
	lambda := n / aux.Clocks
	lAnalyzer := aux.Queues["drd_flexbus_mc"] + aux.Queues["drd_cxl_dimm"] + lambda*correction
	if lAnalyzer == 0 {
		t.Fatal("analyzer estimates in aux are zero")
	}
	if rel := math.Abs(lFlight-lAnalyzer) / lAnalyzer; rel > 0.10 {
		t.Fatalf("device occupancy mismatch: flight %.4f vs analyzer %.4f (%.1f%% off)",
			lFlight, lAnalyzer, 100*rel)
	}

	// The promoted spans individually tell the same story: each tail
	// record's device residency matches the analyzer-implied per-request
	// wait W = (Q_flex+Q_dimm)/λ + correction.  The chase workload has a
	// near-constant request latency, so even the promoted tail (by
	// construction the slowest requests) stays within the same 10%.
	wAnalyzer := (aux.Queues["drd_flexbus_mc"]+aux.Queues["drd_cxl_dimm"])/lambda + correction
	checked := 0
	for _, tr := range b.Flight.Tail {
		if int(tr.Loc) != cxlIdx || tr.Class != obs.FlightLoad {
			continue
		}
		checked++
		devRes := float64(tr.Latency() - uint64(tr.MemEnter))
		if rel := math.Abs(devRes-wAnalyzer) / wAnalyzer; rel > 0.10 {
			t.Fatalf("promoted span seq=%d device residency %.0f vs analyzer wait %.0f (%.1f%% off)",
				tr.Seq, devRes, wAnalyzer, 100*rel)
		}
	}
	if checked == 0 {
		t.Fatal("no promoted CXL load spans to cross-check")
	}
}

// TestCleanRunShipsNoBundle: bundles are violation postmortems, not a tax
// on healthy cases.
func TestCleanRunShipsNoBundle(t *testing.T) {
	c, err := GenCase(100, testCycles)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("seed 100 tripped: %+v", res.Violations)
	}
	if res.Bundle != nil {
		t.Fatal("clean run carried a bundle")
	}
}

// TestRunContainsInvariantPanic: a panicking monitor becomes a "panic"
// violation, not a process crash.
func TestRunContainsInvariantPanic(t *testing.T) {
	bomb := Invariant{Name: "bomb", Check: func(*Probe) string { panic("monitor bug") }}
	c, err := GenCase(5, testCycles)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, []Invariant{bomb}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violates("panic") {
		t.Fatalf("panic not contained: %+v", res.Violations)
	}
}

func TestParseReplaySpec(t *testing.T) {
	seed, plan, err := ParseReplaySpec("42,seed=42,crc-m2s=0.01")
	if err != nil || seed != 42 || plan != "seed=42,crc-m2s=0.01" {
		t.Fatalf("got seed=%d plan=%q err=%v", seed, plan, err)
	}
	if _, _, err := ParseReplaySpec("noseed"); err == nil {
		t.Fatal("spec without comma accepted")
	}
	if _, _, err := ParseReplaySpec("x,plan"); err == nil {
		t.Fatal("non-numeric seed accepted")
	}
	seed, plan, err = ParseReplaySpec("7,healthy")
	if err != nil || seed != 7 || plan != "healthy" {
		t.Fatalf("healthy spec: seed=%d plan=%q err=%v", seed, plan, err)
	}
}

// TestMulticoreRowReplayable: the multicore matrix row — two cores
// stepping at once — runs under a seeded fault plan, and replaying
// the same (seed, plan) pair reproduces a byte-identical report.
func TestMulticoreRowReplayable(t *testing.T) {
	var seed uint64
	for s := uint64(1); ; s++ {
		if workloadFor(s) == "multicore" {
			seed = s
			break
		}
	}
	c, err := GenCase(seed, testCycles)
	if err != nil {
		t.Fatal(err)
	}
	if c.Workload != "multicore" {
		t.Fatalf("seed %d workload = %q", seed, c.Workload)
	}
	res, err := Run(c, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("multicore row violation [%s]: %s", v.Invariant, v.Detail)
	}
	var out1, out2 bytes.Buffer
	if _, err := Replay(&out1, seed, c.Plan.String(), c.Cycles, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(&out2, seed, c.Plan.String(), c.Cycles, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatalf("multicore replay output not byte-identical:\n%s\n----\n%s",
			out1.String(), out2.String())
	}
}
