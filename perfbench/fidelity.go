package main

import (
	"math"

	"pathfinder/internal/core"
)

// fidelity scores PFAnalyzer's queue estimates against the simulator's
// integrated occupancy on the components both report: LFB per app, and
// FlexBus+MC and CXL DIMM at the device, where the apps' estimates are
// summed.  Estimates are summed over the read paths (DRd, RFO, HW PF), the
// ones the analyzer models.
type fidelity struct {
	lfb, flex, dimm []float64 // absolute relative error, %, per comparable sample
	match, total    int       // app-epochs whose culprit agrees, of all scored
}

// readQueue sums a component's estimate over the read paths.
func readQueue(qr *core.QueueReport, c core.Component) float64 {
	return qr.Q[core.PathDRd][c] + qr.Q[core.PathRFO][c] + qr.Q[core.PathHWPF][c]
}

// relErrPct appends |est-meas|/meas in percent; a zero measurement has no
// relative error and is skipped.
func relErrPct(errs []float64, est, meas float64) []float64 {
	if meas == 0 {
		return errs
	}
	return append(errs, 100*math.Abs(est-meas)/meas)
}

// argmax3 returns the index of the largest of three values, the first on
// a tie.
func argmax3(a, b, c float64) int {
	switch {
	case a >= b && a >= c:
		return 0
	case b >= c:
		return 1
	}
	return 2
}

// add scores one epoch: est[i] is app i's PFAnalyzer report and meas[i]
// the measured queues through app i's plan (its own LFB; the device
// components are the same for every app).
func (f *fidelity) add(est []*core.QueueReport, meas [][core.CompCount]float64) {
	var estFlex, estDIMM float64
	for _, qr := range est {
		estFlex += readQueue(qr, core.CompFlexBusMC)
		estDIMM += readQueue(qr, core.CompCXLDIMM)
	}
	measFlex, measDIMM := meas[0][core.CompFlexBusMC], meas[0][core.CompCXLDIMM]
	f.flex = relErrPct(f.flex, estFlex, measFlex)
	f.dimm = relErrPct(f.dimm, estDIMM, measDIMM)
	for i, qr := range est {
		estLFB, measLFB := readQueue(qr, core.CompLFB), meas[i][core.CompLFB]
		f.lfb = relErrPct(f.lfb, estLFB, measLFB)
		f.total++
		if argmax3(estLFB, estFlex, estDIMM) == argmax3(measLFB, measFlex, measDIMM) {
			f.match++
		}
	}
}

// report writes the per-component errors, queue_err_pct (their mean) and
// culprit_match_pct.
func (f *fidelity) report(l map[string]float64) {
	lfb, flex, dimm := mean(f.lfb), mean(f.flex), mean(f.dimm)
	l["core.lfb_err_pct"] = lfb
	l["core.flexbus_err_pct"] = flex
	l["core.dimm_err_pct"] = dimm
	l["core.queue_err_pct"] = (lfb + flex + dimm) / 3
	l["core.culprit_match_pct"] = 100 * ratio(float64(f.match), float64(f.total))
}
