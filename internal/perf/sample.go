package perf

import (
	"fmt"

	"pathfinder/internal/pmu"
	"pathfinder/internal/sim"
)

// Sample is one overflow record from a sampling counter: which bank fired,
// the counter total at overflow, and the cycle the overflowing increment
// describes.
type Sample struct {
	Bank  string
	Total uint64
	Cycle sim.Cycles
}

// SampleSession drives the PMU sampling mode (§3.1's overflow-interrupt
// flavor): an event is armed with a period on every matching bank and each
// period crossing appends a Sample, like perf record's counter sampling.
type SampleSession struct {
	m       *sim.Machine
	spec    Spec
	period  uint64
	banks   []*pmu.Bank
	event   pmu.Event
	samples []Sample
	closed  bool
}

// OpenSampling arms the event named by spec with the given period on every
// matching bank.
func OpenSampling(m *sim.Machine, rawSpec string, period uint64) (*SampleSession, error) {
	if period == 0 {
		return nil, fmt.Errorf("perf: sampling period must be positive")
	}
	sp, err := ParseSpec(rawSpec)
	if err != nil {
		return nil, err
	}
	ev, ok := pmu.Default.Lookup(sp.Event)
	if !ok {
		return nil, fmt.Errorf("perf: unknown event %q", sp.Event)
	}
	ss := &SampleSession{m: m, spec: sp, period: period, event: ev}
	for _, b := range m.Banks() {
		if !matchPattern(sp.Pattern, b.Name()) || !bankHostsUnit(b.Name(), pmu.Default.Info(ev).Unit) {
			continue
		}
		bank := b
		b.Attach(ev, pmu.NewSampler(period, func(total uint64) {
			ss.samples = append(ss.samples, Sample{
				Bank:  bank.Name(),
				Total: total,
				Cycle: m.CounterCycle(),
			})
		}))
		ss.banks = append(ss.banks, b)
	}
	if len(ss.banks) == 0 {
		return nil, fmt.Errorf("perf: sampling spec %q matched no PMU bank", rawSpec)
	}
	return ss, nil
}

// Samples returns the overflow records collected so far.
func (ss *SampleSession) Samples() []Sample { return ss.samples }

// Period returns the armed period.
func (ss *SampleSession) Period() uint64 { return ss.period }

// Close detaches the samplers; further counter activity stops recording.
func (ss *SampleSession) Close() {
	if ss.closed {
		return
	}
	ss.closed = true
	for _, b := range ss.banks {
		b.Detach(ss.event)
	}
}
