package cxl

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Link-fault injection: a FaultPlan is a seeded, fully deterministic
// description of everything that can go wrong on a FlexBus link — per-flit
// CRC corruption (with burst windows modeling retry storms), device-timeout
// episodes, DevLoad-throttle episodes, poisoned media lines, viral
// containment and surprise removal.  The cxlPort timing model in
// internal/sim draws every fault from the plan, and the chaos soak prints
// and replays plans in the same syntax ParseFaultPlan reads.
//
// Determinism is load-bearing: corruption decisions are pure functions of
// (Seed, direction, transfer index, time), never of a mutable RNG stream,
// so replaying a run — or resuming one after a snapshot — reproduces the
// identical fault sequence.

// Direction identifies which way a flit travels on the link.
type Direction uint8

// Link directions.
const (
	DirM2S Direction = iota // host -> device (Req/RwD)
	DirS2M                  // device -> host (NDR/DRS)
	dirCount
)

// String returns the direction mnemonic.
func (d Direction) String() string {
	switch d {
	case DirM2S:
		return "M2S"
	case DirS2M:
		return "S2M"
	}
	return fmt.Sprintf("Direction(%d)", uint8(d))
}

// Burst is a time window of elevated corruption on one direction — the
// retry-storm shape real links exhibit when a lane margins out.  A zero
// Period makes the window one-shot; otherwise it recurs every Period
// cycles (the window [Start, Start+Len) repeats at Start+k*Period).
type Burst struct {
	Dir    Direction
	Start  uint64 // first cycle of the window
	Len    uint64 // window length in cycles
	Period uint64 // recurrence period (0 = one-shot)
	Rate   float64
}

// Episode is a time window during which a device-side condition (timeout,
// DevLoad throttle) holds.  Period semantics match Burst.
type Episode struct {
	Start  uint64
	Len    uint64
	Period uint64
}

// activeAt reports whether the window covers cycle now.
func (e Episode) activeAt(now uint64) bool {
	if now < e.Start {
		return false
	}
	off := now - e.Start
	if e.Period > 0 {
		off %= e.Period
	}
	return off < e.Len
}

// FaultPlan is a deterministic, seeded link-fault schedule.  The zero value
// (and a nil plan) injects nothing.
type FaultPlan struct {
	Seed uint64

	// CRCRate is the baseline per-flit corruption probability by direction.
	CRCRate [dirCount]float64

	// Bursts are windows of elevated corruption (additive with the base
	// rate, clamped to 1).
	Bursts []Burst

	// Timeouts are device-timeout episodes: requests reaching the device
	// controller during a window stall for TimeoutPenalty cycles before
	// being serviced (the device's internal completion timeout + recovery).
	Timeouts       []Episode
	TimeoutPenalty uint64 // cycles per timeout hit (0 = DefaultTimeoutPenalty)

	// Throttles are DevLoad-throttle episodes: the device sheds load by
	// halving its media service rate while a window is active.
	Throttles []Episode

	// Poison marks the line range [PoisonBase, PoisonBase+PoisonLen) as
	// poisoned media: reads of those lines complete but are flagged and
	// pay an extra media access for the device's internal correction pass.
	PoisonBase, PoisonLen uint64

	// Viral state: after ViralThreshold poisoned reads the device enters
	// viral containment and completes every read as poisoned (CXL 3.0
	// §12.4).  A non-zero ViralReset clears the state that many cycles
	// after entry (a host-initiated device reset); zero is permanent.
	ViralThreshold uint64 // poisoned reads before viral entry (0 = never)
	ViralReset     uint64 // cycles until reset clears viral (0 = permanent)

	// Surprise removal: at cycle RemoveAt the device vanishes from the
	// link.  In-flight requests complete with error after the root port's
	// discovery penalty; once discovered, the host isolates the device and
	// later accesses take a fast-fail path without touching the link.
	RemoveAt      uint64 // removal cycle (0 = never)
	RemovePenalty uint64 // discovery penalty per in-flight hit (0 = DefaultRemovalPenalty)
}

// DefaultTimeoutPenalty is the stall charged per device-timeout hit when
// the plan leaves TimeoutPenalty zero, sized like a controller completion
// timeout (~2 µs at 2 GHz).
const DefaultTimeoutPenalty = 4000

// DefaultRemovalPenalty is the root-port discovery stall charged to each
// request in flight when the device is surprise-removed, sized like a
// completion-timeout-driven hot-remove flow (~6 µs at 2 GHz).
const DefaultRemovalPenalty = 12000

// Validate checks plan invariants.
func (p *FaultPlan) Validate() error {
	if p == nil {
		return nil
	}
	for d := Direction(0); d < dirCount; d++ {
		if r := p.CRCRate[d]; math.IsNaN(r) || r < 0 || r > 1 {
			return fmt.Errorf("cxl: %v CRC rate %g outside [0,1]", d, r)
		}
	}
	for i, b := range p.Bursts {
		if math.IsNaN(b.Rate) || b.Rate < 0 || b.Rate > 1 {
			return fmt.Errorf("cxl: burst %d rate %g outside [0,1]", i, b.Rate)
		}
		if b.Dir >= dirCount {
			return fmt.Errorf("cxl: burst %d has invalid direction %d", i, b.Dir)
		}
		if b.Period > 0 && b.Len > b.Period {
			return fmt.Errorf("cxl: burst %d window %d exceeds its period %d", i, b.Len, b.Period)
		}
	}
	for i, e := range append(append([]Episode{}, p.Timeouts...), p.Throttles...) {
		if e.Period > 0 && e.Len > e.Period {
			return fmt.Errorf("cxl: episode %d window %d exceeds its period %d", i, e.Len, e.Period)
		}
	}
	return nil
}

// mix64 is the splitmix64 finalizer: a high-quality 64-bit mixer used to
// derive independent per-decision randomness from (seed, keys).
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rand01 returns a uniform [0,1) draw that depends only on the plan seed,
// the direction, and the transfer index.
func (p *FaultPlan) rand01(dir Direction, index uint64) float64 {
	h := mix64(p.Seed ^ mix64(uint64(dir)+0x51) ^ mix64(index))
	return float64(h>>11) / (1 << 53)
}

// Rate returns the effective per-flit corruption probability for a flit of
// direction dir transmitted at cycle now.
func (p *FaultPlan) Rate(dir Direction, now uint64) float64 {
	if p == nil {
		return 0
	}
	r := p.CRCRate[dir]
	for _, b := range p.Bursts {
		if b.Dir == dir && (Episode{Start: b.Start, Len: b.Len, Period: b.Period}).activeAt(now) {
			r += b.Rate
		}
	}
	if r > 1 {
		r = 1
	}
	return r
}

// Corrupts decides deterministically whether the index-th transmission in
// direction dir, occurring at cycle now, is corrupted on the wire.
func (p *FaultPlan) Corrupts(dir Direction, index, now uint64) bool {
	if p == nil {
		return false
	}
	r := p.Rate(dir, now)
	if r <= 0 {
		return false
	}
	return p.rand01(dir, index) < r
}

// TimeoutAt reports whether a device-timeout episode is active at now.
func (p *FaultPlan) TimeoutAt(now uint64) bool {
	if p == nil {
		return false
	}
	for _, e := range p.Timeouts {
		if e.activeAt(now) {
			return true
		}
	}
	return false
}

// Penalty returns the per-hit device-timeout stall in cycles.
func (p *FaultPlan) Penalty() uint64 {
	if p == nil {
		return 0
	}
	if p.TimeoutPenalty > 0 {
		return p.TimeoutPenalty
	}
	return DefaultTimeoutPenalty
}

// ThrottledAt reports whether a DevLoad-throttle episode is active at now.
func (p *FaultPlan) ThrottledAt(now uint64) bool {
	if p == nil {
		return false
	}
	for _, e := range p.Throttles {
		if e.activeAt(now) {
			return true
		}
	}
	return false
}

// Poisoned reports whether the line at address la falls in the poisoned
// media range.
func (p *FaultPlan) Poisoned(la uint64) bool {
	if p == nil || p.PoisonLen == 0 {
		return false
	}
	return la >= p.PoisonBase && la-p.PoisonBase < p.PoisonLen
}

// ViralEnabled reports whether the plan can drive the device viral.
func (p *FaultPlan) ViralEnabled() bool {
	return p != nil && p.ViralThreshold > 0
}

// RemovedBy reports whether the device has been surprise-removed by cycle
// now (the link is dead; requests reaching it complete with error).
func (p *FaultPlan) RemovedBy(now uint64) bool {
	if p == nil || p.RemoveAt == 0 {
		return false
	}
	return now >= p.RemoveAt
}

// RemovalPenalty returns the root-port discovery stall in cycles.
func (p *FaultPlan) RemovalPenalty() uint64 {
	if p == nil {
		return 0
	}
	if p.RemovePenalty > 0 {
		return p.RemovePenalty
	}
	return DefaultRemovalPenalty
}

// IsolatedBy reports whether the host has isolated the removed device by
// cycle now: removal plus one discovery penalty (the first errored request
// tells the root port the device is gone).  Isolation is a pure function
// of the plan and time so replays are byte-identical regardless of request
// issue order.
func (p *FaultPlan) IsolatedBy(now uint64) bool {
	if p == nil || p.RemoveAt == 0 {
		return false
	}
	return now >= p.RemoveAt+p.RemovalPenalty()
}

// Empty reports whether the plan injects nothing (a healthy link).
func (p *FaultPlan) Empty() bool {
	if p == nil {
		return true
	}
	return p.CRCRate[DirM2S] == 0 && p.CRCRate[DirS2M] == 0 &&
		len(p.Bursts) == 0 && len(p.Timeouts) == 0 && len(p.Throttles) == 0 &&
		p.PoisonLen == 0 && p.ViralThreshold == 0 && p.RemoveAt == 0
}

// String renders the plan in the canonical knob syntax accepted by
// ParseFaultPlan, so any plan printed by a report (chaos findings in
// particular) can be pasted back into -fault or -replay verbatim.  The
// round trip Parse(p.String()) yields an equivalent plan.
func (p *FaultPlan) String() string {
	if p.Empty() {
		return "healthy"
	}
	var parts []string
	parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	if p.CRCRate[DirM2S] > 0 {
		parts = append(parts, fmt.Sprintf("crc-m2s=%g", p.CRCRate[DirM2S]))
	}
	if p.CRCRate[DirS2M] > 0 {
		parts = append(parts, fmt.Sprintf("crc-s2m=%g", p.CRCRate[DirS2M]))
	}
	for _, b := range p.Bursts {
		knob := "burst-m2s"
		if b.Dir == DirS2M {
			knob = "burst-s2m"
		}
		if b.Period > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d:%d:%g:%d", knob, b.Start, b.Len, b.Rate, b.Period))
		} else {
			parts = append(parts, fmt.Sprintf("%s=%d:%d:%g", knob, b.Start, b.Len, b.Rate))
		}
	}
	episode := func(knob string, e Episode) string {
		if e.Period > 0 {
			return fmt.Sprintf("%s=%d:%d:%d", knob, e.Start, e.Len, e.Period)
		}
		return fmt.Sprintf("%s=%d:%d", knob, e.Start, e.Len)
	}
	for _, e := range p.Timeouts {
		parts = append(parts, episode("timeout", e))
	}
	if p.TimeoutPenalty > 0 {
		parts = append(parts, fmt.Sprintf("timeout-penalty=%d", p.TimeoutPenalty))
	}
	for _, e := range p.Throttles {
		parts = append(parts, episode("throttle", e))
	}
	if p.PoisonLen > 0 {
		parts = append(parts, fmt.Sprintf("poison=%d:%d", p.PoisonBase, p.PoisonLen))
	}
	if p.ViralThreshold > 0 {
		if p.ViralReset > 0 {
			parts = append(parts, fmt.Sprintf("viral=%d:%d", p.ViralThreshold, p.ViralReset))
		} else {
			parts = append(parts, fmt.Sprintf("viral=%d", p.ViralThreshold))
		}
	}
	if p.RemoveAt > 0 {
		if p.RemovePenalty > 0 {
			parts = append(parts, fmt.Sprintf("remove=%d:%d", p.RemoveAt, p.RemovePenalty))
		} else {
			parts = append(parts, fmt.Sprintf("remove=%d", p.RemoveAt))
		}
	}
	return strings.Join(parts, ",")
}

// ParseFaultPlan parses the CLI fault syntax: a comma list of knobs,
//
//	seed=N                 deterministic seed (default 1)
//	crc=R                  per-flit CRC corruption rate, both directions
//	crc-m2s=R / crc-s2m=R  per-direction rates
//	burst=START:LEN:RATE[:PERIOD]    corruption burst window (both dirs)
//	burst-m2s= / burst-s2m=          per-direction burst windows
//	timeout=START:LEN[:PERIOD]       device-timeout episode
//	timeout-penalty=N                cycles stalled per timeout hit
//	throttle=START:LEN[:PERIOD]      DevLoad-throttle episode
//	poison=BASE:LEN                  poisoned line-address range (bytes)
//	viral=THRESHOLD[:RESET]          viral entry after N poisoned reads,
//	                                 optional reset window in cycles
//	remove=CYCLE[:PENALTY]           surprise removal at CYCLE, optional
//	                                 discovery penalty per in-flight hit
//
// e.g. "crc=1e-3,seed=42,burst=500000:100000:0.3:1000000".  The literal
// "healthy" (what String renders for an empty plan) parses to a no-fault
// plan.
func ParseFaultPlan(s string) (*FaultPlan, error) {
	p := &FaultPlan{Seed: 1}
	if strings.TrimSpace(s) == "healthy" {
		return p, nil
	}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("cxl: fault knob %q is not key=value", kv)
		}
		fields := strings.Split(val, ":")
		num := func(i int) (uint64, error) {
			v, err := strconv.ParseUint(fields[i], 0, 64)
			if err != nil {
				return 0, fmt.Errorf("cxl: fault knob %q field %d: %v", kv, i+1, err)
			}
			return v, nil
		}
		switch key {
		case "seed":
			v, err := num(0)
			if err != nil {
				return nil, err
			}
			p.Seed = v
		case "crc", "crc-m2s", "crc-s2m":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("cxl: fault knob %q: %v", kv, err)
			}
			if key != "crc-s2m" {
				p.CRCRate[DirM2S] = r
			}
			if key != "crc-m2s" {
				p.CRCRate[DirS2M] = r
			}
		case "burst", "burst-m2s", "burst-s2m":
			if len(fields) < 3 || len(fields) > 4 {
				return nil, fmt.Errorf("cxl: %s wants START:LEN:RATE[:PERIOD], got %q", key, val)
			}
			start, err := num(0)
			if err != nil {
				return nil, err
			}
			length, err := num(1)
			if err != nil {
				return nil, err
			}
			rate, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("cxl: burst rate %q: %v", fields[2], err)
			}
			var period uint64
			if len(fields) == 4 {
				if period, err = num(3); err != nil {
					return nil, err
				}
			}
			for d := Direction(0); d < dirCount; d++ {
				if (key == "burst-m2s" && d != DirM2S) || (key == "burst-s2m" && d != DirS2M) {
					continue
				}
				p.Bursts = append(p.Bursts, Burst{Dir: d, Start: start, Len: length, Period: period, Rate: rate})
			}
		case "timeout", "throttle":
			if len(fields) < 2 || len(fields) > 3 {
				return nil, fmt.Errorf("cxl: %s wants START:LEN[:PERIOD], got %q", key, val)
			}
			start, err := num(0)
			if err != nil {
				return nil, err
			}
			length, err := num(1)
			if err != nil {
				return nil, err
			}
			var period uint64
			if len(fields) == 3 {
				if period, err = num(2); err != nil {
					return nil, err
				}
			}
			e := Episode{Start: start, Len: length, Period: period}
			if key == "timeout" {
				p.Timeouts = append(p.Timeouts, e)
			} else {
				p.Throttles = append(p.Throttles, e)
			}
		case "timeout-penalty":
			v, err := num(0)
			if err != nil {
				return nil, err
			}
			p.TimeoutPenalty = v
		case "poison":
			if len(fields) != 2 {
				return nil, fmt.Errorf("cxl: poison wants BASE:LEN, got %q", val)
			}
			base, err := num(0)
			if err != nil {
				return nil, err
			}
			length, err := num(1)
			if err != nil {
				return nil, err
			}
			p.PoisonBase, p.PoisonLen = base, length
		case "viral":
			if len(fields) < 1 || len(fields) > 2 {
				return nil, fmt.Errorf("cxl: viral wants THRESHOLD[:RESET], got %q", val)
			}
			threshold, err := num(0)
			if err != nil {
				return nil, err
			}
			if threshold == 0 {
				return nil, fmt.Errorf("cxl: viral threshold must be positive, got %q", val)
			}
			var reset uint64
			if len(fields) == 2 {
				if reset, err = num(1); err != nil {
					return nil, err
				}
			}
			p.ViralThreshold, p.ViralReset = threshold, reset
		case "remove":
			if len(fields) < 1 || len(fields) > 2 {
				return nil, fmt.Errorf("cxl: remove wants CYCLE[:PENALTY], got %q", val)
			}
			at, err := num(0)
			if err != nil {
				return nil, err
			}
			if at == 0 {
				return nil, fmt.Errorf("cxl: removal cycle must be positive, got %q", val)
			}
			var penalty uint64
			if len(fields) == 2 {
				if penalty, err = num(1); err != nil {
					return nil, err
				}
			}
			p.RemoveAt, p.RemovePenalty = at, penalty
		default:
			return nil, fmt.Errorf("cxl: unknown fault knob %q (want seed, crc, crc-m2s, crc-s2m, burst, burst-m2s, burst-s2m, timeout, timeout-penalty, throttle, poison, viral, remove)", key)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
