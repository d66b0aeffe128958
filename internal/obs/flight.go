package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Flight is the always-on flight recorder: every completed memory request
// leaves a compact fixed-size record in a per-core ring buffer, and the
// requests whose end-to-end latency lands beyond an adaptive per-class
// threshold (an online p99 estimate from a streaming P² quantile sketch)
// are promoted into a bounded tail store together with their promotion
// context.  Unlike the 1-in-N tracer, which samples uniformly and almost
// never catches a p99.9 event with its waterfall, the flight recorder sees
// every request and keeps exactly the ones that form the tail.
//
// The recorder is strictly an observer: it never touches engine, cache, or
// PMU state, so simulated timing is byte-identical with it attached (the
// golden digest suites prove this on the sweep and the dispatch oracle).
// The hot path is allocation-free: records are packed value structs, rings
// are sized up front, and the quantile sketch is five fixed markers.

// Flight workload classes: demand loads and demand stores track separate
// latency populations (a CXL store commit and a CXL load miss live on
// different paths with different tails).
const (
	FlightLoad  = 0
	FlightStore = 1

	flightClasses = 2

	// flightWarmup is the per-class observation count before the sketch
	// estimate is trusted for promotion: too early and the p99 markers
	// are still startup noise, promoting everything.
	flightWarmup = 32
)

// FlightClassName maps a FlightRec.Class ordinal to the request-class
// label the tracer and path maps use.
func FlightClassName(c uint8) string {
	if c&1 == FlightStore {
		return "DWr"
	}
	return "DRd"
}

// flightBounds is the latency histogram (and exemplar) bucketing in core
// cycles: L1 hits land in the first buckets, local DRAM around 200-400,
// healthy CXL at 700-1500, and the retry/viral pathologies beyond.
var flightBounds = []float64{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}

// FlightRec is the packed per-request record (48 bytes, no pointers, no
// heap).  Stage timestamps are cycle deltas from Issue so the struct stays
// compact; a zero delta means the request never reached that stage (an L1
// hit has no L2 entry).  Loc is the sim-side ServeLoc ordinal — obs cannot
// import the simulator, so the CLI tools map it back to a name.
type FlightRec struct {
	Addr  uint64 `json:"addr"`
	Issue uint64 `json:"issue"`
	Done  uint64 `json:"done"`

	L2Start  uint32 `json:"l2_start"`  // delta from Issue; 0 = not reached
	TOREnter uint32 `json:"tor_enter"` // delta from Issue; 0 = not reached
	MemEnter uint32 `json:"mem_enter"` // delta from Issue; 0 = not reached
	Seq      uint32 `json:"seq"`       // promotion-pipeline sequence number

	Core  uint16 `json:"core"`
	Class uint8  `json:"class"` // FlightLoad or FlightStore
	Loc   uint8  `json:"loc"`   // ServeLoc ordinal

	LFB uint8 `json:"lfb"` // core LFB occupancy at completion
	SB  uint8 `json:"sb"`  // core store-buffer occupancy at completion
}

// Latency is the end-to-end request latency in cycles.
func (r *FlightRec) Latency() uint64 { return r.Done - r.Issue }

// TailRec is a promoted record: the full FlightRec plus the context the
// promotion pipeline stamps at decision time.
type TailRec struct {
	FlightRec
	Epoch     uint64  `json:"epoch"`          // profiler epoch at promotion
	Pending   int32   `json:"pending_events"` // engine events in flight (-1 = unknown)
	Threshold float64 `json:"threshold"`      // the p99 estimate the record beat
}

// p2 is the Jain/Chlamtac P² streaming quantile estimator: five markers,
// O(1) per observation, no allocation.  It tracks a single quantile p.
type p2 struct {
	q   [5]float64 // marker heights
	n   [5]int     // marker positions
	np  [5]float64 // desired positions
	dnp [5]float64 // desired-position increments
	cnt int
}

func newP2(p float64) p2 {
	var s p2
	s.dnp = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return s
}

func (s *p2) observe(x float64) {
	if s.cnt < 5 {
		s.q[s.cnt] = x
		s.cnt++
		if s.cnt == 5 {
			q := s.q[:]
			sort.Float64s(q)
			p := s.dnp[2]
			s.n = [5]int{1, 2, 3, 4, 5}
			s.np = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
		}
		return
	}
	s.cnt++
	var k int
	switch {
	case x < s.q[0]:
		s.q[0] = x
		k = 0
	case x < s.q[1]:
		k = 0
	case x < s.q[2]:
		k = 1
	case x < s.q[3]:
		k = 2
	case x <= s.q[4]:
		k = 3
	default:
		s.q[4] = x
		k = 3
	}
	for i := k + 1; i < 5; i++ {
		s.n[i]++
	}
	for i := range s.np {
		s.np[i] += s.dnp[i]
	}
	for i := 1; i <= 3; i++ {
		d := s.np[i] - float64(s.n[i])
		if (d >= 1 && s.n[i+1]-s.n[i] > 1) || (d <= -1 && s.n[i-1]-s.n[i] < -1) {
			sign := 1
			if d < 0 {
				sign = -1
			}
			qn := s.parabolic(i, sign)
			if s.q[i-1] < qn && qn < s.q[i+1] {
				s.q[i] = qn
			} else {
				s.q[i] = s.linear(i, sign)
			}
			s.n[i] += sign
		}
	}
}

func (s *p2) parabolic(i, d int) float64 {
	fd := float64(d)
	return s.q[i] + fd/float64(s.n[i+1]-s.n[i-1])*
		((float64(s.n[i]-s.n[i-1])+fd)*(s.q[i+1]-s.q[i])/float64(s.n[i+1]-s.n[i])+
			(float64(s.n[i+1]-s.n[i])-fd)*(s.q[i]-s.q[i-1])/float64(s.n[i]-s.n[i-1]))
}

func (s *p2) linear(i, d int) float64 {
	return s.q[i] + float64(d)*(s.q[i+d]-s.q[i])/float64(s.n[i+d]-s.n[i])
}

// estimate returns the current quantile estimate; with fewer than five
// observations it falls back to the max seen so far (conservative: early
// records do not promote spuriously).
func (s *p2) estimate() float64 {
	if s.cnt == 0 {
		return 0
	}
	if s.cnt < 5 {
		max := s.q[0]
		for _, v := range s.q[1:s.cnt] {
			if v > max {
				max = v
			}
		}
		return max
	}
	return s.q[2]
}

// flightLane is one core's slice of the recorder: a ring of the last
// ringCap records, guarded by the recorder's mutex.
type flightLane struct {
	ring []FlightRec
	n    uint64 // total records ever filed on this core
}

func (ln *flightLane) push(r FlightRec) {
	if len(ln.ring) < cap(ln.ring) {
		ln.ring = append(ln.ring, r)
	} else {
		ln.ring[ln.n%uint64(cap(ln.ring))] = r
	}
	ln.n++
}

// flightAgg is the per-class aggregate stage residency over every record
// seen (not just promoted ones): the same segmentation the tail waterfalls
// use, so a bundle can compare its promoted spans against the population.
type flightAgg struct {
	records     uint64
	promoted    uint64
	totalCycles uint64
	coreCycles  uint64 // issue -> L2 entry, or the whole latency pre-L2
	l2Cycles    uint64 // L2 entry -> TOR entry
	chaCycles   uint64 // TOR entry -> memory-path entry
	devCycles   uint64 // memory-path entry -> done (IMC or M2PCIe/CXL + return)
	byLoc       [16]uint64
	devByLoc    [16]uint64
}

// Flight owns the per-core rings, the promotion pipeline (quantile
// sketches, tail store, exemplars), and the epoch/engine context stamps.
// One goroutine records; mu orders it against HTTP-side snapshot readers
// and guards the rings and the pipeline alike.
type Flight struct {
	enabled atomic.Bool
	epoch   atomic.Uint64

	lanes   []flightLane
	ringCap int
	tailCap int

	mu        sync.Mutex
	seq       uint32
	sketch    [flightClasses]p2
	agg       [flightClasses]flightAgg
	hist      [flightClasses]*Histogram
	tail      []TailRec
	tailN     uint64
	pendingFn func() int // engine-depth probe, called from the sim goroutine
}

// NewFlight sizes the recorder at attach time: cores per-core rings of
// ringCap records each, and a tail store bounded at tailCap promotions
// (older promotions are overwritten).
func NewFlight(cores, ringCap, tailCap int) *Flight {
	if cores < 1 || ringCap < 1 || tailCap < 1 {
		panic(fmt.Sprintf("obs: NewFlight(%d, %d, %d): all sizes must be positive",
			cores, ringCap, tailCap))
	}
	f := &Flight{
		lanes:   make([]flightLane, cores),
		ringCap: ringCap,
		tailCap: tailCap,
		tail:    make([]TailRec, 0, tailCap),
	}
	for i := range f.lanes {
		f.lanes[i].ring = make([]FlightRec, 0, ringCap)
	}
	for c := range f.sketch {
		f.sketch[c] = newP2(0.99)
		f.hist[c] = NewHistogram(flightBounds)
		f.hist[c].AttachExemplars(NewExemplarSet(flightBounds))
	}
	return f
}

// Enabled reports whether the recorder is capturing.  It is safe on a nil
// receiver and cheap enough to sit on the per-op fast path: the machine
// checks it inline before building a record.
func (f *Flight) Enabled() bool { return f != nil && f.enabled.Load() }

// Enable starts capture.
func (f *Flight) Enable() { f.enabled.Store(true) }

// Disable stops capture; rings and tail keep their contents.
func (f *Flight) Disable() { f.enabled.Store(false) }

// Cores returns the number of per-core rings.
func (f *Flight) Cores() int { return len(f.lanes) }

// SetEpoch stamps the profiler epoch promotions record from now on.
func (f *Flight) SetEpoch(e uint64) { f.epoch.Store(e) }

// Epoch returns the current epoch stamp.
func (f *Flight) Epoch() uint64 { return f.epoch.Load() }

// SetPendingProbe installs the engine-depth probe stamped into promotion
// context.  The probe is only invoked from Record, on the goroutine that
// steps the machine, so it may read engine state.
func (f *Flight) SetPendingProbe(fn func() int) {
	f.mu.Lock()
	f.pendingFn = fn
	f.mu.Unlock()
}

// Record files a completed request: ring entry plus the shared promotion
// pipeline.
func (f *Flight) Record(core int, r FlightRec) {
	ln := f.lane(core)
	f.mu.Lock()
	ln.push(r)
	f.process(&r)
	f.mu.Unlock()
}

func (f *Flight) lane(core int) *flightLane {
	if core < 0 || core >= len(f.lanes) {
		panic(fmt.Sprintf("obs: Flight core %d out of range (recorder sized for %d cores)",
			core, len(f.lanes)))
	}
	return &f.lanes[core]
}

// process runs one record through the shared pipeline: aggregates, the
// latency histogram, the quantile sketch, and the promotion decision.
// Caller holds f.mu.
func (f *Flight) process(r *FlightRec) {
	cls := int(r.Class & 1)
	f.seq++
	r.Seq = f.seq
	lat := r.Latency()

	a := &f.agg[cls]
	a.records++
	a.totalCycles += lat
	l2 := uint64(r.L2Start)
	tor := uint64(r.TOREnter)
	mem := uint64(r.MemEnter)
	switch {
	case l2 == 0:
		a.coreCycles += lat
	default:
		a.coreCycles += l2
	}
	if tor > l2 && l2 > 0 {
		a.l2Cycles += tor - l2
	}
	if mem > tor && tor > 0 {
		a.chaCycles += mem - tor
	}
	if mem > 0 && lat > mem {
		dev := lat - mem
		a.devCycles += dev
		a.devByLoc[r.Loc&15] += dev
	}
	a.byLoc[r.Loc&15]++

	f.hist[cls].Observe(float64(lat))

	sk := &f.sketch[cls]
	warm := sk.cnt >= flightWarmup
	thr := 0.0
	if warm {
		thr = sk.estimate()
	}
	sk.observe(float64(lat))
	if warm && float64(lat) >= thr {
		f.promote(r, cls, thr)
	}
}

// promote copies the record into the tail store with its context and pins
// it as the exemplar of its latency bucket.  Caller holds f.mu.
func (f *Flight) promote(r *FlightRec, cls int, thr float64) {
	t := TailRec{FlightRec: *r, Epoch: f.epoch.Load(), Pending: -1, Threshold: thr}
	if f.pendingFn != nil {
		t.Pending = int32(f.pendingFn())
	}
	if len(f.tail) < cap(f.tail) {
		f.tail = append(f.tail, t)
	} else {
		f.tail[f.tailN%uint64(cap(f.tail))] = t
	}
	f.tailN++
	f.agg[cls].promoted++
	f.hist[cls].MarkExemplar(float64(r.Latency()), r.Seq, r.Done)
}

// RecordsTotal is the count of records ever filed across all cores.
func (f *Flight) RecordsTotal() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.recordsLocked()
}

func (f *Flight) recordsLocked() uint64 {
	var n uint64
	for i := range f.lanes {
		n += f.lanes[i].n
	}
	return n
}

// Promoted is the count of records ever promoted to the tail store.
func (f *Flight) Promoted() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tailN
}

// Seen returns the per-class record count through the promotion pipeline.
func (f *Flight) Seen(class int) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.agg[class&1].records
}

// Threshold returns the current promotion threshold (p99 estimate) for a
// class, 0 while the sketch is still warming up.
func (f *Flight) Threshold(class int) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	sk := &f.sketch[class&1]
	if sk.cnt < flightWarmup {
		return 0
	}
	return sk.estimate()
}

// TailRecs returns the promoted records, oldest first.
func (f *Flight) TailRecs() []TailRec {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tailLocked()
}

func (f *Flight) tailLocked() []TailRec {
	out := make([]TailRec, 0, len(f.tail))
	if f.tailN > uint64(len(f.tail)) {
		// Ring has wrapped: oldest entry sits at the write position.
		pos := f.tailN % uint64(cap(f.tail))
		out = append(out, f.tail[pos:]...)
		out = append(out, f.tail[:pos]...)
	} else {
		out = append(out, f.tail...)
	}
	return out
}

// CoreRecords returns one core's ring contents, oldest first.
func (f *Flight) CoreRecords(core int) []FlightRec {
	ln := f.lane(core)
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightRec, 0, len(ln.ring))
	if ln.n > uint64(len(ln.ring)) {
		pos := ln.n % uint64(cap(ln.ring))
		out = append(out, ln.ring[pos:]...)
		out = append(out, ln.ring[:pos]...)
	} else {
		out = append(out, ln.ring...)
	}
	return out
}

// FlightHist is a histogram snapshot with its exemplars.
type FlightHist struct {
	Bounds    []float64  `json:"bounds"`
	Counts    []uint64   `json:"counts"` // len(bounds)+1; last bucket is overflow
	Sum       float64    `json:"sum"`
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// FlightClassStats is the per-class slice of a snapshot.
type FlightClassStats struct {
	Name        string     `json:"name"`
	Records     uint64     `json:"records"`
	Promoted    uint64     `json:"promoted"`
	Threshold   float64    `json:"threshold_cycles"`
	TotalCycles uint64     `json:"total_cycles"`
	CoreCycles  uint64     `json:"core_cycles"`
	L2Cycles    uint64     `json:"l2_cycles"`
	CHACycles   uint64     `json:"cha_cycles"`
	DevCycles   uint64     `json:"dev_cycles"`
	ByLoc       []uint64   `json:"by_loc"`
	DevByLoc    []uint64   `json:"dev_cycles_by_loc"`
	Hist        FlightHist `json:"hist"`
}

// FlightSnapshot is the /flight JSON document and the flight section of a
// postmortem bundle.
type FlightSnapshot struct {
	Enabled  bool               `json:"enabled"`
	Epoch    uint64             `json:"epoch"`
	Cores    int                `json:"cores"`
	RingCap  int                `json:"ring_cap"`
	TailCap  int                `json:"tail_cap"`
	Records  uint64             `json:"records"`
	Promoted uint64             `json:"promoted"`
	Classes  []FlightClassStats `json:"classes"`
	Tail     []TailRec          `json:"tail"`
}

// Snapshot captures the recorder state for /flight and bundles.  It
// allocates; it is not for the sim hot path.
func (f *Flight) Snapshot() FlightSnapshot {
	s := FlightSnapshot{
		Enabled: f.Enabled(),
		Epoch:   f.epoch.Load(),
		Cores:   len(f.lanes),
		RingCap: f.ringCap,
		TailCap: f.tailCap,
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s.Records = f.recordsLocked()
	s.Promoted = f.tailN
	s.Tail = f.tailLocked()
	s.Classes = make([]FlightClassStats, flightClasses)
	for c := 0; c < flightClasses; c++ {
		a := &f.agg[c]
		cs := &s.Classes[c]
		cs.Name = FlightClassName(uint8(c))
		cs.Records = a.records
		cs.Promoted = a.promoted
		if f.sketch[c].cnt >= flightWarmup {
			cs.Threshold = f.sketch[c].estimate()
		}
		cs.TotalCycles = a.totalCycles
		cs.CoreCycles = a.coreCycles
		cs.L2Cycles = a.l2Cycles
		cs.CHACycles = a.chaCycles
		cs.DevCycles = a.devCycles
		cs.ByLoc = append([]uint64(nil), a.byLoc[:]...)
		cs.DevByLoc = append([]uint64(nil), a.devByLoc[:]...)
		h := f.hist[c]
		cs.Hist = FlightHist{
			Bounds: append([]float64(nil), flightBounds...),
			Counts: h.BucketCounts(),
			Sum:    h.Sum(),
		}
		if es := h.Exemplars(); es != nil {
			cs.Hist.Exemplars = es.Snapshot()
		}
	}
	return s
}

// RegisterMetrics exposes the recorder's headline numbers on a metrics
// registry; values are read at scrape time.
func (f *Flight) RegisterMetrics(reg *Registry) {
	reg.GaugeFunc("pf_flight_records_total", "flight records filed",
		func() float64 { return float64(f.RecordsTotal()) })
	reg.GaugeFunc("pf_flight_promoted_total", "flight records promoted to the tail store",
		func() float64 { return float64(f.Promoted()) })
	for c := 0; c < flightClasses; c++ {
		c := c
		reg.GaugeFunc(
			fmt.Sprintf("pf_flight_threshold_cycles{class=%q}", FlightClassName(uint8(c))),
			"current promotion threshold (online p99)",
			func() float64 { return f.Threshold(c) })
	}
}
