package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Flight is the always-on flight recorder: every completed demand load and
// store leaves a compact fixed-size record in a per-core ring buffer, and
// the requests whose end-to-end latency lands beyond an adaptive per-class
// threshold (an online p99 estimate from a streaming P² quantile sketch)
// are promoted into a bounded tail store together with their promotion
// context.  A record carries every crossing of the request's path, so the
// same record feeds tail capture, the per-stage residency aggregates, and
// the sampled Perfetto waterfall (Sample, WriteChromeTrace).
//
// The recorder is strictly an observer: it never touches engine, cache, or
// PMU state, so simulated timing is byte-identical with it attached (the
// golden digest suites prove this on the sweep and the dispatch oracle).
// The hot path is allocation-free after a core's first record: records are
// packed value structs, a core's ring is allocated at full capacity when
// it files its first record (a recorder sized for 32 cores with four busy
// holds four rings), and the quantile sketch is five fixed markers.

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
// label the path maps use.
func FlightClassName(c uint8) string {
	if c&1 == FlightStore {
		return "DWr"
	}
	return "DRd"
}

// flightBounds is the latency histogram (and exemplar) bucketing in core
// cycles: L1 hits land in the first buckets, local DRAM around 200-400,
// healthy CXL at 700-1500, and the retry/viral pathologies beyond.  The
// bounds are the powers of two from 8 to 16384; flightHist.observe relies
// on it.
var flightBounds = []float64{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}

// Memory paths a record can take past the LLC (FlightRec.Path).
const (
	FlightPathNone = 0 // served in the core or a cache
	FlightPathIMC  = 1 // a local or remote DRAM channel
	FlightPathCXL  = 2 // the M2PCIe port, the FlexBus link and a CXL device
)

// FlightRec is the packed per-request record (56 bytes, no pointers, no
// heap).  Every crossing is a 32-bit cycle delta from Issue; a zero delta
// means the request never reached it (an L1 hit has no L2 entry).  Loc is
// the sim-side ServeLoc ordinal — obs cannot import the simulator, so the
// CLI tools map it back to a name.
type FlightRec struct {
	Addr  uint64 `json:"addr"`
	Issue uint64 `json:"issue"`
	Lat   uint32 `json:"latency"` // Done - Issue

	L2Start  uint32 `json:"l2_start"`  // L1D miss found, L2 lookup begins
	TOREnter uint32 `json:"tor_enter"` // TOR insert at the home CHA
	MemEnter uint32 `json:"mem_enter"` // memory path entered (IMC or M2PCIe)

	// The device crossings of the request's own read.  M2PExit,
	// DevArrive and MediaStart are CXL-only; DataReady is when the IMC or
	// the CXL device had the data.
	M2PExit    uint32 `json:"m2p_exit"`    // link transfer to the device starts
	DevArrive  uint32 `json:"dev_arrive"`  // request reaches the device
	MediaStart uint32 `json:"media_start"` // device media access begins
	DataReady  uint32 `json:"data_ready"`  // data ready at the IMC or device

	// Replay is a duration, not a crossing: the LRSM replay cycles of the
	// request's own link transfers (CRC-corrupted flits resent).  It lies
	// inside the m2pcie and cxl_return stages.
	Replay uint32 `json:"replay"`

	Core  uint8 `json:"core"`
	Class uint8 `json:"class"` // FlightLoad or FlightStore
	Loc   uint8 `json:"loc"`   // ServeLoc ordinal
	Path  uint8 `json:"path"`  // FlightPathNone, FlightPathIMC or FlightPathCXL
}

// Latency is the end-to-end request latency in cycles.
func (r *FlightRec) Latency() uint64 { return uint64(r.Lat) }

// Done is the completion cycle.
func (r *FlightRec) Done() uint64 { return r.Issue + uint64(r.Lat) }

// Stage identifies one segment of a request's traversal of the machine —
// the waterfall rows of the paper's §2.2 data paths.
type Stage uint8

// Stages, in path order.  StageReq is the whole request and StageLRSM the
// replay detours inside the link stages; the others partition a request.
const (
	StageReq      Stage = iota // whole request: issue -> done
	StageCore                  // issue -> L2 lookup: SB and LFB waits, L1D
	StageL2                    // L2 lookup -> TOR insert, or -> done on an L2 hit
	StageCHA                   // TOR insert -> memory path, or -> done on an LLC hit
	StageIMC                   // IMC queues and DRAM media (and UPI when remote)
	StageIMCRet                // DRAM data ready -> done: mesh hop back, fill
	StageM2PCIe                // M2PCIe ingress: mesh -> link credit, M2S replays
	StageCXLLink               // FlexBus serialization + flight, host -> device
	StageCXLDevQ               // device packing buffer + controller + RPQ wait
	StageCXLMedia              // device media access
	StageCXLRet                // device data -> done: link back, M2PCIe, mesh
	StageLRSM                  // LRSM replay cycles (inside m2pcie, cxl_return)
	StageCount
)

var stageNames = [StageCount]string{
	"req", "core", "l2", "cha", "imc", "imc_return",
	"m2pcie", "cxl_link", "cxl_devq", "cxl_media", "cxl_return", "lrsm_replay",
}

// String returns the stage's waterfall/export name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// Span is one stage of a record, in cycles from its Issue.
type Span struct {
	Stage      Stage
	Start, End uint32
}

// MaxStages bounds a record's partition: core, l2, cha and the five
// stages of a CXL read.
const MaxStages = 8

// Stages partitions the record's [Issue, Done] at the crossings it reached
// into consecutive stage spans, in path order, dropping empty ones.  A
// stage runs from its crossing to the next crossing reached, so the last
// one reached runs to Done: an L2 hit's l2 stage ends at Done, and a
// store's L1D write and TSO commit wait land in the stage its RFO ended
// in.  The spans' lengths sum to Latency() for any record, including one
// decoded from a corrupt bundle (crossings are clamped to the latency).
func (r *FlightRec) Stages(buf *[MaxStages]Span) []Span {
	type mark struct {
		at uint32
		st Stage
	}
	marks := [7]mark{{r.L2Start, StageL2}, {r.TOREnter, StageCHA}}
	n := 2
	switch r.Path {
	case FlightPathIMC:
		marks[2] = mark{r.MemEnter, StageIMC}
		marks[3] = mark{r.DataReady, StageIMCRet}
		n = 4
	case FlightPathCXL:
		marks[2] = mark{r.MemEnter, StageM2PCIe}
		marks[3] = mark{r.M2PExit, StageCXLLink}
		marks[4] = mark{r.DevArrive, StageCXLDevQ}
		marks[5] = mark{r.MediaStart, StageCXLMedia}
		marks[6] = mark{r.DataReady, StageCXLRet}
		n = 7
	}
	out := buf[:0]
	from, cur := uint32(0), StageCore
	for _, m := range marks[:n] {
		if m.at == 0 {
			continue // never reached
		}
		at := min(m.at, r.Lat)
		if at > from {
			out = append(out, Span{Stage: cur, Start: from, End: at})
			from = at
		}
		cur = m.st
	}
	if r.Lat > from {
		out = append(out, Span{Stage: cur, Start: from, End: r.Lat})
	}
	return out
}

// TailRec is a promoted record: the full FlightRec plus the context the
// promotion pipeline stamps at decision time.
type TailRec struct {
	FlightRec
	Seq       uint32  `json:"seq"`            // promotion-pipeline sequence number
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
// ringCap records, guarded by the recorder's mutex.  ring stays nil until
// the core's first record.
type flightLane struct {
	ring []FlightRec
	n    uint64 // total records ever filed on this core
}

func (ln *flightLane) push(r FlightRec, ringCap int) {
	if ln.ring == nil {
		ln.ring = make([]FlightRec, 0, ringCap)
	}
	if len(ln.ring) < cap(ln.ring) {
		ln.ring = append(ln.ring, r)
	} else {
		ln.ring[ln.n%uint64(cap(ln.ring))] = r
	}
	ln.n++
}

// flightHist is one class's latency histogram over flightBounds: bucket
// counts (the last is the overflow bucket) and the running sum, plain
// fields under the recorder's mutex, plus the exemplar of each bucket.
type flightHist struct {
	counts []uint64 // len(flightBounds)+1
	sum    float64
	ex     *ExemplarSet
}

// observe files one latency: bucket i holds the values in
// (bounds[i-1], bounds[i]], the last bucket everything above the top bound.
// The bounds are 8·2^i, so past the first bucket a latency's bucket is the
// bit length of lat-1 less three.
func (h *flightHist) observe(lat uint64) {
	b := 0
	if lat > 8 {
		b = min(bits.Len64(lat-1)-3, len(flightBounds))
	}
	h.counts[b]++
	h.sum += float64(lat)
}

// StageTotals accumulates records stage by stage: how many records had
// each stage non-empty, and the cycles they spent in it.
type StageTotals struct {
	Spans, Cycles [StageCount]uint64
}

// Add files one record: its latency under StageReq, its partition
// (FlightRec.Stages), and its replay cycles under StageLRSM.
func (t *StageTotals) Add(r *FlightRec) {
	t.add(StageReq, r.Lat)
	var buf [MaxStages]Span
	for _, sp := range r.Stages(&buf) {
		t.add(sp.Stage, sp.End-sp.Start)
	}
	t.add(StageLRSM, r.Replay)
}

func (t *StageTotals) add(st Stage, cycles uint32) {
	if cycles > 0 {
		t.Spans[st]++
		t.Cycles[st] += uint64(cycles)
	}
}

// flightAgg is the per-class aggregate over every record seen (not just
// promoted ones): its stage totals are the same partition the tail
// waterfalls and the /trace export draw, so a bundle can compare its
// promoted spans against the population.
type flightAgg struct {
	records  uint64
	promoted uint64
	stages   StageTotals
	byLoc    [16]uint64
	devByLoc [16]uint64 // memory-path entry -> done, by serve location
}

// file adds one record.
func (a *flightAgg) file(r *FlightRec) {
	a.records++
	a.stages.Add(r)
	if mem := r.MemEnter; mem > 0 && r.Lat > mem {
		a.devByLoc[r.Loc&15] += uint64(r.Lat - mem)
	}
	a.byLoc[r.Loc&15]++
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
	hist      [flightClasses]flightHist
	tail      []TailRec
	tailN     uint64
	pendingFn func() int // engine-depth probe, called from the sim goroutine
}

// NewFlight sizes the recorder at attach time: cores per-core rings of
// ringCap records each, each allocated at its core's first record, and a
// tail store bounded at tailCap promotions (older promotions are
// overwritten).
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
	for c := range f.sketch {
		f.sketch[c] = newP2(0.99)
		f.hist[c] = flightHist{
			counts: make([]uint64, len(flightBounds)+1),
			ex:     NewExemplarSet(flightBounds),
		}
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
	ln.push(r, f.ringCap)
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
	lat := r.Latency()
	f.agg[cls].file(r)
	f.hist[cls].observe(lat)

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
	t := TailRec{FlightRec: *r, Seq: f.seq, Epoch: f.epoch.Load(), Pending: -1, Threshold: thr}
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
	f.hist[cls].ex.Mark(float64(r.Latency()), t.Seq, r.Done())
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

// Stages returns the stage totals over every record filed, both classes.
func (f *Flight) Stages() StageTotals {
	f.mu.Lock()
	defer f.mu.Unlock()
	var t StageTotals
	for c := range f.agg {
		for st := range t.Spans {
			t.Spans[st] += f.agg[c].stages.Spans[st]
			t.Cycles[st] += f.agg[c].stages.Cycles[st]
		}
	}
	return t
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

// first returns the per-core ordinal of the oldest record the ring holds;
// it holds ordinals first() through n-1.
func (ln *flightLane) first() uint64 { return ln.n - uint64(len(ln.ring)) }

// at returns the record with per-core ordinal k, which the ring holds.
func (ln *flightLane) at(k uint64) FlightRec {
	return ln.ring[k%uint64(cap(ln.ring))]
}

// TraceRec is a record picked for export, with the id of its track.
type TraceRec struct {
	FlightRec
	ID uint64 // the core's record ordinal (0 = its first), or a tail Seq
}

// Sample returns one record in every from each core's ring: those whose
// per-core ordinal is a multiple of every, core by core, oldest first.
// The pick depends only on each core's own record stream, so a fixed seed
// exports the same records at any ring size that still holds them.
// every < 1 is treated as 1.
func (f *Flight) Sample(every int) []TraceRec {
	n := uint64(max(every, 1))
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []TraceRec
	for i := range f.lanes {
		ln := &f.lanes[i]
		for k := (ln.first() + n - 1) / n * n; k < ln.n; k += n {
			out = append(out, TraceRec{FlightRec: ln.at(k), ID: k})
		}
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

// StageStat is one stage's aggregate over a class's records: how many
// records had the stage non-empty and the cycles they spent in it.
type StageStat struct {
	Stage  string `json:"stage"`
	Spans  uint64 `json:"spans"`
	Cycles uint64 `json:"cycles"`
}

// FlightClassStats is the per-class slice of a snapshot.  Stages lists
// every stage in path order; "req" is the end-to-end latency.
type FlightClassStats struct {
	Name      string      `json:"name"`
	Records   uint64      `json:"records"`
	Promoted  uint64      `json:"promoted"`
	Threshold float64     `json:"threshold_cycles"`
	Stages    []StageStat `json:"stages"`
	ByLoc     []uint64    `json:"by_loc"`
	DevByLoc  []uint64    `json:"dev_cycles_by_loc"`
	Hist      FlightHist  `json:"hist"`
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
		cs.Stages = make([]StageStat, StageCount)
		for st := range cs.Stages {
			cs.Stages[st] = StageStat{Stage: Stage(st).String(),
				Spans: a.stages.Spans[st], Cycles: a.stages.Cycles[st]}
		}
		cs.ByLoc = append([]uint64(nil), a.byLoc[:]...)
		cs.DevByLoc = append([]uint64(nil), a.devByLoc[:]...)
		h := &f.hist[c]
		cs.Hist = FlightHist{
			Bounds:    append([]float64(nil), flightBounds...),
			Counts:    append([]uint64(nil), h.counts...),
			Sum:       h.sum,
			Exemplars: h.ex.Snapshot(),
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
