package sim

import (
	"fmt"

	"pathfinder/internal/cxl"
	"pathfinder/internal/pmu"
)

// server is a work-conserving FCFS resource with a fixed per-item service
// time: the standard next-free-clock model for bandwidth-limited links and
// channels.  The clock is fractional so sub-cycle service times (high
// bandwidths) are not quantized away.
type server struct {
	nextFree float64
	service  float64
}

// acquire returns the service start time for an item arriving at arrival
// and advances the resource clock.
func (s *server) acquire(arrival Cycles) Cycles {
	start := float64(arrival)
	if s.nextFree > start {
		start = s.nextFree
	}
	s.nextFree = start + s.service
	return Cycles(start)
}

// byteServer is a bandwidth resource whose service time scales with the
// transferred size — the FlexBus link, whose flit-level cost differs
// between header-only messages (Req/NDR) and data-carrying ones (RwD/DRS).
type byteServer struct {
	nextFree float64
	perByte  float64 // cycles per wire byte
}

// acquire returns the transfer start time for size wire bytes arriving at
// arrival and advances the link clock.
func (s *byteServer) acquire(arrival Cycles, size float64) Cycles {
	start := float64(arrival)
	if s.nextFree > start {
		start = s.nextFree
	}
	s.nextFree = start + size*s.perByte
	return Cycles(start)
}

// boundedQueue computes FCFS admission into a finite buffer without
// per-cycle simulation: the k-th admission can enter once the (k-cap)-th
// entry has departed, so a ring of the last cap departure times yields the
// earliest admission instant.
type boundedQueue struct {
	dep []Cycles
	idx int
}

func newBoundedQueue(capacity int) *boundedQueue {
	if capacity <= 0 {
		return &boundedQueue{}
	}
	return &boundedQueue{dep: make([]Cycles, capacity)}
}

// admit returns the earliest time an item arriving at arrival can enter.
func (q *boundedQueue) admit(arrival Cycles) Cycles {
	if len(q.dep) == 0 {
		return arrival
	}
	if t := q.dep[q.idx]; t > arrival {
		return t
	}
	return arrival
}

// commit records the departure time of the item just admitted.  Departures
// must be committed in admission order (FCFS).
func (q *boundedQueue) commit(depart Cycles) {
	if len(q.dep) == 0 {
		return
	}
	q.dep[q.idx] = depart
	q.idx++
	if q.idx == len(q.dep) {
		q.idx = 0
	}
}

// ---------------------------------------------------------------------------
// Scenario tables: ServeLoc -> counter sub-event lists.
// ---------------------------------------------------------------------------

// drdScnTable maps a serve location to the nine-way DRd/OCR scenario
// sub-events it increments.  hit_llc means "served by a cache on this
// socket"; the finer local/snc/peer split is carried by the
// mem_load_l3_hit_retired family.
var drdScnTable = [srvCount][]int{
	SrvLLC:        {pmu.ScnAny, pmu.ScnHit},
	SrvPeerCache:  {pmu.ScnAny, pmu.ScnHit},
	SrvSNCLLC:     {pmu.ScnAny, pmu.ScnHit},
	SrvRemoteLLC:  {pmu.ScnAny, pmu.ScnMiss, pmu.ScnMissRemote},
	SrvLocalDRAM:  {pmu.ScnAny, pmu.ScnMiss, pmu.ScnMissDDR, pmu.ScnMissLocal, pmu.ScnMissLocalDDR},
	SrvRemoteDRAM: {pmu.ScnAny, pmu.ScnMiss, pmu.ScnMissDDR, pmu.ScnMissRemote, pmu.ScnMissRemoteDDR},
	SrvCXL:        {pmu.ScnAny, pmu.ScnMiss, pmu.ScnMissCXL},
}

// rfoScnTable is the six-way RFO scenario equivalent.
var rfoScnTable = [srvCount][]int{
	SrvLLC:        {pmu.RFOAny, pmu.RFOHit},
	SrvPeerCache:  {pmu.RFOAny, pmu.RFOHit},
	SrvSNCLLC:     {pmu.RFOAny, pmu.RFOHit},
	SrvRemoteLLC:  {pmu.RFOAny, pmu.RFOMiss, pmu.RFOMissRemote},
	SrvLocalDRAM:  {pmu.RFOAny, pmu.RFOMiss, pmu.RFOMissLocal},
	SrvRemoteDRAM: {pmu.RFOAny, pmu.RFOMiss, pmu.RFOMissRemote},
	SrvCXL:        {pmu.RFOAny, pmu.RFOMiss, pmu.RFOMissCXL},
}

// iaScnTable is the four-way all-requests TOR scenario equivalent.
var iaScnTable = [srvCount][]int{
	SrvLLC:        {pmu.IAAll, pmu.IAHit},
	SrvPeerCache:  {pmu.IAAll, pmu.IAHit},
	SrvSNCLLC:     {pmu.IAAll, pmu.IAHit},
	SrvRemoteLLC:  {pmu.IAAll, pmu.IAMiss},
	SrvLocalDRAM:  {pmu.IAAll, pmu.IAMiss},
	SrvRemoteDRAM: {pmu.IAAll, pmu.IAMiss},
	SrvCXL:        {pmu.IAAll, pmu.IAMiss, pmu.IAMissCXL},
}

// ocrFamilyOf returns the core-PMU offcore-response family for a request
// class, or nil when the class has none (writebacks use
// ocr.modified_write.any_response instead).
func ocrFamilyOf(class ReqClass) pmu.Family {
	switch class {
	case ClassDRd, ClassSWPF:
		return pmu.OCRDemandDataRd
	case ClassRFO:
		return pmu.OCRRFO
	case ClassL1PF:
		return pmu.OCRL1DHWPF
	case ClassL2PFDRd:
		return pmu.OCRL2HWPFDRd
	case ClassL2PFRFO:
		return pmu.OCRL2HWPFRFO
	}
	return nil
}

// ---------------------------------------------------------------------------
// CHA slice: an LLC slice, its snoop-filter presence bits, and a TOR with
// per-scenario occupancy integrators.
// ---------------------------------------------------------------------------

// The TOR's occupancy and not-empty counters come in five scenario families
// (IA, DRd, DRd prefetch, RFO, RFO prefetch).  A slice integrates each
// scenario's pair in one of torInts integrators, numbered family by family.
const (
	torIA      = 0
	torDRd     = torIA + pmu.IAScnCount
	torDRdPref = torDRd + pmu.ScnCount
	torRFO     = torDRdPref + pmu.ScnCount
	torRFOPref = torRFO + pmu.RFOScnCount
	torInts    = torRFOPref + pmu.RFOScnCount
)

// torCounters are one integrator's insert, occupancy and not-empty events.
type torCounters struct{ ins, occ, ne pmu.Event }

// torCtr maps each integrator to its counters.
var torCtr = func() (t [torInts]torCounters) {
	for _, f := range [...]struct {
		base         int
		ins, occ, ne pmu.Family
	}{
		{torIA, pmu.TORInsertsIA, pmu.TOROccupancyIA, pmu.TORCyclesNEIA},
		{torDRd, pmu.TORInsertsIADRd, pmu.TOROccupancyIADRd, pmu.TORCyclesNEIADRd},
		{torDRdPref, pmu.TORInsertsIADRdPref, pmu.TOROccupancyIADRdPref, pmu.TORCyclesNEIADRdPref},
		{torRFO, pmu.TORInsertsIARFO, pmu.TOROccupancyIARFO, pmu.TORCyclesNEIARFO},
		{torRFOPref, pmu.TORInsertsIARFOPref, pmu.TOROccupancyIARFOPref, pmu.TORCyclesNEIARFOPref},
	} {
		for scn := range f.ins {
			t[f.base+scn] = torCounters{f.ins[scn], f.occ[scn], f.ne[scn]}
		}
	}
	return t
}()

// torGroups lists, per (request family, serve location) group, the
// integrators one TOR residency enters: its family's scenarios, then the
// IA family's.  torGroupOf numbers the groups.
var torGroups = func() (g [4 * srvCount][]uint8) {
	for fam, base := range [4]int{torDRd, torDRdPref, torRFO, torRFOPref} {
		for loc := range srvCount {
			scns := drdScnTable[loc]
			if base == torRFO || base == torRFOPref {
				scns = rfoScnTable[loc]
			}
			var ints []uint8
			for _, scn := range scns {
				ints = append(ints, uint8(base+scn))
			}
			for _, scn := range iaScnTable[loc] {
				ints = append(ints, uint8(torIA+scn))
			}
			g[fam*int(srvCount)+int(loc)] = ints
		}
	}
	return g
}()

// torGroupOf returns the TOR group of a request class served at loc, or -1
// for a class the TOR families do not track.
func torGroupOf(class ReqClass, loc ServeLoc) int {
	fam := 0
	switch class {
	case ClassDRd, ClassSWPF:
	case ClassL1PF, ClassL2PFDRd:
		fam = 1
	case ClassRFO:
		fam = 2
	case ClassL2PFRFO:
		fam = 3
	default:
		return -1
	}
	return fam*int(srvCount) + int(loc)
}

// chaSlice is one LLC slice with its caching-and-home-agent bookkeeping.
type chaSlice struct {
	id      int
	cluster int
	llc     *Cache
	bank    *pmu.Bank

	// The TOR integrators: each one's occupancy and the cycle it was
	// integrated to, and one min-heap of pending leaves, each packed as
	// leave cycle<<8 | group.
	torCur   [torInts]int32
	torLast  [torInts]Cycles
	torLeave []uint64

	wbmtoi *pmu.OccTracker
}

func newCHASlice(id, cluster int, llcBytes, ways int, bank *pmu.Bank) *chaSlice {
	return &chaSlice{
		id:      id,
		cluster: cluster,
		llc:     newLLC(llcBytes, ways),
		bank:    bank,
		wbmtoi:  pmu.NewOccTracker(bank, pmu.TOROccupancyIAWBMToI, -1, -1, 0),
	}
}

// torPulse is the evTORPulse payload: one whole TOR residency of group g —
// the leaves due by now first, then the group's insert counters and rising
// edges at now, and its leave queued for cycle leave.  Each counter gets
// the adds a pmu.OccTracker per scenario would give it, in the same order.
func (s *chaSlice) torPulse(now, leave Cycles, g int) {
	if leave >= 1<<56 {
		panic(fmt.Sprintf("sim: TOR leave cycle %d does not fit the leave heap", leave))
	}
	s.torSettle(now)
	ints := torGroups[g]
	for _, i := range ints {
		s.bank.Inc(torCtr[i].ins)
	}
	s.torStep(ints, now, +1)
	h := append(s.torLeave, leave<<8|uint64(g))
	for j := len(h) - 1; j > 0; {
		p := (j - 1) / 2
		if h[p] <= h[j] {
			break
		}
		h[p], h[j] = h[j], h[p]
		j = p
	}
	s.torLeave = h
}

// torSettle applies the leaves due by now in cycle order: each integrates
// its group up to the leave cycle and then decrements it.
func (s *chaSlice) torSettle(now Cycles) {
	h := s.torLeave
	for len(h) > 0 && h[0]>>8 <= now {
		top := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for j := 0; ; {
			m := 2*j + 1
			if m >= n {
				break
			}
			if r := m + 1; r < n && h[r] < h[m] {
				m = r
			}
			if h[j] <= h[m] {
				break
			}
			h[j], h[m] = h[m], h[j]
			j = m
		}
		s.torStep(torGroups[top&0xff], top>>8, -1)
	}
	s.torLeave = h
}

// torStep integrates each integrator of ints up to cycle t at its current
// occupancy, exactly as pmu.OccTracker does, and then adds delta to it.
func (s *chaSlice) torStep(ints []uint8, t Cycles, delta int32) {
	for _, i := range ints {
		if last := s.torLast[i]; t > last {
			s.torLast[i] = t
			if c := s.torCur[i]; c > 0 {
				d := t - last
				s.bank.Add(torCtr[i].occ, uint64(c)*d)
				s.bank.Add(torCtr[i].ne, d)
			}
		}
		s.torCur[i] += delta
	}
}

// torAll lists every TOR integrator, for sync.
var torAll = func() (a [torInts]uint8) {
	for i := range a {
		a[i] = uint8(i)
	}
	return a
}()

// sync settles the TOR and the writeback tracker up to now so a snapshot
// observes up-to-date integrals.
func (s *chaSlice) sync(now Cycles) {
	s.torSettle(now)
	s.torStep(torAll[:], now, 0)
	s.wbmtoi.Advance(now)
	s.bank.Add(pmu.CHAClockticks, 0) // clockticks are set by the machine
}

// ---------------------------------------------------------------------------
// IMC channel.
// ---------------------------------------------------------------------------

type imcChannel struct {
	idx  int // position in Machine.chans
	bank *pmu.Bank
	bus  server // channel data bus (bandwidth)
	lat  Cycles // media latency

	rpq, wpq       *boundedQueue
	rpqOcc, wpqOcc *pmu.OccTracker
}

func newIMCChannel(idx int, bank *pmu.Bank, service float64, lat Cycles, rpqEntries, wpqEntries int) *imcChannel {
	return &imcChannel{
		idx:    idx,
		bank:   bank,
		bus:    server{service: service},
		lat:    lat,
		rpq:    newBoundedQueue(rpqEntries),
		wpq:    newBoundedQueue(wpqEntries),
		rpqOcc: pmu.NewOccTracker(bank, pmu.RPQOccupancy, pmu.RPQCyclesNE, -1, rpqEntries),
		wpqOcc: pmu.NewOccTracker(bank, pmu.WPQOccupancy, pmu.WPQCyclesNE, -1, wpqEntries),
	}
}

// read services a line read arriving at arrival and returns the data-ready
// time.  Counter updates are scheduled on eng so trackers observe
// chronological order.
func (ch *imcChannel) read(eng *Engine, arrival Cycles) Cycles {
	admit := ch.rpq.admit(arrival)
	start := ch.bus.acquire(admit)
	data := start + ch.lat
	ch.rpq.commit(data) // RPQ entry is held until data returns
	eng.obsAt(admit, evIMCReadAdmit, ch.idx, 0, uint64(data))
	return data
}

// write services a line write (posted).  It returns the WPQ admission time
// — the instant the queue could accept the write, which backpressures the
// evicting fill when the queue is full — and the media drain time.
func (ch *imcChannel) write(eng *Engine, arrival Cycles) (admitted, drained Cycles) {
	admit := ch.wpq.admit(arrival)
	start := ch.bus.acquire(admit)
	done := start + ch.lat
	ch.wpq.commit(done)
	eng.obsAt(admit, evIMCWriteAdmit, ch.idx, 0, uint64(done))
	return admit, done
}

func (ch *imcChannel) sync(now Cycles) {
	ch.rpqOcc.Advance(now)
	ch.wpqOcc.Advance(now)
}

// ---------------------------------------------------------------------------
// CXL port: the M2PCIe/FlexBus host side plus the attached Type-3 device.
// ---------------------------------------------------------------------------

type cxlPort struct {
	id  int
	cfg *Config

	m2pBank *pmu.Bank
	devBank *pmu.Bank

	ingress *pmu.OccTracker // M2PCIe ingress queue (mesh -> link)
	linkTx  byteServer      // host -> device link bandwidth
	linkRx  byteServer      // device -> host link bandwidth

	// Link reliability: the fault plan (nil = healthy), the per-direction
	// transmission index feeding its deterministic corruption draws, the
	// LRSM retry-buffer size, and the occupancy tracker observing flits
	// parked awaiting acknowledgement.
	plan         *cxl.FaultPlan
	txIdx        [2]uint64
	retryEntries int
	retryOcc     *pmu.OccTracker

	// qos integrates the CXL 3.x DevLoad telemetry over the device-side
	// queue pressure (RPQ + WPQ + packing buffers).
	qos     *cxl.LoadTracker
	qosBase [4]uint64 // cycles already exported to the bank

	packReq                 *boundedQueue // device Mem Request ingress packing buffer
	packData                *boundedQueue // device Mem Data ingress packing buffer
	packReqOcc, packDataOcc *pmu.OccTracker

	devRPQ, devWPQ       *boundedQueue
	devRPQOcc, devWPQOcc *pmu.OccTracker
	media                server // device media bandwidth

	// RAS escalation state.  All three evolve in request-issue order, which
	// the single-threaded engine makes deterministic, so same-seed replays
	// produce byte-identical counter streams.
	poisonSeen  uint64 // poisoned reads counted toward the viral threshold
	viral       bool   // device is in viral containment
	viralUntil  Cycles // reset instant clearing viral (0 = permanent)
	removalSeen bool   // root port already counted the surprise removal
}

func newCXLPort(id int, cfg *Config, m2pBank, devBank *pmu.Bank) *cxlPort {
	perByte := cfg.serviceCycles(cfg.FlexBusGBs) / 64 // cycles per wire byte
	retryEntries := cfg.LinkRetryBufEntries
	if retryEntries <= 0 {
		retryEntries = cxl.DefaultRetryBufEntries
	}
	return &cxlPort{
		id:      id,
		cfg:     cfg,
		m2pBank: m2pBank,
		devBank: devBank,
		ingress: pmu.NewOccTracker(m2pBank, pmu.M2PRxOccupancy, pmu.M2PRxCyclesNE, -1, 0),
		linkTx:  byteServer{perByte: perByte},
		linkRx:  byteServer{perByte: perByte},
		qos:     cxl.NewLoadTracker(maxInt(cfg.CXLRPQEntries, cfg.CXLWPQEntries) + cfg.PackBufEntries),

		plan:         cfg.Faults,
		retryEntries: retryEntries,
		retryOcc: pmu.NewOccTracker(devBank, pmu.CXLLinkRetryBufOcc,
			pmu.CXLLinkRetryBufNE, -1, retryEntries),

		packReq:  newBoundedQueue(cfg.PackBufEntries),
		packData: newBoundedQueue(cfg.PackBufEntries),
		packReqOcc: pmu.NewOccTracker(devBank, pmu.CXLRxPackBufOccReq,
			pmu.CXLRxPackBufNEReq, pmu.CXLRxPackBufFullReq, cfg.PackBufEntries),
		packDataOcc: pmu.NewOccTracker(devBank, pmu.CXLRxPackBufOccData,
			pmu.CXLRxPackBufNEData, pmu.CXLRxPackBufFullData, cfg.PackBufEntries),

		devRPQ: newBoundedQueue(cfg.CXLRPQEntries),
		devWPQ: newBoundedQueue(cfg.CXLWPQEntries),
		devRPQOcc: pmu.NewOccTracker(devBank, pmu.CXLDevRPQOccupancy,
			pmu.CXLDevRPQCyclesNE, -1, cfg.CXLRPQEntries),
		devWPQOcc: pmu.NewOccTracker(devBank, pmu.CXLDevWPQOccupancy,
			pmu.CXLDevWPQCyclesNE, -1, cfg.CXLWPQEntries),
		media: server{service: cfg.serviceCycles(cfg.CXLMediaGBs)},
	}
}

// linkMaxAttempts bounds per-transfer replay attempts in the timing model:
// a transfer corrupted that many consecutive times is assumed to survive
// the link retraining that follows, so the model always makes progress.
const linkMaxAttempts = 16

// flitsOf returns the whole flits a transfer of size wire bytes parks in
// the retry buffer.
func flitsOf(size float64) int {
	n := int(size) / cxl.FlitSize
	if float64(n*cxl.FlitSize) < size {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// linkXfer serializes size wire bytes onto one link direction, applying
// the fault plan: a corrupted transfer is detected by the receiver's CRC
// one link crossing later, Nak'd back, and the retry buffer's outstanding
// window is replayed through the same byte server — replay bytes consume
// real wire bandwidth, so every later message queues behind them and the
// inflation shows up in M2PCIe/packing-buffer occupancy.  Returns the
// start of the final (successful) serialization, a drop-in for
// byteServer.acquire, and the cycles the replays delayed it by.
func (p *cxlPort) linkXfer(eng *Engine, srv *byteServer, dir cxl.Direction, ready Cycles, size float64) (start, replay Cycles) {
	start = srv.acquire(ready, size)
	if p.plan.Empty() {
		return start, 0
	}

	// The transfer's flits sit in the retry buffer from first transmission
	// until the cumulative ack returns, one link round trip after arrival.
	flits := flitsOf(size)
	eng.obsAt(start, evRetryOcc, p.id, int32(flits), 0)

	// A Nak rewinds the sender to the lost flit, retransmitting the
	// flits in flight behind it, charged as half the retry window
	// (DESIGN §7 compares the charge with a go-back-N link's replay).
	replayBytes := float64(p.retryEntries/2) * cxl.FlitSize
	for attempt := 0; attempt < linkMaxAttempts; attempt++ {
		idx := p.txIdx[dir]
		p.txIdx[dir]++
		if !p.plan.Corrupts(dir, idx, uint64(start)) {
			break
		}
		// CRC failure lands at the receiver a crossing later; the Nak
		// crosses back; the replayed window then queues on the wire with
		// this transfer riding at its tail.
		nakBack := start + 2*p.cfg.FlexBusLat
		reStart := srv.acquire(nakBack, replayBytes+size)
		eng.obsAt(start+p.cfg.FlexBusLat, evCXLCRC, p.id, 0, uint64(replayBytes+size))
		prev := start
		start = reStart + Cycles(replayBytes*srv.perByte)
		replay += start - prev
	}
	ack := start + 2*p.cfg.FlexBusLat
	eng.obsAt(ack, evRetryOcc, p.id, int32(-flits), 0)
	return start, replay
}

// removedFastFailLat is the host-side cost of the fast-fail path: once the
// root port has isolated a removed device, accesses are rejected at the
// M2PCIe boundary with a synthesized error completion instead of waiting a
// full discovery timeout on a dead link.
const removedFastFailLat = 32

// viralAt reports whether the device is in viral containment at t,
// clearing the state first when the reset window has elapsed.
func (p *cxlPort) viralAt(t Cycles) bool {
	if !p.viral {
		return false
	}
	if p.viralUntil > 0 && t >= p.viralUntil {
		// Host-initiated reset: the device leaves containment and the
		// poison count starts over.
		p.viral = false
		p.poisonSeen = 0
		return false
	}
	return true
}

// notePoison accounts one poisoned read at time t and trips viral
// containment when the plan's threshold is crossed.
func (p *cxlPort) notePoison(eng *Engine, t Cycles) {
	p.poisonSeen++
	if !p.viral && p.plan.ViralEnabled() && p.poisonSeen >= p.plan.ViralThreshold {
		p.viral = true
		p.viralUntil = 0
		if p.plan.ViralReset > 0 {
			p.viralUntil = t + Cycles(p.plan.ViralReset)
		}
		eng.obsAt(t, evDevInc, p.id, int32(pmu.CXLDevViralEntries), 0)
	}
}

// noteRemoval counts the surprise removal once, at the instant the root
// port first learns the device is gone.
func (p *cxlPort) noteRemoval(eng *Engine, t Cycles) {
	if p.removalSeen {
		return
	}
	p.removalSeen = true
	eng.obsAt(t, evM2PInc, p.id, int32(pmu.M2PDevRemoved), 0)
}

// fastFail completes an access to an isolated device at the root port: a
// synthesized error completion after a short host-side delay, never
// touching the link or the (dark) device bank.
func (p *cxlPort) fastFail(eng *Engine, arrival Cycles) Cycles {
	done := arrival + p.cfg.M2PLat + removedFastFailLat
	eng.obsAt(arrival, evCXLArrive, p.id, 0, uint64(done))
	eng.obsAt(done, evM2PInc, p.id, int32(pmu.M2PFastFails), 0)
	eng.obsAt(done, evM2PInc, p.id, int32(pmu.M2PErrCompletions), 0)
	p.noteRemoval(eng, done)
	return done
}

// ctrlDelay returns the device-controller latency for a request reaching
// it at t, inflated by an active completion-timeout episode.
func (p *cxlPort) ctrlDelay(eng *Engine, t Cycles) Cycles {
	lat := p.cfg.CXLCtrlLat
	if p.plan.TimeoutAt(uint64(t)) {
		lat += Cycles(p.plan.Penalty())
		eng.obsAt(t, evDevInc, p.id, int32(pmu.CXLDevTimeouts), 0)
	}
	return lat
}

// mediaAcquire claims a media service slot at t, paying a second slot (a
// halved service rate) while a DevLoad-throttle episode is active.
func (p *cxlPort) mediaAcquire(eng *Engine, t Cycles) Cycles {
	start := p.media.acquire(t)
	if p.plan.ThrottledAt(uint64(start)) {
		start = p.media.acquire(start)
		slot := uint64(p.media.service + 0.5)
		eng.obsAt(start, evDevAdd, p.id, int32(pmu.CXLDevThrottled), slot)
	}
	return start
}

// readRemoved completes a read whose request crossed the link into a
// device that vanished mid-flight: the root port waits out the discovery
// penalty on the dead link and synthesizes an error completion.  No
// device-side counters move — the device bank is dark from RemoveAt on.
func (p *cxlPort) readRemoved(eng *Engine, arrival, txStart, devArrive Cycles) Cycles {
	p.packReq.commit(devArrive) // the packing-buffer entry dies with the device
	discover := devArrive + Cycles(p.plan.RemovalPenalty())
	done := discover + p.cfg.M2PLat
	eng.obsAt(arrival, evCXLArrive, p.id, 0, uint64(txStart))
	eng.obsAt(done, evM2PInc, p.id, int32(pmu.M2PErrCompletions), 0)
	p.noteRemoval(eng, discover)
	return done
}

// read performs a CXL.mem load (M2S Req -> S2M DRS) of line la arriving at
// the M2PCIe ingress at arrival, returning the host data-return time and
// the read's device crossings.
func (p *cxlPort) read(eng *Engine, arrival Cycles, la uint64) (Cycles, devTimes) {
	if p.plan.IsolatedBy(uint64(arrival)) {
		return p.fastFail(eng, arrival), devTimes{}
	}

	// M2PCIe ingress: the entry waits for link credit, which is starved
	// when the device request packing buffer is full.
	ready := p.packReq.admit(arrival + p.cfg.M2PLat)
	txStart, txReplay := p.linkXfer(eng, &p.linkTx, cxl.DirM2S, ready, cxl.BytesPerMessage(cxl.MemRd))
	devArrive := txStart + p.cfg.FlexBusLat
	dt := devTimes{m2pExit: txStart, devArrive: devArrive, replay: txReplay}
	if p.plan.RemovedBy(uint64(devArrive)) {
		return p.readRemoved(eng, arrival, txStart, devArrive), dt
	}

	// Device: packing buffer until the controller hands off to the MC.
	ctrlDone := devArrive + p.ctrlDelay(eng, devArrive)
	rpqAdmit := p.devRPQ.admit(ctrlDone)
	p.packReq.commit(rpqAdmit)

	mediaStart := p.mediaAcquire(eng, rpqAdmit)
	data := mediaStart + p.cfg.CXLMediaLat
	switch {
	case p.viralAt(devArrive):
		// Viral containment: every read completes at normal media timing
		// but returns data flagged poisoned — an error completion, not a
		// correction pass, because the device no longer trusts its media.
		eng.obsAt(data, evDevInc, p.id, int32(pmu.CXLDevErrCompletions), 0)
	case p.plan.Poisoned(la):
		// Poisoned media: the device's internal correction pass re-reads
		// before returning data flagged poisoned.
		data += p.cfg.CXLMediaLat
		eng.obsAt(data, evDevInc, p.id, int32(pmu.CXLDevPoisonRd), 0)
		p.notePoison(eng, data)
	}
	p.devRPQ.commit(data)

	// Response: S2M DRS over the link back to the host.
	rxStart, rxReplay := p.linkXfer(eng, &p.linkRx, cxl.DirS2M, data, cxl.BytesPerMessage(cxl.MemData))
	hostArrive := rxStart + p.cfg.FlexBusLat
	done := hostArrive + p.cfg.M2PLat

	// The crossings mirror the occupancy integrals AnalyzeQueues reads:
	// arrival..m2pExit is the M2PCIe ingress residency, and
	// devArrive..data the packing-buffer + RPQ residency that prices the
	// CXL DIMM queue estimate.
	dt.mediaStart, dt.data = mediaStart, data
	dt.replay += rxReplay

	eng.obsAt(arrival, evCXLArrive, p.id, 0, uint64(txStart))
	eng.obsAt(devArrive, evCXLReadDev, p.id, 0, 0)
	eng.obsAt(rpqAdmit, evCXLReadRPQ, p.id, 0, 0)
	eng.obsAt(data, evCXLReadData, p.id, 0, 0)
	eng.obsAt(hostArrive, evM2PInc, p.id, int32(pmu.M2PTxInsertsBL), 0)
	return done, dt
}

// write performs a CXL.mem store (M2S RwD -> S2M NDR).  It returns the
// credit-admission time (backpressure point for the evicting fill) and the
// time the write is durable at the device.
func (p *cxlPort) write(eng *Engine, arrival Cycles) (admitted, drained Cycles) {
	if p.plan.IsolatedBy(uint64(arrival)) {
		return arrival, p.fastFail(eng, arrival)
	}

	ready := p.packData.admit(arrival + p.cfg.M2PLat)
	txStart, _ := p.linkXfer(eng, &p.linkTx, cxl.DirM2S, ready, cxl.BytesPerMessage(cxl.MemWr))
	devArrive := txStart + p.cfg.FlexBusLat
	if p.plan.RemovedBy(uint64(devArrive)) {
		// Same discovery flow as readRemoved, with the packing-data entry
		// dying alongside the device.
		p.packData.commit(devArrive)
		discover := devArrive + Cycles(p.plan.RemovalPenalty())
		done := discover + p.cfg.M2PLat
		eng.obsAt(arrival, evCXLArrive, p.id, 0, uint64(txStart))
		eng.obsAt(done, evM2PInc, p.id, int32(pmu.M2PErrCompletions), 0)
		p.noteRemoval(eng, discover)
		return ready, done
	}

	ctrlDone := devArrive + p.ctrlDelay(eng, devArrive)
	wpqAdmit := p.devWPQ.admit(ctrlDone)
	p.packData.commit(wpqAdmit)

	mediaStart := p.mediaAcquire(eng, wpqAdmit)
	done := mediaStart + p.cfg.CXLMediaLat
	p.devWPQ.commit(done)

	rxStart, _ := p.linkXfer(eng, &p.linkRx, cxl.DirS2M, mediaStart, cxl.BytesPerMessage(cxl.Cmp)) // NDR
	ackArrive := rxStart + p.cfg.FlexBusLat

	eng.obsAt(arrival, evCXLArrive, p.id, 0, uint64(txStart))
	eng.obsAt(devArrive, evCXLWriteDev, p.id, 0, 0)
	eng.obsAt(wpqAdmit, evCXLWriteWPQ, p.id, 0, 0)
	eng.obsAt(done, evCXLWriteDone, p.id, 0, 0)
	eng.obsAt(ackArrive, evM2PInc, p.id, int32(pmu.M2PTxInsertsAK), 0)
	return ready, done
}

func (p *cxlPort) sync(now Cycles) {
	p.ingress.Advance(now)
	p.packReqOcc.Advance(now)
	p.packDataOcc.Advance(now)
	p.devRPQOcc.Advance(now)
	p.devWPQOcc.Advance(now)
	p.retryOcc.Advance(now)
	// Export the QoS telemetry residency to the device bank.
	p.qos.Advance(now)
	for i, ev := range pmu.CXLQoS {
		total := p.qos.Cycles(cxl.DevLoad(i))
		p.devBank.Add(ev, total-p.qosBase[i])
		p.qosBase[i] = total
	}
}

// devLoad returns the device's dominant QoS class so far.
func (p *cxlPort) devLoad() cxl.DevLoad { return p.qos.Dominant() }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
