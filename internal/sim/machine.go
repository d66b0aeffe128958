package sim

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"pathfinder/internal/cxl"
	"pathfinder/internal/mem"
	"pathfinder/internal/obs"
	"pathfinder/internal/pmu"
	"pathfinder/internal/workload"
)

// Machine is the assembled server: cores, CHA/LLC slices, memory
// controllers, the CXL ports, and the event engine, bound to an address
// space that decides where each line lives.
type Machine struct {
	cfg Config
	eng *Engine
	as  *mem.AddressSpace

	cores []*Core
	// attached lists the cores that have run: the cores whose caches
	// exist and the only ones that can hold a pending step.  The first
	// Attach of a core adds it and copyMachineState rebuilds the list, so
	// the sweep scans these instead of every core of a 32-core rig.
	attached []*Core
	slices   []*chaSlice
	ports    []*cxlPort

	// chans holds every memory channel: the local socket's (imc), then the
	// remote socket's (remoteIMC), which are reached over the UPI link
	// (remoteBus models its bandwidth).  A channel's lane entries name it
	// by its index in chans.
	chans     []*imcChannel
	imc       []*imcChannel
	remoteIMC []*imcChannel
	remoteBus server

	banks      []*pmu.Bank
	bankByName map[string]*pmu.Bank

	lastSync Cycles

	// accessHook, when set, observes every request that reaches a memory
	// device (an LLC miss) — the signal memory-tiering policies sample.
	accessHook func(core int, lineAddr uint64, write bool)

	// fl is the attached flight recorder (nil when detached).  It
	// observes every demand load and store completion, filing packed
	// records from the functional timing path.
	fl *obs.Flight

	// dispatch selects the dispatch oracle (see sweep.go): every core step
	// round-trips through the engine's step queue, one step per op.  The
	// default, false, is the sequential sweep.
	dispatch bool

	// reach is the first address the smallest cache's tags cannot name
	// (Config.tagReach).  An op at or beyond it panics: its tag would
	// alias a resident line's, and a hit would go unnoticed.
	reach uint64
}

// New assembles a machine from cfg over the given address space.  It
// panics when the address space's capacity exceeds what the smallest
// cache's tags can name.
func New(cfg Config, as *mem.AddressSpace) *Machine {
	cfg.validate()
	reach, level := cfg.tagReach()
	var span uint64
	for _, n := range as.Nodes() {
		span += n.Capacity
	}
	if span > reach {
		panic(fmt.Sprintf("sim: a %.4g GiB address space exceeds the %.4g GiB the %s's tags reach",
			float64(span)/(1<<30), float64(reach)/(1<<30), level))
	}
	m := &Machine{
		cfg:        cfg,
		eng:        NewEngine(),
		as:         as,
		reach:      reach,
		remoteBus:  server{service: cfg.serviceCycles(cfg.RemoteDRAMGBs)},
		bankByName: make(map[string]*pmu.Bank),
	}
	m.eng.mach = m
	addBank := func(name string) *pmu.Bank {
		b := pmu.NewBank(pmu.Default, name)
		m.banks = append(m.banks, b)
		m.bankByName[name] = b
		return b
	}

	clusters := cfg.SNCClusters
	if clusters < 1 {
		clusters = 1
	}
	coresPerCluster := (cfg.Cores + clusters - 1) / clusters
	for i := 0; i < cfg.Cores; i++ {
		b := addBank(fmt.Sprintf("core%d", i))
		m.cores = append(m.cores, newCore(i, i/coresPerCluster, &cfg, b))
	}
	slicesPerCluster := cfg.LLCSlices / clusters
	sliceBytes := cfg.LLCSize / cfg.LLCSlices
	for i := 0; i < cfg.LLCSlices; i++ {
		b := addBank(fmt.Sprintf("cha%d", i))
		m.slices = append(m.slices, newCHASlice(i, i/slicesPerCluster, sliceBytes, cfg.LLCWays, b))
	}
	chanService := cfg.serviceCycles(cfg.DRAMChanGBs)
	addChan := func(name string) {
		b := addBank(name)
		m.chans = append(m.chans, newIMCChannel(len(m.chans), b, chanService, cfg.DRAMLat, cfg.RPQEntries, cfg.WPQEntries))
	}
	for i := 0; i < cfg.DRAMChannels; i++ {
		addChan(fmt.Sprintf("imc%d", i))
	}
	if cfg.Sockets > 1 {
		for i := 0; i < cfg.DRAMChannels; i++ {
			addChan(fmt.Sprintf("rimc%d", i))
		}
	}
	m.imc, m.remoteIMC = m.chans[:cfg.DRAMChannels:cfg.DRAMChannels], m.chans[cfg.DRAMChannels:]
	for i := 0; i < cfg.CXLDevices; i++ {
		mb := addBank(fmt.Sprintf("m2pcie%d", i))
		db := addBank(fmt.Sprintf("cxl%d", i))
		m.ports = append(m.ports, newCXLPort(i, &m.cfg, mb, db))
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// AddressSpace returns the machine's memory map.
func (m *Machine) AddressSpace() *mem.AddressSpace { return m.as }

// Now returns the current simulated cycle.
func (m *Machine) Now() Cycles { return m.eng.Now() }

// Banks returns every PMU bank of the machine.
func (m *Machine) Banks() []*pmu.Bank { return m.banks }

// Bank returns the bank of the named module instance (e.g. "core3",
// "cha0", "imc1", "m2pcie0", "cxl0").  Asking for a bank the machine was
// not configured with is a rig bug and panics with the offending name, so
// misconfigured experiments fail descriptively instead of dereferencing
// nil.
func (m *Machine) Bank(name string) *pmu.Bank {
	b, ok := m.bankByName[name]
	if !ok {
		names := make([]string, 0, len(m.bankByName))
		for n := range m.bankByName {
			names = append(names, n)
		}
		sort.Strings(names)
		panic(fmt.Sprintf("sim: machine %q has no PMU bank %q (have: %s)",
			m.cfg.Name, name, strings.Join(names, ", ")))
	}
	return b
}

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// Cores returns the number of cores.
func (m *Machine) Cores() int { return len(m.cores) }

// Attach binds a workload generator to core i and starts it.  Attaching to
// a busy core replaces its generator (thread migration).  A core's first
// Attach with a non-nil generator builds its L1D and L2.
func (m *Machine) Attach(i int, gen workload.Generator) {
	c := m.cores[i]
	if gen != nil && c.l1 == nil {
		c.buildCaches(&m.cfg)
		m.attached = append(m.attached, c)
	}
	wasRunning := c.running
	c.gen = gen
	c.running = gen != nil
	if c.running && !wasRunning {
		if m.dispatch {
			m.eng.at(m.eng.Now(), c)
		} else {
			m.armStep(c, m.eng.Now())
		}
	}
}

// Detach stops the workload on core i.
func (m *Machine) Detach(i int) {
	c := m.cores[i]
	c.gen = nil
	c.running = false
	c.stepPending = false
}

// Run advances the simulation by d cycles.
func (m *Machine) Run(d Cycles) {
	if m.dispatch {
		m.eng.RunUntil(m.eng.Now() + d)
		return
	}
	m.runSweep(m.eng.Now() + d)
}

// Sync flushes all occupancy/busy trackers and clocktick counters to the
// current cycle so that an immediate snapshot of the banks is consistent.
// The profiler calls this at every scheduling-epoch boundary.
func (m *Machine) Sync() {
	now := m.eng.Now()
	m.eng.drainObs(now)
	d := now - m.lastSync
	m.lastSync = now
	for _, c := range m.cores {
		c.sync(now)
	}
	for _, s := range m.slices {
		s.sync(now)
		s.bank.Add(pmu.CHAClockticks, d)
	}
	for _, ch := range m.chans {
		ch.sync(now)
		ch.bank.Add(pmu.IMCClockticks, d)
	}
	for _, p := range m.ports {
		p.sync(now)
		p.m2pBank.Add(pmu.M2PClockticks, d)
		p.devBank.Add(pmu.CXLClockticks, d)
	}
}

// ---------------------------------------------------------------------------
// Core instruction stepping.
// ---------------------------------------------------------------------------

// coreStep runs one of the dispatch oracle's queued steps: it executes one
// workload op on core c and queues the continuation as a fresh step.
func (m *Machine) coreStep(c *Core, now Cycles) {
	if next, ok := m.stepOne(c, now); ok {
		m.eng.at(next, c)
	}
}

// stepOne executes exactly one workload op on core c at cycle now, returning
// the core's continuation cycle.  ok is false when the core has stopped (no
// op was executed); the caller owns rescheduling.
func (m *Machine) stepOne(c *Core, now Cycles) (next Cycles, ok bool) {
	if !c.running || c.gen == nil {
		return 0, false
	}
	if !c.gen.Next(&c.op) {
		c.running = false
		return 0, false
	}
	op := &c.op
	if op.Addr >= m.reach {
		m.beyondReach(c, op.Addr)
	}
	t := now + Cycles(op.Think)
	c.bank.Add(pmu.InstRetiredAny, uint64(op.Think)+1)

	switch op.Kind {
	case workload.Load:
		next = m.load(c, op.Addr, t, op.Dep)
	case workload.Store:
		next = m.store(c, op.Addr, t)
	case workload.Prefetch:
		m.swPrefetch(c, op.Addr, t)
		next = t + 1
	default:
		next = t + 1
	}
	if next <= now {
		next = now + 1
	}
	c.bank.Add(pmu.CPUClkUnhalted, next-now)
	return next, true
}

// beyondReach panics for an op of core c at addr, at or beyond the
// machine's tag reach.
func (m *Machine) beyondReach(c *Core, addr uint64) {
	_, level := m.cfg.tagReach()
	panic(fmt.Sprintf("sim: core %d accesses %#x, at or beyond %#x, the first address the %s's tags cannot name",
		c.id, addr, m.reach, level))
}

// load executes a demand load issued at t, returning when the core may
// continue (the data-return time for dependent loads, the issue slot
// otherwise).
func (m *Machine) load(c *Core, addr uint64, t Cycles, dep bool) Cycles {
	la := mem.LineAddr(addr)
	c.bank.Inc(pmu.MemInstAllLoads)

	// L1D.
	if c.l1.Lookup(la) >= 0 {
		c.bank.Inc(pmu.MemLoadL1Hit)
		c.bank.Add(pmu.MemTransLoadLatency, uint64(m.cfg.L1Lat))
		c.bank.Inc(pmu.MemTransLoadCount)
		m.trainL1PF(c, la, t)
		if m.fl.Enabled() {
			m.flightDone(c, obs.FlightLoad, addr, t, t+m.cfg.L1Lat, SrvL1, nil)
		}
		return t + 1
	}
	c.bank.Inc(pmu.MemLoadL1Miss)

	// LFB merge with an in-flight miss to the same line.
	if e := c.findLFB(la, t); e != nil {
		c.bank.Inc(pmu.MemLoadFBHit)
		c.bank.Add(pmu.MemTransLoadLatency, uint64(e.done-t))
		c.bank.Inc(pmu.MemTransLoadCount)
		m.trainL1PF(c, la, t)
		if m.fl.Enabled() {
			// Stage times belong to the merged-into miss, which may predate
			// this load's issue — record the merge latency alone.
			m.flightDone(c, obs.FlightLoad, addr, t, e.done, SrvLFB, nil)
		}
		if dep {
			res := accessResult{done: e.done, loc: SrvLFB, times: e.times,
				missedL2: e.missedL2, missedLLC: e.missedLLC}
			c.attributeLoadStall(t, e.done, &res)
			return e.done
		}
		return t + 1
	}

	res := m.missPath(c, ClassDRd, la, t)
	c.bank.Add(pmu.MemTransLoadLatency, uint64(res.done-t))
	c.bank.Inc(pmu.MemTransLoadCount)
	m.trainL1PF(c, la, t)
	if m.fl.Enabled() {
		m.flightDone(c, obs.FlightLoad, addr, t, res.done, res.loc, &res)
	}

	if dep {
		c.attributeLoadStall(t, res.done, &res)
		return res.done
	}
	// Independent load: the core proceeds once the LFB slot was obtained.
	cont := res.times.issue // missPath sets issue to the post-wait slot time
	if cont > t {
		waited := accessResult{done: cont, loc: res.loc, times: res.times,
			missedL2: res.missedL2, missedLLC: res.missedLLC}
		c.attributeLoadStall(t, cont, &waited)
	}
	return cont + 1
}

// missPath takes a request that missed the L1D (and has no LFB merge)
// through LFB allocation and the L2-and-below hierarchy.  It applies to
// demand reads, software prefetches, L1 hardware prefetches, and RFOs —
// everything that occupies a line-fill-buffer entry.
func (m *Machine) missPath(c *Core, class ReqClass, la uint64, t Cycles) accessResult {
	start, waitedOn, fbWaited := c.allocLFB(t, m.cfg.LFBEntries)
	if fbWaited && class == ClassDRd {
		blocked := accessResult{done: start, loc: SrvLFB, times: waitedOn.times,
			missedL2: waitedOn.missedL2, missedLLC: waitedOn.missedLLC}
		c.attributeLoadStall(t, start, &blocked)
	}
	res := m.accessL2Down(c, class, la, start)
	res.times.issue = start

	if res.done < c.lfbMinDone {
		c.lfbMinDone = res.done
	}
	c.lfb = append(c.lfb, lfbEntry{line: la, done: res.done, times: res.times,
		class: class, missedL2: res.missedL2, missedLLC: res.missedLLC})
	done := res.done
	if class == ClassDRd {
		// The LFB residency and the L1-miss-outstanding window coincide
		// for a demand load; one fused event covers both trackers.
		m.eng.obsAt(start, evLFBDemand, c.id, 0, uint64(done))
		if res.missedL2 {
			enter := res.times.torEnter
			m.eng.obsAt(enter, evMissL2Pulse, c.id, 0, uint64(done))
		}
	} else {
		m.eng.obsAt(start, evLFBPulse, c.id, 0, uint64(done))
	}
	return res
}

// fillsL1 reports whether a class installs the line into the L1D.
func fillsL1(class ReqClass) bool {
	switch class {
	case ClassDRd, ClassRFO, ClassL1PF, ClassSWPF:
		return true
	}
	return false
}

// accessL2Down resolves a request at the L2 and below, filling caches on
// the way back.  t is the time the request leaves the L1D miss handling.
func (m *Machine) accessL2Down(c *Core, class ReqClass, la uint64, t Cycles) accessResult {
	var res accessResult
	res.times.issue = t
	res.times.l2Start = t + m.cfg.L1TagLat

	w := c.l2.Lookup(la)
	st := Invalid
	if w >= 0 {
		st = c.l2.State(w)
	}
	ownershipMiss := class.IsRFOLike() && (st == Shared || st == Forward)
	if w >= 0 && !ownershipMiss {
		m.countL2(c, class, true)
		res.done = res.times.l2Start + m.cfg.L2Lat
		res.loc = SrvL2
		if fillsL1(class) {
			m.fillL1(c, la, st, res.done)
		}
		if class == ClassDRd || class == ClassRFO {
			m.trainL2PF(c, class, la, res.times.l2Start)
		}
		return res
	}
	m.countL2(c, class, false)
	res.missedL2 = true
	tOff := res.times.l2Start + m.cfg.L2TagLat

	// Offcore request bookkeeping.
	c.bank.Inc(pmu.OffcoreAllRequests)
	switch class {
	case ClassDRd, ClassSWPF:
		c.bank.Inc(pmu.OffcoreDataRd)
		c.bank.Inc(pmu.OffcoreDemandDataRd)
	case ClassL1PF, ClassL2PFDRd:
		c.bank.Inc(pmu.OffcoreDataRd)
	}

	llc := m.accessLLCDown(c, class, la, tOff, &res.times)
	res.done = llc.done
	res.loc = llc.loc
	res.missedLLC = llc.missedLLC
	res.times = llc.times
	res.dev = llc.dev

	// Offcore-outstanding trackers (chronological via events).
	isRead := class != ClassRFO && class != ClassL2PFRFO
	done := res.done
	if class == ClassDRd {
		// A demand read enters the data-read and demand-data-read
		// windows together; one fused event covers both trackers.
		m.eng.obsAt(tOff, evORODemand, c.id, 0, uint64(done))
		if res.missedLLC {
			enter := res.times.memEnter
			m.eng.obsAt(enter, evOROL3Pulse, c.id, 0, uint64(done))
		}
	} else if isRead {
		m.eng.obsAt(tOff, evORODataPulse, c.id, 0, uint64(done))
	}
	if class == ClassRFO {
		m.eng.obsAt(tOff, evRFOBusyPulse, c.id, 0, uint64(done))
	}

	// Fill the hierarchy on the way back.
	fillState := Exclusive
	if llc.shared {
		fillState = Shared
	}
	if class.IsRFOLike() {
		fillState = Exclusive
	}
	m.fillL2(c, la, fillState, res.done)
	if fillsL1(class) {
		m.fillL1(c, la, fillState, res.done)
	}
	if class == ClassDRd || class == ClassRFO {
		m.trainL2PF(c, class, la, res.times.l2Start)
	}
	return res
}

// countL2 increments the per-class L2 hit/miss counters of Table 1.
func (m *Machine) countL2(c *Core, class ReqClass, hit bool) {
	b := c.bank
	b.Inc(pmu.L2References)
	switch class {
	case ClassDRd:
		b.Inc(pmu.L2AllDemandRefs)
		b.Inc(pmu.L2AllDemandDataRd)
		if hit {
			b.Inc(pmu.L2DemandDataRdHit)
			b.Inc(pmu.MemLoadL2Hit)
		} else {
			b.Inc(pmu.L2DemandDataRdMiss)
			b.Inc(pmu.L2AllDemandMiss)
			b.Inc(pmu.L2Miss)
			b.Inc(pmu.MemLoadL2Miss)
		}
	case ClassRFO:
		b.Inc(pmu.L2AllDemandRefs)
		b.Inc(pmu.L2AllRFO)
		if hit {
			b.Inc(pmu.L2RFOHit)
		} else {
			b.Inc(pmu.L2RFOMiss)
			b.Inc(pmu.L2AllDemandMiss)
		}
	case ClassSWPF:
		if hit {
			b.Inc(pmu.L2SWPFHit)
		} else {
			b.Inc(pmu.L2SWPFMiss)
			b.Inc(pmu.L2Miss)
		}
	case ClassL1PF:
		if hit {
			b.Inc(pmu.L2HWPFHit)
		} else {
			b.Inc(pmu.L2HWPFMiss)
		}
	}
}

// llcResult is the outcome of the LLC-and-below segment.
type llcResult struct {
	done      Cycles
	loc       ServeLoc
	missedLLC bool
	shared    bool // other cores retain copies
	times     reqTimes
	dev       devTimes
}

// accessLLCDown resolves a request at its home LLC slice and, on a miss,
// at the backing memory device.
func (m *Machine) accessLLCDown(c *Core, class ReqClass, la uint64, t Cycles, rt *reqTimes) llcResult {
	s := m.slices[mem.SliceOf(la, len(m.slices))]
	arrive := t + m.cfg.MeshLat
	rt.torEnter = arrive

	// LLC lookup event counters.
	s.bank.Inc(pmu.LLCLookupAll)
	switch {
	case class.IsRFOLike():
		s.bank.Inc(pmu.LLCLookupRFO)
	case class.IsPrefetch():
		s.bank.Inc(pmu.LLCLookupPrefetch)
	default:
		s.bank.Inc(pmu.LLCLookupDataRead)
	}
	c.bank.Inc(pmu.LongestLatCacheRef)

	if w := s.llc.Lookup(la); w >= 0 {
		loc := SrvLLC
		lat := m.cfg.LLCLat
		if s.cluster != c.cluster {
			lat += m.cfg.SNCExtra
			loc = SrvSNCLLC
		}
		peers := s.llc.Presence(w) &^ (1 << uint(c.id))
		sharedAfter := false
		if peers != 0 {
			if m.peerHoldsDirty(peers, la) {
				lat += m.cfg.SnoopLat
				if loc == SrvLLC {
					loc = SrvPeerCache
				}
				s.bank.Inc(pmu.SnoopRespHitM)
			} else {
				s.bank.Inc(pmu.SnoopRespHitFwd)
			}
			if s.cluster == c.cluster {
				s.bank.Inc(pmu.SnoopsSentLocal)
			} else {
				s.bank.Inc(pmu.SnoopsSentRemote)
			}
			if class.IsRFOLike() {
				m.invalidatePeers(s, peers, la)
				s.llc.SetPresence(w, 0)
			} else {
				// A read snoop downgrades peer ownership: an M copy is
				// absorbed dirty into the LLC, an E copy becomes S —
				// otherwise the old owner could keep writing silently
				// while the requester holds a stale shared copy.
				if m.downgradePeers(peers, la) {
					s.llc.SetState(w, Modified)
				}
				sharedAfter = true
			}
		}
		s.llc.SetPresence(w, s.llc.Presence(w)|1<<uint(c.id))
		if class.IsRFOLike() {
			s.llc.SetState(w, Modified)
		}
		done := arrive + lat
		m.torTransit(s, c, class, loc, arrive, done)
		m.coreServeCounters(c, class, loc, done)
		return llcResult{done: done, loc: loc, shared: sharedAfter, times: *rt}
	}

	// LLC miss: fetch from the backing device.
	c.bank.Inc(pmu.LongestLatCacheMiss)
	if m.accessHook != nil {
		m.accessHook(c.id, la, class.IsRFOLike())
	}
	tag := arrive + m.cfg.LLCTagLat
	rt.memEnter = tag + m.cfg.MeshLat

	var data Cycles
	var dev devTimes
	var loc ServeLoc
	switch m.as.KindOf(la) {
	case mem.LocalDRAM:
		ch := m.imc[mem.ChannelOf(la, len(m.imc))]
		data = ch.read(m.eng, rt.memEnter)
		dev.data = data
		loc = SrvLocalDRAM
	case mem.RemoteDRAM:
		// Cross the UPI link, queue at the remote socket's IMC, and
		// return over the link.
		upi := m.remoteBus.acquire(rt.memEnter + m.cfg.RemoteDRAMLat)
		if len(m.remoteIMC) > 0 {
			ch := m.remoteIMC[mem.ChannelOf(la, len(m.remoteIMC))]
			data = ch.read(m.eng, upi) + m.cfg.RemoteDRAMLat
		} else {
			data = upi + m.cfg.DRAMLat + m.cfg.RemoteDRAMLat
		}
		dev.data = data
		loc = SrvRemoteDRAM
	case mem.CXLDRAM:
		port := m.ports[m.as.Node(m.as.NodeOf(la)).Device]
		data, dev = port.read(m.eng, rt.memEnter, la)
		loc = SrvCXL
	}
	done := data + m.cfg.MeshLat

	// Fill the LLC, handling the victim.
	st := Exclusive
	if class.IsRFOLike() {
		st = Modified
	}
	s.llc.SetPresence(s.llc.Insert(la, st), 1<<uint(c.id))
	if s.llc.HasVictim {
		// A dirty victim must be accepted by the target write queue before
		// the fill can complete: full WPQs / packing buffers backpressure
		// the whole path (the paper's §2.3 "contention is back-propagated
		// along the CXL.mem data path").
		if admit := m.evictLLCVictim(s, s.llc.Victim, done); admit > done {
			done = admit
		}
	}

	m.torTransit(s, c, class, loc, arrive, done)
	m.coreServeCounters(c, class, loc, done)
	return llcResult{done: done, loc: loc, missedLLC: true, times: *rt, dev: dev}
}

// peerHoldsDirty reports whether any core in the presence bitmap holds la
// in Modified state in its private caches.
func (m *Machine) peerHoldsDirty(peers uint64, la uint64) bool {
	for peers != 0 {
		id := trailingZeros(peers)
		peers &^= 1 << uint(id)
		if id >= len(m.cores) {
			continue
		}
		p := m.cores[id]
		if w := p.l1.Peek(la); w >= 0 && p.l1.State(w) == Modified {
			return true
		}
		if w := p.l2.Peek(la); w >= 0 && p.l2.State(w) == Modified {
			return true
		}
	}
	return false
}

// downgradePeers demotes peer copies of la to Shared (a read snoop),
// reporting whether any peer held the line Modified (its dirty data now
// lives in the LLC).
func (m *Machine) downgradePeers(peers uint64, la uint64) bool {
	dirty := false
	for peers != 0 {
		id := trailingZeros(peers)
		peers &^= 1 << uint(id)
		if id >= len(m.cores) {
			continue
		}
		p := m.cores[id]
		for _, cache := range []*Cache{p.l1, p.l2} {
			if w := cache.Peek(la); w >= 0 {
				switch cache.State(w) {
				case Modified:
					dirty = true
					fallthrough
				case Exclusive:
					cache.SetState(w, Shared)
				}
			}
		}
	}
	return dirty
}

// invalidatePeers removes la from the private caches of all cores in the
// bitmap (RFO ownership acquisition).
func (m *Machine) invalidatePeers(s *chaSlice, peers uint64, la uint64) {
	for peers != 0 {
		id := trailingZeros(peers)
		peers &^= 1 << uint(id)
		if id >= len(m.cores) {
			continue
		}
		p := m.cores[id]
		p.l1.Invalidate(la)
		p.l2.Invalidate(la)
	}
}

// evictLLCVictim performs back-invalidation of an inclusive-LLC victim and
// writes dirty data back to memory.  It returns the time the displaced
// write was admitted by the target device queue (t when no writeback was
// needed): a full WPQ or packing buffer backpressures the evicting fill.
func (m *Machine) evictLLCVictim(s *chaSlice, v Line, t Cycles) Cycles {
	dirty := v.State == Modified
	peers := v.Presence
	for peers != 0 {
		id := trailingZeros(peers)
		peers &^= 1 << uint(id)
		if id >= len(m.cores) {
			continue
		}
		p := m.cores[id]
		st1, _ := p.l1.Invalidate(v.Tag)
		st2, _ := p.l2.Invalidate(v.Tag)
		st := st1
		if st2 > st {
			st = st2
		}
		switch st {
		case Modified:
			dirty = true
			s.bank.Inc(pmu.SFEvictionM)
		case Exclusive, Forward:
			s.bank.Inc(pmu.SFEvictionE)
		case Shared:
			s.bank.Inc(pmu.SFEvictionS)
		}
	}
	switch v.State {
	case Modified:
		s.bank.Inc(pmu.LLCVictimsM)
	case Exclusive, Forward:
		s.bank.Inc(pmu.LLCVictimsE)
	case Shared:
		s.bank.Inc(pmu.LLCVictimsS)
	}
	s.bank.Inc(pmu.LLCVictimsTotal)
	if dirty {
		return m.writebackToMemory(s, v.Tag, t, pmu.WBMToI)
	}
	return t
}

// torTransit records a TOR residency for a request: insert counters at
// enter, occupancy over [enter, leave).
func (m *Machine) torTransit(s *chaSlice, c *Core, class ReqClass, loc ServeLoc, enter, leave Cycles) {
	if g := torGroupOf(class, loc); g >= 0 {
		m.eng.obsAt(enter, evTORPulse, s.id, int32(g), uint64(leave))
	}
}

// coreServeCounters increments the core-PMU offcore-response family and
// the retired-load serve-location events at completion time.
func (m *Machine) coreServeCounters(c *Core, class ReqClass, loc ServeLoc, done Cycles) {
	m.eng.obsAt(done, evServe, c.id, packClassLoc(class, loc), 0)
}

// serveRetired is the evServe payload: the OCR response-scenario family of
// the class plus, for demand loads, the retired-load serve-location events.
func (c *Core) serveRetired(class ReqClass, loc ServeLoc) {
	// All OCR families (including RFO) use the nine-way response-scenario
	// vector, so the DRd scenario table applies to every class.
	if fam := ocrFamilyOf(class); fam != nil {
		for _, scn := range drdScnTable[loc] {
			c.bank.Inc(fam[scn])
		}
	}
	if class != ClassDRd {
		return
	}
	switch loc {
	case SrvLLC:
		c.bank.Inc(pmu.MemLoadL3Hit)
		c.bank.Inc(pmu.MemLoadL3HitRetired[0]) // xsnp_none
	case SrvPeerCache:
		c.bank.Inc(pmu.MemLoadL3Hit)
		c.bank.Inc(pmu.MemLoadL3HitRetired[3]) // xsnp_fwd
	case SrvSNCLLC:
		c.bank.Inc(pmu.MemLoadL3Hit)
		c.bank.Inc(pmu.MemLoadL3HitRetired[2]) // xsnp_no_fwd
	case SrvRemoteLLC:
		c.bank.Inc(pmu.MemLoadL3Miss)
		c.bank.Inc(pmu.MemLoadL3MissRetired[2]) // remote_fwd
	case SrvLocalDRAM:
		c.bank.Inc(pmu.MemLoadL3Miss)
		c.bank.Inc(pmu.MemLoadL3MissRetired[0])
	case SrvRemoteDRAM:
		c.bank.Inc(pmu.MemLoadL3Miss)
		c.bank.Inc(pmu.MemLoadL3MissRetired[1])
	case SrvCXL:
		// The CXL node appears as remote DRAM to the retired-load
		// facility; the OCR miss_cxl scenario carries the CXL split.
		c.bank.Inc(pmu.MemLoadL3Miss)
		c.bank.Inc(pmu.MemLoadL3MissRetired[1])
	}
}

// fillL1 installs la into the L1D, spilling a dirty victim into the L2.
func (m *Machine) fillL1(c *Core, la uint64, st State, t Cycles) {
	if st == Modified {
		st = Exclusive // the private copy is clean until the core stores
	}
	c.l1.Insert(la, st)
	if c.l1.HasVictim {
		c.bank.Inc(pmu.L1DReplacement)
		if c.l1.Victim.State == Modified {
			m.spillToL2(c, c.l1.Victim.Tag, t)
		}
	}
}

// spillToL2 installs a dirty L1 victim into the L2 as Modified.
func (m *Machine) spillToL2(c *Core, la uint64, t Cycles) {
	c.l2.Insert(la, Modified)
	if c.l2.HasVictim && c.l2.Victim.State == Modified {
		m.l2VictimWriteback(c, c.l2.Victim.Tag, t)
	}
}

// fillL2 installs la into the L2, writing a dirty victim back to the LLC.
func (m *Machine) fillL2(c *Core, la uint64, st State, t Cycles) {
	c.l2.Insert(la, st)
	if c.l2.HasVictim && c.l2.Victim.State == Modified {
		m.l2VictimWriteback(c, c.l2.Victim.Tag, t)
	}
}

// l2VictimWriteback sends a dirty L2 victim to its home LLC slice (the DWr
// path's core->CHA writeback).
func (m *Machine) l2VictimWriteback(c *Core, la uint64, t Cycles) {
	s := m.slices[mem.SliceOf(la, len(m.slices))]
	m.eng.obsAt(t, evWBInsert, s.id, int32(pmu.WBMToE), 0)
	c.bank.Inc(pmu.OCRModifiedWriteAny)
	// The evicting core may still hold the line in its L1 (the L2 victim
	// was selected independently), so its presence bit must survive —
	// dropping it would let a later reader acquire Exclusive alongside
	// the old owner's Modified copy.
	holds := uint64(0)
	if c.l1.Peek(la) >= 0 {
		holds = 1 << uint(c.id)
	}
	if w := s.llc.Peek(la); w >= 0 {
		s.llc.SetState(w, Modified)
		s.llc.SetPresence(w, s.llc.Presence(w)|holds)
		return
	}
	// Not in the LLC (inclusion drifted): install, possibly evicting.
	s.llc.SetPresence(s.llc.Insert(la, Modified), holds)
	if s.llc.HasVictim {
		m.evictLLCVictim(s, s.llc.Victim, t)
	}
}

// writebackToMemory issues a memory write for a dirty LLC victim — the
// point where the DWr path becomes a CXL.mem store (M2S RwD) for
// CXL-resident lines.  It returns the device-queue admission time, which a
// caller uses as fill backpressure when the write queue is full.
func (m *Machine) writebackToMemory(s *chaSlice, la uint64, t Cycles, transition int) Cycles {
	m.eng.obsAt(t, evWBInsert, s.id, int32(transition), 0)
	depart := t + m.cfg.MeshLat
	var admit, done Cycles
	switch m.as.KindOf(la) {
	case mem.LocalDRAM:
		ch := m.imc[mem.ChannelOf(la, len(m.imc))]
		admit, done = ch.write(m.eng, depart)
	case mem.RemoteDRAM:
		upi := m.remoteBus.acquire(depart + m.cfg.RemoteDRAMLat)
		if len(m.remoteIMC) > 0 {
			ch := m.remoteIMC[mem.ChannelOf(la, len(m.remoteIMC))]
			admit, done = ch.write(m.eng, upi)
		} else {
			admit, done = upi, upi+m.cfg.DRAMLat
		}
	case mem.CXLDRAM:
		dev := m.as.Node(m.as.NodeOf(la)).Device
		admit, done = m.ports[dev].write(m.eng, depart)
	}
	if transition == pmu.WBMToI {
		m.eng.obsAt(t, evWBMToIPulse, s.id, 0, uint64(done))
	}
	return admit
}

// ---------------------------------------------------------------------------
// Stores.
// ---------------------------------------------------------------------------

// store executes a demand store issued at t, returning when the core may
// continue.  The store itself drains from the SB in the background.
func (m *Machine) store(c *Core, addr uint64, t Cycles) Cycles {
	la := mem.LineAddr(addr)
	c.bank.Inc(pmu.MemInstAllStores)

	start := t
	c.pruneSB(t)
	if len(c.sb) >= m.cfg.SBEntries {
		// SB full: wait for the earliest completion.
		w := c.sb[0].done
		for _, e := range c.sb {
			if e.done < w {
				w = e.done
			}
		}
		if w > t {
			if c.demandLoadsOutstanding() {
				c.bank.Add(pmu.ResourceStallsSB, w-t)
			} else {
				c.bank.Add(pmu.ExeBoundOnStores, w-t)
			}
		}
		start = w
		c.pruneSB(start)
	}

	drainAt := start
	if c.sbNextFree > drainAt {
		drainAt = c.sbNextFree
	}
	drainAt += m.cfg.SBDrainCycles
	c.sbNextFree = drainAt

	done, res := m.drainStore(c, la, drainAt)
	// x86-TSO: stores commit to the cache in program order, so one slow
	// RFO holds every younger store in the buffer behind it.
	if done < c.sbLastDone {
		done = c.sbLastDone
	}
	c.sbLastDone = done
	if done < c.sbMinDone {
		c.sbMinDone = done
	}
	c.sb = append(c.sb, sbEntry{line: la, done: done})
	c.bank.Add(pmu.MemTransStoreSample, uint64(done-t))
	c.bank.Inc(pmu.MemTransStoreCount)
	if m.fl.Enabled() {
		m.flightDone(c, obs.FlightStore, addr, t, done, res.loc, &res)
	}
	return start + 1
}

// drainStore commits one store to the L1D at time t, acquiring ownership
// via RFO when the line is not held in M/E state (§2.2 path #2).  It
// returns the commit time and the RFO's result: where the ownership was
// served from and its stage times (zero for the M/E fast path, which never
// leaves the core).
func (m *Machine) drainStore(c *Core, la uint64, t Cycles) (Cycles, accessResult) {
	if w := c.l1.Lookup(la); w >= 0 {
		if st := c.l1.State(w); st == Modified || st == Exclusive {
			c.l1.SetState(w, Modified)
			return t + m.cfg.L1Lat, accessResult{loc: SrvL1}
		}
		// Shared/Forward: upgrade via RFO below.
	}
	res := m.missPath(c, ClassRFO, la, t)
	if w := c.l1.Peek(la); w >= 0 {
		c.l1.SetState(w, Modified)
	}
	if res.loc == SrvL2 {
		c.bank.Inc(pmu.MemStoreL2Hit)
	}
	return res.done + m.cfg.L1Lat, res
}

// ---------------------------------------------------------------------------
// Prefetching.
// ---------------------------------------------------------------------------

// trainL1PF trains the L1 streamer on a demand access and issues the
// resulting prefetches, respecting the in-flight budget and LFB headroom.
func (m *Machine) trainL1PF(c *Core, la uint64, t Cycles) {
	c.pfScratch = c.pfScratch[:0]
	c.pfScratch = c.l1pf.train(la, c.pfScratch)
	for _, cand := range c.pfScratch {
		if c.pfLive(t) >= m.cfg.PFMaxInFlight {
			return
		}
		if len(c.lfb)+2 > m.cfg.LFBEntries {
			return // keep headroom for demand misses
		}
		if c.l1.Peek(cand) >= 0 || c.findLFB(cand, t) != nil {
			continue
		}
		res := m.missPath(c, ClassL1PF, cand, t)
		if res.done < c.pfMinDone {
			c.pfMinDone = res.done
		}
		c.pfDone = append(c.pfDone, res.done)
	}
}

// trainL2PF trains the L2 stream prefetcher on a demand L2 access and
// issues L2 prefetches (which fill the L2/LLC but not the L1D).
func (m *Machine) trainL2PF(c *Core, trigger ReqClass, la uint64, t Cycles) {
	class := ClassL2PFDRd
	if trigger == ClassRFO {
		class = ClassL2PFRFO
	}
	buf := c.l2pf.train(la, c.pfScratch[:0])
	for _, cand := range buf {
		if c.pfLive(t) >= m.cfg.PFMaxInFlight {
			break
		}
		if c.l2.Peek(cand) >= 0 {
			c.bank.Inc(pmu.L2HWPFHit)
			continue
		}
		c.bank.Inc(pmu.L2HWPFMiss)
		var rt reqTimes
		rt.issue = t
		rt.l2Start = t
		llc := m.accessLLCDown(c, class, cand, t, &rt)
		st := Exclusive
		if llc.shared {
			st = Shared
		}
		m.fillL2(c, cand, st, llc.done)
		if llc.done < c.pfMinDone {
			c.pfMinDone = llc.done
		}
		c.pfDone = append(c.pfDone, llc.done)
	}
	c.pfScratch = buf[:0]
}

// swPrefetch executes an explicit software prefetch instruction.
func (m *Machine) swPrefetch(c *Core, addr uint64, t Cycles) {
	la := mem.LineAddr(addr)
	c.bank.Inc(pmu.SWPrefetchT0)
	if c.l1.Peek(la) >= 0 || c.findLFB(la, t) != nil {
		return
	}
	if len(c.lfb) >= m.cfg.LFBEntries || c.pfLive(t) >= m.cfg.PFMaxInFlight {
		return // software prefetches are droppable hints
	}
	res := m.missPath(c, ClassSWPF, la, t)
	c.pfDone = append(c.pfDone, res.done)
}

// trailingZeros returns the index of the lowest set bit.
func trailingZeros(b uint64) int { return bits.TrailingZeros64(b) }

// DevLoad returns the dominant CXL QoS telemetry class of device dev so
// far — the CXL 3.x DevLoad indication derived from its queue pressure.
func (m *Machine) DevLoad(dev int) cxl.DevLoad {
	m.eng.drainObs(m.eng.Now())
	return m.ports[dev].devLoad()
}

// SetFaultPlan installs (or clears, with nil) the link-fault schedule of
// CXL device dev.  The plan applies to traffic issued after the call;
// in-flight requests already priced keep their timing.  RAS escalation
// state (poison count, viral containment, removal discovery) restarts with
// the new plan.
func (m *Machine) SetFaultPlan(dev int, plan *cxl.FaultPlan) {
	if err := plan.Validate(); err != nil {
		panic("sim: " + err.Error())
	}
	p := m.ports[dev]
	p.plan = plan
	p.poisonSeen, p.viral, p.viralUntil, p.removalSeen = 0, false, 0, false
}

// DeviceViral reports whether CXL device dev is currently in viral
// containment (every read completes flagged poisoned).
func (m *Machine) DeviceViral(dev int) bool {
	p := m.ports[dev]
	return p.viralAt(m.eng.Now())
}

// DeviceIsolated reports whether the host has isolated CXL device dev
// after a surprise removal; isolated devices fast-fail all accesses.
func (m *Machine) DeviceIsolated(dev int) bool {
	return m.ports[dev].plan.IsolatedBy(uint64(m.eng.Now()))
}

// PendingEvents reports the current scheduled-work depth: the oracle's
// queued core steps plus the sweep's mirrored ones.  It is zero once every
// attached workload has run dry.
func (m *Machine) PendingEvents() int { return m.eng.Pending() + m.pendingSteps() }

// pendingSteps counts core steps armed in the sweep's mirror.
func (m *Machine) pendingSteps() int {
	n := 0
	for _, c := range m.attached {
		if c.stepPending {
			n++
		}
	}
	return n
}

// InlineSteps reports how many workload ops the sweep has executed inline,
// without an event-engine round-trip — the pf_engine_inline_steps counter.
func (m *Machine) InlineSteps() uint64 { return m.eng.inlineSteps }

// DispatchedEvents reports how many queued core steps the engine has
// dispatched.  The sweep dispatches none; the dispatch oracle dispatches
// one per op.
func (m *Machine) DispatchedEvents() uint64 { return m.eng.dispatched }

// SetFlight attaches a flight recorder (nil detaches).  The recorder must
// be sized for at least this machine's core count.  Attached but disabled
// it costs one inlined atomic check per demand op; enabled it files a
// packed record per completion without touching engine or PMU state, so
// simulated timing is unchanged either way.  The machine also installs the
// engine-depth probe promotions stamp into their context.
func (m *Machine) SetFlight(f *obs.Flight) {
	if f != nil && f.Cores() < len(m.cores) {
		panic(fmt.Sprintf("sim: SetFlight: recorder sized for %d cores, machine has %d",
			f.Cores(), len(m.cores)))
	}
	m.fl = f
	if f != nil {
		f.SetPendingProbe(m.PendingEvents)
	}
}

// Flight returns the attached flight recorder, or nil.
func (m *Machine) Flight() *obs.Flight { return m.fl }

// flightDone files one completed demand request with the attached flight
// recorder.  Callers have already checked m.fl.Enabled().  res carries the
// crossings of a request that left the core (nil for L1 hits and LFB
// merges: a merged load's crossings belong to the miss it joined, which
// may predate its issue).
func (m *Machine) flightDone(c *Core, class uint8, addr uint64, issue, done Cycles, loc ServeLoc, res *accessResult) {
	r := obs.FlightRec{
		Addr:  addr,
		Issue: uint64(issue),
		Lat:   flightDelta(issue, done),
		Core:  uint8(c.id),
		Class: class,
		Loc:   uint8(loc),
	}
	if res != nil {
		rt, dt := &res.times, &res.dev
		r.L2Start = flightDelta(issue, rt.l2Start)
		r.TOREnter = flightDelta(issue, rt.torEnter)
		r.MemEnter = flightDelta(issue, rt.memEnter)
		r.M2PExit = flightDelta(issue, dt.m2pExit)
		r.DevArrive = flightDelta(issue, dt.devArrive)
		r.MediaStart = flightDelta(issue, dt.mediaStart)
		r.DataReady = flightDelta(issue, dt.data)
		r.Replay = flightDelta(0, dt.replay)
	}
	switch loc {
	case SrvLocalDRAM, SrvRemoteDRAM:
		r.Path = obs.FlightPathIMC
	case SrvCXL:
		r.Path = obs.FlightPathCXL
	}
	m.fl.Record(c.id, r)
}

// flightDelta packs a stage timestamp as a cycle delta from issue; 0 means
// the stage was never reached (or predates the issue, as in an LFB merge).
func flightDelta(issue, at Cycles) uint32 {
	if at <= issue {
		return 0
	}
	d := at - issue
	if d > 1<<32-1 {
		d = 1<<32 - 1
	}
	return uint32(d)
}

// SetAccessHook installs fn as the memory-access observer: it fires for
// every request served by a memory device (post-LLC), with the line
// address and write intent.  Tiering policies use it the way TPP uses
// NUMA hint faults.  Pass nil to disable.
func (m *Machine) SetAccessHook(fn func(core int, lineAddr uint64, write bool)) {
	m.accessHook = fn
}

// MigratePage moves the page containing addr to node dst and charges the
// transfer to the participating devices: one line-granular read stream on
// the source and write stream on the destination, visible in their PMU
// counters exactly like TPP's kernel migration traffic.
func (m *Machine) MigratePage(addr uint64, dst mem.NodeID) error {
	src := m.as.NodeOf(addr)
	if src == dst {
		return nil
	}
	base := m.as.PageBase(addr)
	if err := m.as.MovePage(addr, dst); err != nil {
		return err
	}
	lines := m.as.PageSize() / mem.LineSize
	now := m.eng.Now()
	for i := uint64(0); i < lines; i++ {
		la := base + i*mem.LineSize
		// Source read.
		switch m.as.Node(src).Kind {
		case mem.LocalDRAM:
			m.imc[mem.ChannelOf(la, len(m.imc))].read(m.eng, now)
		case mem.CXLDRAM:
			m.ports[m.as.Node(src).Device].read(m.eng, now, la)
		case mem.RemoteDRAM:
			m.remoteBus.acquire(now)
		}
		// Destination write.
		switch m.as.Node(dst).Kind {
		case mem.LocalDRAM:
			m.imc[mem.ChannelOf(la, len(m.imc))].write(m.eng, now)
		case mem.CXLDRAM:
			m.ports[m.as.Node(dst).Device].write(m.eng, now)
		case mem.RemoteDRAM:
			m.remoteBus.acquire(now)
		}
		// Migrated lines are stale in the caches under their old node
		// mapping only for placement purposes; coherence state is
		// unaffected (the physical content moves with the page).
	}
	return nil
}
