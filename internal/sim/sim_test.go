package sim

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"pathfinder/internal/mem"
	"pathfinder/internal/pmu"
	"pathfinder/internal/workload"
)

// opList is a finite generator over a fixed op slice (test helper).
type opList struct {
	ops []workload.Op
	i   int
}

func (g *opList) Next(op *workload.Op) bool {
	if g.i >= len(g.ops) {
		return false
	}
	*op = g.ops[g.i]
	g.i++
	return true
}

// loopGen replays a fixed op slice forever.
type loopGen struct {
	ops []workload.Op
	i   int
}

func (g *loopGen) Next(op *workload.Op) bool {
	*op = g.ops[g.i]
	g.i++
	if g.i == len(g.ops) {
		g.i = 0
	}
	return true
}

func seqLoads(base uint64, n int, stride uint64, dep bool) []workload.Op {
	ops := make([]workload.Op, n)
	for i := range ops {
		ops[i] = workload.Op{Addr: base + uint64(i)*stride, Kind: workload.Load, Dep: dep, Think: 2}
	}
	return ops
}

func testSpace(t *testing.T) *mem.AddressSpace {
	t.Helper()
	return mem.NewAddressSpace(12, []mem.Node{
		{ID: 0, Kind: mem.LocalDRAM, Capacity: 8 << 30},
		{ID: 1, Kind: mem.RemoteDRAM, Socket: 1, Capacity: 8 << 30},
		{ID: 2, Kind: mem.CXLDRAM, Device: 0, Capacity: 8 << 30},
	})
}

func smallConfig() Config {
	c := SPR()
	c.Cores = 4
	c.LLCSlices = 8
	c.LLCSize = 4 << 20
	return c
}

// --- Engine ---------------------------------------------------------------

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func(Cycles) { got = append(got, 3) })
	e.Schedule(10, func(Cycles) { got = append(got, 1) })
	e.Schedule(20, func(Cycles) { got = append(got, 2) })
	e.Schedule(10, func(Cycles) { got = append(got, 11) }) // same time: FIFO by seq
	e.RunUntil(25)
	if len(got) != 3 || got[0] != 1 || got[1] != 11 || got[2] != 2 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %d", e.Now())
	}
	e.RunUntil(100)
	if len(got) != 4 || got[3] != 3 {
		t.Fatalf("after second run: %v", got)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Cycles
	e.Schedule(5, func(now Cycles) {
		fired = append(fired, now)
		e.Schedule(now+5, func(n2 Cycles) { fired = append(fired, n2) })
	})
	e.RunUntil(20)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestEnginePastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	e := NewEngine()
	e.Schedule(10, func(Cycles) {})
	e.RunUntil(10)
	e.Schedule(5, func(Cycles) {})
}

// --- Cache ----------------------------------------------------------------

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(4096, 4) // 16 sets
	if c.Lookup(0) >= 0 {
		t.Fatal("hit in empty cache")
	}
	c.Insert(0, Exclusive)
	w := c.Lookup(0)
	if w < 0 || c.State(w) != Exclusive {
		t.Fatal("inserted line not found")
	}
	if c.HasVictim {
		t.Fatal("victim from empty set")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2*64, 2) // 1 set, 2 ways
	c.Insert(0x000, Exclusive)
	c.Insert(0x040, Exclusive)
	c.Lookup(0x000) // make 0x40 the LRU
	c.Insert(0x080, Modified)
	if !c.HasVictim || c.Victim.Tag != 0x040 {
		t.Fatalf("victim = %+v (HasVictim=%v)", c.Victim, c.HasVictim)
	}
	if c.Lookup(0x000) < 0 || c.Lookup(0x080) < 0 || c.Peek(0x040) >= 0 {
		t.Fatal("wrong resident set after eviction")
	}
}

func TestCacheInsertInPlace(t *testing.T) {
	c := NewCache(4096, 4)
	c.Insert(0x100, Shared)
	c.Insert(0x100, Modified)
	if c.HasVictim {
		t.Fatal("in-place update produced a victim")
	}
	if c.Occupied() != 1 {
		t.Fatalf("occupied = %d", c.Occupied())
	}
	if c.State(c.Peek(0x100)) != Modified {
		t.Fatal("state not updated")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(4096, 4)
	c.Insert(0x200, Modified)
	st, ok := c.Invalidate(0x200)
	if !ok || st != Modified {
		t.Fatalf("Invalidate = %v, %v", st, ok)
	}
	if _, ok := c.Invalidate(0x200); ok {
		t.Fatal("double invalidate succeeded")
	}
}

func TestCacheSetsPowerOfTwo(t *testing.T) {
	c := NewCache(48<<10, 12) // 48 KB / 12 ways = 64 sets
	if c.Sets() != 64 {
		t.Fatalf("Sets = %d, want 64", c.Sets())
	}
	if c.Ways() != 12 {
		t.Fatalf("Ways = %d", c.Ways())
	}
}

// TestCacheStatePacking: a way keeps its state in the line address's free
// low bits, so every MESIF state must survive a round trip at both ends of
// the address space, and a misaligned address must not be stored at all.
func TestCacheStatePacking(t *testing.T) {
	top := ^uint64(0) &^ (mem.LineSize - 1)
	for _, la := range []uint64{0, top} {
		for _, st := range []State{Invalid, Shared, Exclusive, Modified, Forward} {
			c := NewCache(mem.LineSize, 1) // 1 set, 1 way
			w := c.Insert(la, Shared)
			c.SetState(w, st)
			if got := c.State(w); got != st {
				t.Fatalf("%#x: SetState(%v) reads back %v", la, st, got)
			}
			if got := c.Peek(la); (got >= 0) != (st != Invalid) {
				t.Fatalf("%#x in state %v: Peek = %d", la, st, got)
			}
			// Evicting the line unpacks tag and state into the victim.
			other := la ^ mem.LineSize
			c.Insert(other, Exclusive)
			if st == Invalid {
				if c.HasVictim {
					t.Fatalf("%#x: an invalid way was reported as victim %+v", la, c.Victim)
				}
				continue
			}
			if !c.HasVictim || c.Victim != (Line{Tag: la, State: st}) {
				t.Fatalf("%#x in state %v: victim %+v (HasVictim=%v)", la, st, c.Victim, c.HasVictim)
			}
			if w := c.Lookup(other); w < 0 || c.State(w) != Exclusive {
				t.Fatalf("%#x: replacement line lost", other)
			}
		}
	}
	if got := unsafe.Sizeof(way{}); got != 16 {
		t.Fatalf("a way is %d bytes, want 16", got)
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Insert of a misaligned address did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "0x1001") {
			t.Fatalf("panic %q does not name the address", msg)
		}
	}()
	NewCache(4096, 4).Insert(0x1001, Exclusive)
}

// machineCacheBytes sums the state arrays of every cache the machine holds.
func machineCacheBytes(m *Machine) int {
	n := 0
	for _, c := range m.cores {
		if c.l1 != nil {
			n += c.l1.Bytes() + c.l2.Bytes()
		}
	}
	for _, s := range m.slices {
		n += s.llc.Bytes()
	}
	return n
}

// TestPrivateCachesBuiltAtFirstAttach: a core's L1D and L2 exist only once
// a workload runs on it, so a fresh SPR machine holds just its LLC.
func TestPrivateCachesBuiltAtFirstAttach(t *testing.T) {
	cfg := SPR()
	m := New(cfg, testSpace(t))
	for _, c := range m.cores {
		if c.l1 != nil || c.l2 != nil {
			t.Fatalf("New built core %d's private caches", c.id)
		}
	}
	// 32 slices of 2,048 sets x 12 ways: 786,432 lines of a 16-byte way
	// and an 8-byte presence bitmap, plus one predictor byte per set.  A
	// machine with 32-byte lines and every private cache built held
	// about 57 MiB.
	const llcLines, llcSets = 786_432, 65_536
	if got, want := machineCacheBytes(m), llcLines*24+llcSets; got != want {
		t.Fatalf("fresh SPR machine holds %d cache bytes, want %d (%.1f MiB)",
			got, want, float64(want)/(1<<20))
	}

	m.Attach(7, nil)
	if m.cores[7].l1 != nil {
		t.Fatal("Attach with a nil generator built caches")
	}
	m.Attach(5, &loopGen{ops: seqLoads(0, 4, mem.LineSize, false)})
	for _, c := range m.cores {
		if built := c.l1 != nil && c.l2 != nil; built != (c.id == 5) {
			t.Fatalf("after Attach(5): core %d has caches = %v", c.id, built)
		}
	}
	l1, l2 := m.cores[5].l1, m.cores[5].l2
	if l1.Sets()*l1.Ways()*mem.LineSize != cfg.L1DSize || l2.Sets()*l2.Ways()*mem.LineSize != cfg.L2Size {
		t.Fatalf("core 5 caches hold %d / %d lines", l1.Sets()*l1.Ways(), l2.Sets()*l2.Ways())
	}
	// A second Attach (migration) reuses the caches it built.
	m.Attach(5, &loopGen{ops: seqLoads(0, 4, mem.LineSize, false)})
	if m.cores[5].l1 != l1 || m.cores[5].l2 != l2 {
		t.Fatal("re-Attach rebuilt core 5's caches")
	}
}

// --- server / boundedQueue --------------------------------------------------

func TestServerFCFS(t *testing.T) {
	s := server{service: 10}
	if got := s.acquire(100); got != 100 {
		t.Fatalf("first acquire = %d", got)
	}
	if got := s.acquire(100); got != 110 {
		t.Fatalf("second acquire = %d", got)
	}
	if got := s.acquire(200); got != 200 {
		t.Fatalf("idle acquire = %d", got)
	}
}

func TestBoundedQueueAdmission(t *testing.T) {
	q := newBoundedQueue(2)
	if got := q.admit(10); got != 10 {
		t.Fatalf("admit into empty = %d", got)
	}
	q.commit(50)
	if got := q.admit(11); got != 11 {
		t.Fatalf("second admit = %d", got)
	}
	q.commit(60)
	// Third admission must wait for the first departure (50).
	if got := q.admit(12); got != 50 {
		t.Fatalf("third admit = %d, want 50", got)
	}
	q.commit(70)
	if got := q.admit(55); got != 60 {
		t.Fatalf("fourth admit = %d, want 60", got)
	}
}

func TestBoundedQueueUnbounded(t *testing.T) {
	q := newBoundedQueue(0)
	if got := q.admit(7); got != 7 {
		t.Fatalf("unbounded admit = %d", got)
	}
	q.commit(100) // must not panic
}

// --- Prefetcher -------------------------------------------------------------

func TestPrefetcherTrainsOnStride(t *testing.T) {
	p := newPrefetcher(2, 8, 2)
	var out []uint64
	out = p.train(0x0000, out[:0])
	out = p.train(0x0040, out[:0])
	if len(out) != 0 {
		t.Fatalf("prefetched before confidence: %v", out)
	}
	out = p.train(0x0080, out[:0])
	if len(out) != 2 || out[0] != 0x00c0 || out[1] != 0x0100 {
		t.Fatalf("prefetch candidates = %#v", out)
	}
}

func TestPrefetcherPageBound(t *testing.T) {
	p := newPrefetcher(4, 8, 1)
	var out []uint64
	p.train(0xf80, out[:0])
	out = p.train(0xfc0, out[:0])
	// Next lines 0x1000.. cross the 4 KiB page: nothing emitted.
	if len(out) != 0 {
		t.Fatalf("crossed page: %#v", out)
	}
}

func TestPrefetcherMultiStream(t *testing.T) {
	p := newPrefetcher(1, 8, 1)
	var out []uint64
	// Two interleaved streams in different pages.
	p.train(0x0000, out[:0])
	p.train(0x10000, out[:0])
	out = p.train(0x0040, out[:0])
	if len(out) != 1 || out[0] != 0x0080 {
		t.Fatalf("stream A candidates = %#v", out)
	}
	out = p.train(0x10040, out[:0])
	if len(out) != 1 || out[0] != 0x10080 {
		t.Fatalf("stream B candidates = %#v", out)
	}
}

// --- Machine integration ----------------------------------------------------

func TestMachineLocalLoads(t *testing.T) {
	as := testSpace(t)
	r, err := as.Alloc(1<<20, mem.Fixed(0))
	if err != nil {
		t.Fatal(err)
	}
	m := New(smallConfig(), as)
	m.Attach(0, &opList{ops: seqLoads(r.Base, 4096, 64, false)})
	m.Run(3_000_000)
	m.Sync()

	b := m.Core(0).Bank()
	loads := b.Read(pmu.MemInstAllLoads)
	if loads != 4096 {
		t.Fatalf("loads = %d, want 4096", loads)
	}
	hits := b.Read(pmu.MemLoadL1Hit)
	misses := b.Read(pmu.MemLoadL1Miss)
	if hits+misses != loads {
		t.Fatalf("L1 hit(%d)+miss(%d) != loads(%d)", hits, misses, loads)
	}
	if misses == 0 {
		t.Fatal("sequential 64B-stride loads over 256 KiB produced no L1 misses")
	}
	// Local traffic must reach the IMC, not the CXL port.
	var cas, cxlIns uint64
	for i := 0; i < m.Config().DRAMChannels; i++ {
		cas += m.Bank("imc" + string(rune('0'+i))).Read(pmu.CASCountRd)
	}
	cxlIns = m.Bank("cxl0").Read(pmu.CXLRxPackBufInsertsReq)
	if cas == 0 {
		t.Fatal("no DRAM CAS commands for local working set")
	}
	if cxlIns != 0 {
		t.Fatalf("CXL device saw %d requests for a local working set", cxlIns)
	}
}

func TestMachineCXLLoads(t *testing.T) {
	as := testSpace(t)
	r, err := as.Alloc(1<<20, mem.Fixed(2))
	if err != nil {
		t.Fatal(err)
	}
	m := New(smallConfig(), as)
	m.Attach(0, &opList{ops: seqLoads(r.Base, 4096, 64, false)})
	m.Run(10_000_000)
	m.Sync()

	if got := m.Bank("cxl0").Read(pmu.CXLRxPackBufInsertsReq); got == 0 {
		t.Fatal("no CXL M2S requests for a CXL working set")
	}
	if got := m.Bank("m2pcie0").Read(pmu.M2PTxInsertsBL); got == 0 {
		t.Fatal("no CXL data responses at the M2PCIe egress")
	}
	// The IMC read path must stay cold (paper Fig. 4-a: CXL bypasses IMC).
	for i := 0; i < m.Config().DRAMChannels; i++ {
		if cas := m.Bank("imc" + string(rune('0'+i))).Read(pmu.CASCountRd); cas != 0 {
			t.Fatalf("imc%d saw %d read CAS for a CXL-only stream", i, cas)
		}
	}
}

// avgLoadLatency runs n dependent pointer-stride loads over the region and
// returns the average retired-load latency in cycles.
func avgLoadLatency(t *testing.T, as *mem.AddressSpace, base uint64, span uint64) float64 {
	t.Helper()
	cfg := smallConfig()
	cfg.L1PFDegree = 0 // latency measurement: no prefetching
	cfg.L2PFDegree = 0
	m := New(cfg, as)
	// Large stride dependent loads: mostly cache misses.
	n := 2000
	ops := make([]workload.Op, n)
	addr := base
	for i := range ops {
		ops[i] = workload.Op{Addr: addr, Kind: workload.Load, Dep: true, Think: 1}
		addr += 4096 + 64 // new page and set each access
		if addr >= base+span-4096 {
			addr = base + uint64(i%7)*128
		}
	}
	m.Attach(0, &opList{ops: ops})
	m.Run(100_000_000)
	m.Sync()
	b := m.Core(0).Bank()
	lat := b.Read(pmu.MemTransLoadLatency)
	cnt := b.Read(pmu.MemTransLoadCount)
	if cnt == 0 {
		t.Fatal("no loads retired")
	}
	return float64(lat) / float64(cnt)
}

func TestLatencyOrdering(t *testing.T) {
	as := testSpace(t)
	local, err := as.Alloc(64<<20, mem.Fixed(0))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := as.Alloc(64<<20, mem.Fixed(1))
	if err != nil {
		t.Fatal(err)
	}
	cxl, err := as.Alloc(64<<20, mem.Fixed(2))
	if err != nil {
		t.Fatal(err)
	}
	lLocal := avgLoadLatency(t, as, local.Base, local.Size)
	lRemote := avgLoadLatency(t, as, remote.Base, remote.Size)
	lCXL := avgLoadLatency(t, as, cxl.Base, cxl.Size)
	if !(lLocal < lRemote && lRemote < lCXL) {
		t.Fatalf("latency ordering violated: local=%.0f remote=%.0f cxl=%.0f", lLocal, lRemote, lCXL)
	}
	// The paper's §2.3: CXL ~3.4x local latency.  Accept a broad band.
	ratio := lCXL / lLocal
	if ratio < 2 || ratio > 6 {
		t.Fatalf("CXL/local latency ratio = %.2f, want within [2, 6]", ratio)
	}
}

func TestStoreBufferStalls(t *testing.T) {
	as := testSpace(t)
	r, err := as.Alloc(32<<20, mem.Fixed(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.SBEntries = 8
	m := New(cfg, as)
	// Write-only stream of misses: every store needs a CXL RFO.
	n := 4000
	ops := make([]workload.Op, n)
	for i := range ops {
		ops[i] = workload.Op{Addr: r.Base + uint64(i)*4096, Kind: workload.Store, Think: 1}
	}
	m.Attach(0, &opList{ops: ops})
	m.Run(200_000_000)
	m.Sync()
	b := m.Core(0).Bank()
	sb := b.Read(pmu.ResourceStallsSB) + b.Read(pmu.ExeBoundOnStores)
	if sb == 0 {
		t.Fatal("write-only CXL stream produced no SB-full stalls")
	}
	if b.Read(pmu.MemInstAllStores) != uint64(n) {
		t.Fatalf("stores = %d", b.Read(pmu.MemInstAllStores))
	}
	// Stores reach the CXL device as M2S RwD writebacks eventually; at
	// minimum, RFOs reach it as reads.
	if m.Bank("cxl0").Read(pmu.CXLRxPackBufInsertsReq) == 0 {
		t.Fatal("no CXL traffic from store stream")
	}
}

func TestHWPrefetchCounters(t *testing.T) {
	as := testSpace(t)
	r, err := as.Alloc(8<<20, mem.Fixed(0))
	if err != nil {
		t.Fatal(err)
	}
	m := New(smallConfig(), as)
	m.Attach(0, &opList{ops: seqLoads(r.Base, 8192, 64, false)})
	m.Run(20_000_000)
	m.Sync()
	b := m.Core(0).Bank()
	if got := b.Read(pmu.OCRL1DHWPF[pmu.ScnAny]); got == 0 {
		t.Fatal("sequential stream triggered no L1 hardware prefetches")
	}
	if got := b.Read(pmu.L2HWPFHit) + b.Read(pmu.L2HWPFMiss); got == 0 {
		t.Fatal("no L2 prefetch activity")
	}
}

func TestSWPrefetchCounters(t *testing.T) {
	as := testSpace(t)
	r, err := as.Alloc(1<<20, mem.Fixed(0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
	m := New(cfg, as)
	ops := make([]workload.Op, 0, 500)
	for i := 0; i < 250; i++ {
		a := r.Base + uint64(i)*4096
		ops = append(ops,
			workload.Op{Addr: a, Kind: workload.Prefetch, Think: 1},
			workload.Op{Addr: a, Kind: workload.Load, Dep: true, Think: 40},
		)
	}
	m.Attach(0, &opList{ops: ops})
	m.Run(50_000_000)
	m.Sync()
	b := m.Core(0).Bank()
	if got := b.Read(pmu.SWPrefetchT0); got != 250 {
		t.Fatalf("sw_prefetch_access.t0 = %d, want 250", got)
	}
	// Prefetch-then-load should produce LFB merge hits or L1 hits.
	if b.Read(pmu.MemLoadFBHit)+b.Read(pmu.MemLoadL1Hit) == 0 {
		t.Fatal("software prefetches never helped a load")
	}
}

func TestTORConservation(t *testing.T) {
	as := testSpace(t)
	r, err := as.Alloc(16<<20, mem.Fixed(2))
	if err != nil {
		t.Fatal(err)
	}
	m := New(smallConfig(), as)
	m.Attach(0, &opList{ops: seqLoads(r.Base, 4096, 4096, true)})
	m.Run(100_000_000)
	m.Sync()
	var all, hit, miss uint64
	for i := 0; i < m.Config().LLCSlices; i++ {
		b := m.Bank("cha" + string(rune('0'+i)))
		all += b.Read(pmu.TORInsertsIADRd[pmu.ScnAny])
		hit += b.Read(pmu.TORInsertsIADRd[pmu.ScnHit])
		miss += b.Read(pmu.TORInsertsIADRd[pmu.ScnMiss])
	}
	if all == 0 {
		t.Fatal("no TOR DRd inserts")
	}
	if hit+miss != all {
		t.Fatalf("TOR conservation: hit(%d)+miss(%d) != all(%d)", hit, miss, all)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		as := testSpace(t)
		r, _ := as.Alloc(4<<20, mem.Interleave{A: 0, B: 2, RatioA: 1, RatioB: 1})
		m := New(smallConfig(), as)
		ops := seqLoads(r.Base, 2048, 192, false)
		for i := range ops {
			if i%3 == 0 {
				ops[i].Kind = workload.Store
			}
		}
		m.Attach(0, &opList{ops: ops})
		m.Attach(1, &opList{ops: seqLoads(r.Base+1<<20, 2048, 64, true)})
		m.Run(30_000_000)
		m.Sync()
		var out []uint64
		for _, b := range m.Banks() {
			out = append(out, b.Values()...)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("bank shapes differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterminism at value %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestAttachDetach(t *testing.T) {
	as := testSpace(t)
	r, _ := as.Alloc(1<<20, mem.Fixed(0))
	m := New(smallConfig(), as)
	m.Attach(0, &loopGen{ops: seqLoads(r.Base, 64, 64, false)})
	m.Run(10_000)
	if !m.Core(0).Running() {
		t.Fatal("core not running after Attach")
	}
	m.Detach(0)
	m.Sync()
	before := m.Core(0).Bank().Read(pmu.MemInstAllLoads)
	m.Run(100_000)
	m.Sync()
	after := m.Core(0).Bank().Read(pmu.MemInstAllLoads)
	if after != before {
		t.Fatalf("detached core kept issuing: %d -> %d", before, after)
	}
}

func TestConfigValidatePanics(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.LLCSlices = 3; c.SNCClusters = 2 },
		func(c *Config) { c.LFBEntries = 0 },
		func(c *Config) { c.DRAMChannels = 0 },
		func(c *Config) { c.GHz = 0 },
		// Private caches are built at first Attach; New still checks them.
		func(c *Config) { c.L1DWays = 0 },
		func(c *Config) { c.L1DSize = 0 },
		func(c *Config) { c.L2Ways = 300 },
	}
	for i, mut := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid config did not panic", i)
				}
			}()
			cfg := SPR()
			mut(&cfg)
			New(cfg, testSpace(t))
		}()
	}
}
