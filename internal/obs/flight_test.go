package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"unsafe"
)

// flightRec builds a CXL-served load record with the given issue/latency
// and a full set of crossings carved proportionally out of the latency.
func flightRec(core int, issue, lat uint64) FlightRec {
	return FlightRec{
		Addr:       0x1000 + issue,
		Issue:      issue,
		Lat:        uint32(lat),
		Core:       uint8(core),
		Class:      FlightLoad,
		Loc:        9, // SrvCXL ordinal on the sim side
		Path:       FlightPathCXL,
		L2Start:    uint32(lat / 10),
		TOREnter:   uint32(lat / 5),
		MemEnter:   uint32(lat / 2),
		M2PExit:    uint32(lat * 6 / 10),
		DevArrive:  uint32(lat * 7 / 10),
		MediaStart: uint32(lat * 8 / 10),
		DataReady:  uint32(lat * 9 / 10),
	}
}

// lcg is a tiny deterministic generator for latency populations.
type lcg struct{ s uint64 }

func (l *lcg) next() uint64 { l.s = l.s*6364136223846793005 + 1442695040888963407; return l.s }

func TestP2TracksQuantile(t *testing.T) {
	// A uniform population on [0, 10000): the p99 marker should converge
	// near 9900.  P² is an approximation; 5% of the range is plenty tight
	// for a promotion threshold.
	sk := newP2(0.99)
	r := &lcg{s: 42}
	var all []float64
	for i := 0; i < 20000; i++ {
		v := float64(r.next() % 10000)
		all = append(all, v)
		sk.observe(v)
	}
	sort.Float64s(all)
	exact := all[len(all)*99/100]
	got := sk.estimate()
	if math.Abs(got-exact) > 500 {
		t.Fatalf("p99 estimate %.0f too far from exact %.0f", got, exact)
	}
}

func TestP2EarlyEstimateIsMax(t *testing.T) {
	sk := newP2(0.99)
	if got := sk.estimate(); got != 0 {
		t.Fatalf("empty sketch estimate = %g, want 0", got)
	}
	sk.observe(5)
	sk.observe(80)
	sk.observe(12)
	if got := sk.estimate(); got != 80 {
		t.Fatalf("pre-fill estimate = %g, want max 80", got)
	}
}

func TestFlightRingWrap(t *testing.T) {
	f := NewFlight(1, 4, 8)
	f.Enable()
	for i := uint64(0); i < 10; i++ {
		f.Record(0, flightRec(0, i*100, 50))
	}
	recs := f.Sample(1)
	if len(recs) != 4 {
		t.Fatalf("ring holds %d records, want cap 4", len(recs))
	}
	// Oldest-first: the surviving records are issues 600, 700, 800, 900.
	for i, r := range recs {
		want := uint64(600 + i*100)
		if r.Issue != want {
			t.Fatalf("ring[%d].Issue = %d, want %d (oldest first)", i, r.Issue, want)
		}
	}
	if got := f.RecordsTotal(); got != 10 {
		t.Fatalf("RecordsTotal = %d, want 10", got)
	}
}

func TestFlightWarmupBlocksPromotion(t *testing.T) {
	f := NewFlight(1, 64, 8)
	f.Enable()
	// Alternating latencies so the sketch markers spread out; nothing may
	// promote during the warmup window no matter how extreme the sample.
	for i := 0; i < flightWarmup; i++ {
		lat := uint64(100 + (i%2)*100000)
		f.Record(0, flightRec(0, uint64(i)*1000, lat))
	}
	if got := f.Promoted(); got != 0 {
		t.Fatalf("promoted %d records during warmup, want 0", got)
	}
	if thr := f.Threshold(FlightLoad); thr == 0 {
		t.Fatalf("threshold still 0 after %d records", flightWarmup)
	}
	// Post-warmup outlier far beyond every prior sample must promote.
	f.Record(0, flightRec(0, 1<<20, 1<<30))
	if got := f.Promoted(); got != 1 {
		t.Fatalf("outlier promoted %d times, want 1", got)
	}
	tail := f.TailRecs()
	if len(tail) != 1 || tail[0].Latency() != 1<<30 {
		t.Fatalf("tail = %+v, want the single outlier", tail)
	}
	if tail[0].Threshold <= 0 {
		t.Fatalf("promoted record carries threshold %g, want > 0", tail[0].Threshold)
	}
	if tail[0].Pending != -1 {
		t.Fatalf("pending = %d, want -1 with no probe installed", tail[0].Pending)
	}
}

func TestFlightTailRingKeepsNewest(t *testing.T) {
	f := NewFlight(1, 256, 4)
	f.Enable()
	r := &lcg{s: 7}
	// Warm with a low-latency population, then drive promotions with a
	// run of escalating outliers.
	for i := 0; i < 2*flightWarmup; i++ {
		f.Record(0, flightRec(0, uint64(i)*10, 50+r.next()%20))
	}
	base := f.Promoted()
	for i := uint64(0); i < 8; i++ {
		f.Record(0, flightRec(0, 1<<20+i*1000, 1<<20+i))
	}
	if got := f.Promoted(); got != base+8 {
		t.Fatalf("promoted %d outliers, want 8", got-base)
	}
	tail := f.TailRecs()
	if len(tail) != 4 {
		t.Fatalf("tail holds %d records, want cap 4", len(tail))
	}
	// Chronological (oldest first) and the newest four of the run.
	for i := 1; i < len(tail); i++ {
		if tail[i].Seq <= tail[i-1].Seq {
			t.Fatalf("tail not chronological: seq %d after %d", tail[i].Seq, tail[i-1].Seq)
		}
	}
	if got, want := tail[len(tail)-1].Latency(), uint64(1<<20+7); got != want {
		t.Fatalf("newest tail latency = %d, want %d", got, want)
	}
}

func TestFlightExemplarPinned(t *testing.T) {
	f := NewFlight(1, 64, 8)
	f.Enable()
	for i := 0; i < 2*flightWarmup; i++ {
		f.Record(0, flightRec(0, uint64(i)*10, 100))
	}
	f.Record(0, flightRec(0, 1<<20, 5000))
	if f.Promoted() == 0 {
		t.Fatal("outlier did not promote")
	}
	snap := f.Snapshot()
	exs := snap.Classes[FlightLoad].Hist.Exemplars
	if len(exs) == 0 {
		t.Fatal("no exemplars after promotion")
	}
	bounds := flightBounds
	found := false
	for _, e := range exs {
		if e.Value == 5000 {
			found = true
			// 5000 falls in the (4096, 8192] bucket.
			want := sort.SearchFloat64s(bounds, 5000)
			if e.Bucket != want {
				t.Fatalf("exemplar bucket = %d, want %d", e.Bucket, want)
			}
			if e.Cycle != 1<<20+5000 {
				t.Fatalf("exemplar cycle = %d, want completion cycle %d", e.Cycle, 1<<20+5000)
			}
		}
	}
	if !found {
		t.Fatalf("no exemplar for the promoted latency; got %+v", exs)
	}
}

func TestFlightClassesSeparate(t *testing.T) {
	f := NewFlight(1, 64, 8)
	f.Enable()
	ld := flightRec(0, 0, 100)
	st := flightRec(0, 0, 900)
	st.Class = FlightStore
	f.Record(0, ld)
	f.Record(0, st)
	if got := f.Seen(FlightLoad); got != 1 {
		t.Fatalf("load class saw %d records, want 1", got)
	}
	if got := f.Seen(FlightStore); got != 1 {
		t.Fatalf("store class saw %d records, want 1", got)
	}
	if FlightClassName(FlightLoad) != "DRd" || FlightClassName(FlightStore) != "DWr" {
		t.Fatalf("class names = %q/%q", FlightClassName(FlightLoad), FlightClassName(FlightStore))
	}
}

func TestFlightRecordAllocFree(t *testing.T) {
	f := NewFlight(1, 64, 8)
	f.Enable()
	// Warm the sketch so the steady-state path includes promotion checks.
	r := &lcg{s: 3}
	for i := 0; i < 4*flightWarmup; i++ {
		f.Record(0, flightRec(0, uint64(i)*10, 100+r.next()%1000))
	}
	i := uint64(0)
	if got := testing.AllocsPerRun(1000, func() {
		i++
		f.Record(0, flightRec(0, i*10, 100+(i%900)))
	}); got != 0 {
		t.Fatalf("Record allocates %.1f per op in steady state, want 0", got)
	}
}

// TestFlightRingsBuiltAtFirstRecord: a recorder sized for a 32-core rig
// whose workload runs on core 0 holds one ring, not 32; idle cores read
// back empty.
func TestFlightRingsBuiltAtFirstRecord(t *testing.T) {
	f := NewFlight(32, 64, 8)
	f.Enable()
	for i := uint64(0); i < 100; i++ {
		f.Record(0, flightRec(0, i*10, 200))
	}
	idle := 0
	for i := range f.lanes {
		if f.lanes[i].ring == nil {
			idle++
		}
	}
	if idle != 31 {
		t.Fatalf("%d rings unallocated, want 31 (only core 0 recorded)", idle)
	}
	if got := cap(f.lanes[0].ring); got != 64 {
		t.Fatalf("core 0 ring capacity %d, want 64", got)
	}
	if recs := f.Sample(1); len(recs) != 64 || recs[0].Core != 0 {
		t.Fatalf("rings returned %d records, want core 0's 64-record ring", len(recs))
	}
	if f.Snapshot().Records != 100 {
		t.Fatalf("snapshot records = %d, want 100", f.Snapshot().Records)
	}
}

// TestFlightSnapshotHistMatchesReference checks the per-class histogram
// against counts and sums computed straight from the records: a latency
// equal to a bound lands in that bound's bucket, anything above the top
// bound in the overflow bucket, and the sum adds latencies in record order.
func TestFlightSnapshotHistMatchesReference(t *testing.T) {
	f := NewFlight(2, 16, 8)
	f.Enable()
	var counts [flightClasses][]uint64
	var sums [flightClasses]float64
	for c := range counts {
		counts[c] = make([]uint64, len(flightBounds)+1)
	}
	r := &lcg{s: 11}
	lats := []uint64{1, 8, 9, 16, 1024, 1025, 16384, 16385, 40000}
	for i := 0; i < 2000; i++ {
		lat := lats[i%len(lats)]
		if i >= len(lats) {
			lat = 1 + r.next()%20000
		}
		rec := flightRec(i%2, uint64(i)*50, lat)
		rec.Class = uint8(i/3) & 1
		f.Record(i%2, rec)

		cls := int(rec.Class)
		b := 0
		for b < len(flightBounds) && float64(lat) > flightBounds[b] {
			b++
		}
		counts[cls][b]++
		sums[cls] += float64(lat)
	}
	snap := f.Snapshot()
	for c := 0; c < flightClasses; c++ {
		h := snap.Classes[c].Hist
		if len(h.Counts) != len(counts[c]) {
			t.Fatalf("class %d: %d buckets, want %d", c, len(h.Counts), len(counts[c]))
		}
		for b := range counts[c] {
			if h.Counts[b] != counts[c][b] {
				t.Fatalf("class %d bucket %d: count %d, want %d (all %v, want %v)",
					c, b, h.Counts[b], counts[c][b], h.Counts, counts[c])
			}
		}
		if h.Sum != sums[c] {
			t.Fatalf("class %d: sum %v, want %v", c, h.Sum, sums[c])
		}
		if len(h.Bounds) != len(flightBounds) {
			t.Fatalf("class %d: %d bounds, want %d", c, len(h.Bounds), len(flightBounds))
		}
	}
}

// TestFlightConcurrentReaders records on one goroutine, as the machine
// does, while others take snapshots and sample the rings, as the HTTP
// handlers do.  Every snapshot must be consistent — its record count equals the
// sum of its per-class counts — and every ring must read oldest first.
func TestFlightConcurrentReaders(t *testing.T) {
	const cores, perCore, readers = 4, 3000, 3
	f := NewFlight(cores, 64, 16)
	f.Enable()
	done := make(chan struct{})
	errs := make(chan string, readers) // each reader reports at most once
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			last := uint64(0)
			for {
				select {
				case <-done:
					return
				default:
				}
				s := f.Snapshot()
				sum := uint64(0)
				for _, c := range s.Classes {
					sum += c.Records
				}
				if s.Records != sum || s.Records < last {
					errs <- fmt.Sprintf("snapshot records %d, class sum %d, previous %d", s.Records, sum, last)
					return
				}
				last = s.Records
				recs := f.Sample(1)
				for i := 1; i < len(recs); i++ {
					if recs[i].Core == recs[i-1].Core && recs[i].Issue <= recs[i-1].Issue {
						errs <- fmt.Sprintf("core %d ring out of order at %d", recs[i].Core, i)
						return
					}
				}
			}
		}(g)
	}
	r := &lcg{s: 7}
	for i := uint64(0); i < perCore; i++ {
		for c := 0; c < cores; c++ {
			f.Record(c, flightRec(c, i*100, 50+r.next()%5000))
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := f.RecordsTotal(); got != cores*perCore {
		t.Fatalf("RecordsTotal = %d, want %d", got, cores*perCore)
	}
}

func TestFlightEnabledNilSafe(t *testing.T) {
	var f *Flight
	if f.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	g := NewFlight(1, 4, 4)
	if g.Enabled() {
		t.Fatal("fresh recorder starts enabled")
	}
	g.Enable()
	if !g.Enabled() {
		t.Fatal("Enable did not stick")
	}
	g.Disable()
	if g.Enabled() {
		t.Fatal("Disable did not stick")
	}
}

func TestFlightCoreOutOfRangePanics(t *testing.T) {
	f := NewFlight(2, 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range core did not panic")
		}
	}()
	f.Record(2, FlightRec{})
}

func TestBundleRoundTrip(t *testing.T) {
	f := NewFlight(2, 32, 8)
	f.Enable()
	f.SetEpoch(7)
	for i := 0; i < 2*flightWarmup; i++ {
		f.Record(i%2, flightRec(i%2, uint64(i)*10, 200))
	}
	f.Record(0, flightRec(0, 1<<16, 50000))

	reg := NewRegistry()
	reg.Counter("pf_test_total", "test counter").Add(5)
	var buf bytes.Buffer
	err := DumpBundle(&buf, BundleOpts{
		Trigger:   "test",
		Flight:    f,
		Metrics:   reg,
		Status:    func() any { return map[string]string{"state": "done"} },
		FaultPlan: "seed=1,crc=1e-3",
		Aux:       map[string]float64{"clocks": 123},
	})
	if err != nil {
		t.Fatalf("DumpBundle: %v", err)
	}

	b, err := ReadBundle(&buf)
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if b.Schema != BundleSchema || b.Trigger != "test" || b.Epoch != 7 {
		t.Fatalf("header = %+v", b)
	}
	if b.Flight.Records != f.RecordsTotal() {
		t.Fatalf("bundle records %d != recorder %d", b.Flight.Records, f.RecordsTotal())
	}
	if b.Flight.Promoted == 0 || len(b.Flight.Tail) == 0 {
		t.Fatal("bundle lost the promoted tail")
	}
	if !bytes.Contains([]byte(b.Metrics), []byte("pf_test_total 5")) {
		t.Fatalf("metrics snapshot missing counter:\n%s", b.Metrics)
	}
	if !bytes.Contains(b.Status, []byte(`"state"`)) {
		t.Fatalf("status lost: %s", b.Status)
	}
	if b.FaultPlan != "seed=1,crc=1e-3" {
		t.Fatalf("fault plan = %q", b.FaultPlan)
	}
	if !bytes.Contains(b.Aux, []byte(`"clocks"`)) {
		t.Fatalf("aux lost: %s", b.Aux)
	}
}

func TestDumpBundleRequiresFlight(t *testing.T) {
	var buf bytes.Buffer
	if err := DumpBundle(&buf, BundleOpts{Trigger: "test"}); err == nil {
		t.Fatal("DumpBundle without a recorder did not error")
	}
}

func TestReadBundleRejectsUnknownSchema(t *testing.T) {
	if _, err := ReadBundle(bytes.NewReader([]byte(`{"schema": 99}`))); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

func TestFlightRegisterMetrics(t *testing.T) {
	f := NewFlight(1, 16, 4)
	f.Enable()
	reg := NewRegistry()
	f.RegisterMetrics(reg)
	f.Record(0, flightRec(0, 0, 100))
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"pf_flight_records_total 1",
		"pf_flight_promoted_total 0",
		`pf_flight_threshold_cycles{class="DRd"}`,
		`pf_flight_threshold_cycles{class="DWr"}`,
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestFlightRecSize pins the record at 56 bytes: four busy cores' default
// 4,096-record rings cost 128 KiB of live heap per 8 bytes of record.
func TestFlightRecSize(t *testing.T) {
	if got := unsafe.Sizeof(FlightRec{}); got > 56 {
		t.Fatalf("FlightRec is %d bytes, budget 56", got)
	}
}

// TestFlightStagesPartition: the stages run from crossing to crossing in
// path order, the last reached one runs to Done, empty ones drop, and
// their lengths sum to the latency even for a corrupt record.
func TestFlightStagesPartition(t *testing.T) {
	cxl := flightRec(0, 1000, 1000)
	cxl.Replay = 40
	for _, tc := range []struct {
		name string
		r    FlightRec
		want string
	}{
		{"l1 hit", FlightRec{Lat: 5}, "[{core 0 5}]"},
		{"l2 hit", FlightRec{Lat: 20, L2Start: 4}, "[{core 0 4} {l2 4 20}]"},
		{"llc hit", FlightRec{Lat: 90, L2Start: 4, TOREnter: 30}, "[{core 0 4} {l2 4 30} {cha 30 90}]"},
		{"dram", FlightRec{Lat: 300, L2Start: 4, TOREnter: 30, MemEnter: 60, DataReady: 280, Path: FlightPathIMC},
			"[{core 0 4} {l2 4 30} {cha 30 60} {imc 60 280} {imc_return 280 300}]"},
		{"cxl", cxl, "[{core 0 100} {l2 100 200} {cha 200 500} {m2pcie 500 600} {cxl_link 600 700} {cxl_devq 700 800} {cxl_media 800 900} {cxl_return 900 1000}]"},
		// A root-port fast fail reaches no device: M2PCIe runs to done.
		{"cxl fast fail", FlightRec{Lat: 120, L2Start: 4, TOREnter: 30, MemEnter: 60, Path: FlightPathCXL},
			"[{core 0 4} {l2 4 30} {cha 30 60} {m2pcie 60 120}]"},
		// A crossing at the previous one's cycle opens no empty span.
		{"empty stage", FlightRec{Lat: 50, L2Start: 4, TOREnter: 4}, "[{core 0 4} {cha 4 50}]"},
		// Out-of-order and out-of-range crossings still partition.
		{"corrupt", FlightRec{Lat: 50, L2Start: 40, TOREnter: 10, MemEnter: 90, DataReady: 70, Path: FlightPathIMC},
			"[{core 0 40} {cha 40 50}]"},
	} {
		var buf [MaxStages]Span
		spans := tc.r.Stages(&buf)
		if got := fmt.Sprint(spans); got != tc.want {
			t.Errorf("%s: stages %s, want %s", tc.name, got, tc.want)
		}
		var sum uint64
		for _, sp := range spans {
			sum += uint64(sp.End - sp.Start)
		}
		if sum != tc.r.Latency() {
			t.Errorf("%s: stages sum to %d, latency %d", tc.name, sum, tc.r.Latency())
		}
	}

	// The recorder files the same partition, plus the envelope and replay.
	f := NewFlight(1, 4, 4)
	f.Record(0, cxl)
	st := f.Stages()
	if st.Cycles[StageReq] != 1000 || st.Cycles[StageCXLMedia] != 100 ||
		st.Cycles[StageLRSM] != 40 || st.Spans[StageIMC] != 0 {
		t.Fatalf("recorder stage totals %+v", st)
	}
}

// TestFlightSampleEveryN: the export picks the records whose per-core
// ordinal is a multiple of N among those the ring still holds, core by
// core, oldest first.
func TestFlightSampleEveryN(t *testing.T) {
	f := NewFlight(3, 4, 4)
	for i := uint64(0); i < 10; i++ {
		f.Record(0, flightRec(0, i*100, 50))
		f.Record(2, flightRec(2, i*100+1, 50))
	}
	ids := func(recs []TraceRec) string {
		var out []string
		for _, r := range recs {
			out = append(out, fmt.Sprintf("%d/%d@%d", r.Core, r.ID, r.Issue))
		}
		return fmt.Sprint(out)
	}
	// The rings hold ordinals 6..9 of cores 0 and 2; core 1 filed none.
	if got, want := ids(f.Sample(3)), "[0/6@600 0/9@900 2/6@601 2/9@901]"; got != want {
		t.Fatalf("Sample(3) = %s, want %s", got, want)
	}
	if got, want := ids(f.Sample(0)), ids(f.Sample(1)); got != want || len(f.Sample(1)) != 8 {
		t.Fatalf("Sample(0) = %s, Sample(1) = %s; want the 8 held records", got, want)
	}
	if got := f.Sample(20); len(got) != 0 {
		t.Fatalf("Sample(20) = %s, want none (ordinal 0 left the rings)", ids(got))
	}
}

// TestFlightSampleTracksDistinct: every exported ring record gets a track
// of its own, and a promoted record's Seq is its place in the filing
// order.  Ring records once carried the Seq of the promotion pipeline,
// stamped only on promoted copies, so every one of them read 0.
func TestFlightSampleTracksDistinct(t *testing.T) {
	f := NewFlight(2, 64, 8)
	for i := 0; i < 2*flightWarmup; i++ {
		f.Record(i%2, flightRec(i%2, uint64(i)*10, 100))
	}
	f.Record(1, flightRec(1, 1<<20, 5000))
	tracks := map[[2]uint64]bool{}
	for _, r := range f.Sample(1) {
		k := [2]uint64{uint64(r.Core), r.ID}
		if tracks[k] {
			t.Fatalf("two exported records on track core %d id %d", r.Core, r.ID)
		}
		tracks[k] = true
	}
	if len(tracks) != 2*flightWarmup+1 {
		t.Fatalf("%d tracks for %d records", len(tracks), 2*flightWarmup+1)
	}
	tail := f.TailRecs()
	if len(tail) == 0 || tail[len(tail)-1].Seq != 2*flightWarmup+1 {
		t.Fatalf("outlier promoted as %+v, want seq %d", tail, 2*flightWarmup+1)
	}
}

// TestWriteChromeTrace renders one CXL record: a req event over the whole
// request with its identity in args, then one event per stage, on the
// record's (core, id) track, at 2 GHz.
func TestWriteChromeTrace(t *testing.T) {
	r := flightRec(2, 1000, 1000)
	r.Replay = 40
	var buf bytes.Buffer
	recs := []TraceRec{{FlightRec: r, ID: 7}}
	if err := WriteChromeTrace(&buf, recs, 2.0, func(uint8) string { return "CXL memory" }); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int32          `json:"pid"`
			TID  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	evs := doc.TraceEvents
	if len(evs) != 9 {
		t.Fatalf("got %d events, want req + 8 stages", len(evs))
	}
	req := evs[0]
	if req.Name != "req" || req.Ph != "X" || req.PID != 2 || req.TID != 7 ||
		req.TS != 0.5 || req.Dur != 0.5 {
		t.Fatalf("req event = %+v", req)
	}
	if req.Args["loc"] != "CXL memory" || req.Args["class"] != "DRd" ||
		req.Args["lrsm_replay"] != float64(40) || req.Args["addr"] != float64(r.Addr) {
		t.Fatalf("req args = %v", req.Args)
	}
	var dur float64
	for _, ev := range evs[1:] {
		if ev.PID != 2 || ev.TID != 7 || ev.Args != nil {
			t.Fatalf("stage event off the record's track: %+v", ev)
		}
		dur += ev.Dur
	}
	if math.Abs(dur-req.Dur) > 1e-9 || evs[1].Name != "core" || evs[8].Name != "cxl_return" {
		t.Fatalf("stage events %+v do not partition the request", evs[1:])
	}
}
