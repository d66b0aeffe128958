package obs

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
)

// flightRec builds a load record with the given issue/latency and a full
// set of stage deltas carved proportionally out of the latency.
func flightRec(core int, issue, lat uint64) FlightRec {
	return FlightRec{
		Addr:     0x1000 + issue,
		Issue:    issue,
		Done:     issue + lat,
		Core:     uint16(core),
		Class:    FlightLoad,
		Loc:      9, // SrvCXL ordinal on the sim side
		L2Start:  uint32(lat / 10),
		TOREnter: uint32(lat / 5),
		MemEnter: uint32(lat / 2),
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
	recs := f.CoreRecords(0)
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

// TestFlightConcurrentReaders records on one goroutine, as the machine
// does, while others take snapshots and read rings, as the HTTP handlers
// do.  Every snapshot must be consistent — its record count equals the
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
				recs := f.CoreRecords(g % cores)
				for i := 1; i < len(recs); i++ {
					if recs[i].Issue <= recs[i-1].Issue {
						errs <- fmt.Sprintf("core %d ring out of order at %d", g%cores, i)
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
