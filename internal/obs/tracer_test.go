package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The request trace is the 1-in-N selection of flight records that /trace
// exports (Flight.Sample) and WriteChromeTrace renders; these tests check
// that export.

func TestTracerDisabledSamplesNothing(t *testing.T) {
	f := NewFlight(2, 8, 4) // never enabled: the machine files nothing
	for _, every := range []int{0, 1, 7} {
		if recs := f.Sample(every); len(recs) != 0 {
			t.Fatalf("Sample(%d) of an empty recorder = %+v", every, recs)
		}
	}
	// The empty export is still a trace Perfetto loads: an events array,
	// not null.
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, f.Sample(1), 2.0, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if got := string(doc["traceEvents"]); got != "[]" {
		t.Fatalf("traceEvents = %s, want []", got)
	}
}

func TestTracerSamplingRate(t *testing.T) {
	f := NewFlight(1, 1024, 8)
	for i := uint64(0); i < 1000; i++ {
		f.Record(0, flightRec(0, i*100, 50))
	}
	recs := f.Sample(10)
	if len(recs) != 100 {
		t.Fatalf("1-in-10 export over 1000 records: got %d, want 100", len(recs))
	}
	for i, r := range recs {
		if want := uint64(i * 10); r.ID != want || r.Issue != want*100 {
			t.Fatalf("recs[%d] = id %d issue %d, want id %d issue %d",
				i, r.ID, r.Issue, want, want*100)
		}
	}
}

// TestTracerRingWrap: the export holds only what the ring kept, oldest
// first, while the stage totals count every record filed.
func TestTracerRingWrap(t *testing.T) {
	f := NewFlight(1, 4, 8)
	for i := uint64(0); i < 10; i++ {
		f.Record(0, flightRec(0, i*100, 100))
	}
	recs := f.Sample(1)
	if len(recs) != 4 {
		t.Fatalf("ring exports %d records, want 4", len(recs))
	}
	for i, want := range []uint64{6, 7, 8, 9} {
		if recs[i].ID != want {
			t.Fatalf("recs[%d].ID = %d, want %d", i, recs[i].ID, want)
		}
	}
	st := f.Stages()
	if st.Spans[StageReq] != 10 || st.Cycles[StageReq] != 1000 {
		t.Fatalf("req totals = %d spans / %d cycles, want 10 / 1000",
			st.Spans[StageReq], st.Cycles[StageReq])
	}
}
