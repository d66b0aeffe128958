package obs

import (
	"encoding/json"
	"io"
)

// chromeEvent is one Chrome trace_event "complete" event ("ph":"X") — the
// format Perfetto and chrome://tracing load directly.  Timestamps and
// durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int32          `json:"pid"`
	TID  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders records as Chrome trace_event JSON: one track
// per (core, record id), a "req" event over the whole request carrying
// its address, class, serve location and LRSM replay cycles, and one event
// per stage of its partition (FlightRec.Stages), cycles converted to
// microseconds at ghz.  locName names a serve-location ordinal; nil prints
// the ordinal.  The output loads in Perfetto (ui.perfetto.dev) as a
// per-request latency waterfall.
func WriteChromeTrace(w io.Writer, recs []TraceRec, ghz float64, locName func(uint8) string) error {
	if ghz <= 0 {
		ghz = 1
	}
	us := func(cycles uint64) float64 { return float64(cycles) / (ghz * 1e3) }
	doc := chromeDoc{DisplayTimeUnit: "ns", TraceEvents: make([]chromeEvent, 0, len(recs)*6)}
	var buf [MaxStages]Span
	for i := range recs {
		r := &recs[i]
		ev := chromeEvent{Cat: "cxl-path", Ph: "X", PID: int32(r.Core), TID: r.ID}
		var loc any = r.Loc
		if locName != nil {
			loc = locName(r.Loc)
		}
		req := ev
		req.Name, req.TS, req.Dur = StageReq.String(), us(r.Issue), us(r.Latency())
		req.Args = map[string]any{
			"addr":  r.Addr,
			"class": FlightClassName(r.Class),
			"loc":   loc,
		}
		if r.Replay > 0 {
			req.Args[StageLRSM.String()] = r.Replay
		}
		doc.TraceEvents = append(doc.TraceEvents, req)
		for _, sp := range r.Stages(&buf) {
			ev.Name = sp.Stage.String()
			ev.TS = us(r.Issue + uint64(sp.Start))
			ev.Dur = us(uint64(sp.End - sp.Start))
			doc.TraceEvents = append(doc.TraceEvents, ev)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}
