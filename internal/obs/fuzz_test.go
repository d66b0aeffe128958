package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzReadBundle feeds arbitrary documents to the bundle reader: it must
// return a bundle of the supported schema or an error, never panic, and a
// bundle it accepts must re-encode to a document it reads back unchanged.
func FuzzReadBundle(f *testing.F) {
	fl := NewFlight(2, 16, 4)
	fl.Enable()
	fl.SetEpoch(3)
	for i := 0; i < 2*flightWarmup; i++ {
		fl.Record(i%2, flightRec(i%2, uint64(i)*10, 200))
	}
	out := flightRec(0, 1<<16, 50000)
	out.Replay = 616
	fl.Record(0, out)
	var buf bytes.Buffer
	if err := DumpBundle(&buf, BundleOpts{
		Trigger:   "fuzz",
		Flight:    fl,
		Status:    func() any { return map[string]int{"epoch": 3} },
		FaultPlan: "seed=1,crc=1e-3",
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"schema": 1}`))
	f.Add([]byte(`{"schema": 2}`))
	f.Add([]byte(`{"schema": 99}`))
	f.Add([]byte(`{"schema": 2, "flight": {"tail": [{}], "classes": null}}`))
	f.Add([]byte(`{"schema": 2, "flight": {"tail": [{"latency": 90, "mem_enter": 95, "m2p_exit": 20,
		"dev_arrive": 4294967295, "replay": 7, "path": 2, "seq": 3}],
		"classes": [{"stages": [{"stage": "cxl_media", "spans": 1, "cycles": 9}]}]}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		b, err := ReadBundle(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if b.Schema != BundleSchema {
			t.Fatalf("accepted schema %d", b.Schema)
		}
		enc, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("accepted bundle does not re-encode: %v", err)
		}
		again, err := ReadBundle(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded bundle does not read back: %v\n%s", err, enc)
		}
		if enc2, err := json.Marshal(again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the bundle (%v):\n%s\n%s", err, enc, enc2)
		}
	})
}
