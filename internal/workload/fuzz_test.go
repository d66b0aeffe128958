package workload

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to the trace decoder: it must return
// ops or an error, never panic, and every trace it accepts must survive a
// WriteTrace/ReadTrace round trip unchanged.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, NewStream(Region{Size: 1 << 20}, 3, 0.25, 9), 32); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(traceMagic))
	f.Add([]byte(traceMagic + "\x01\x02\x07\x01\x00\x02\x7f\x05"))
	f.Add([]byte(traceMagic + "\x01\xff\xff\xff\xff\x03")) // claims 2^30-1 ops
	f.Fuzz(func(t *testing.T, raw []byte) {
		ops, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteTrace(&out, NewReplay(ops, false), uint64(len(ops))); err != nil {
			t.Fatalf("WriteTrace of %d decoded ops: %v", len(ops), err)
		}
		again, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if !slices.Equal(ops, again) {
			t.Fatalf("round trip changed the ops: %v -> %v", ops, again)
		}
	})
}
