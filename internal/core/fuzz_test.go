package core

import (
	"bytes"
	"testing"

	"pathfinder/internal/pmu"
)

// FuzzDecodeDigest feeds arbitrary bytes to the digest decoder: it must
// return a snapshot or an error, never panic, and every digest it accepts
// must re-encode to a canonical form that decodes and re-encodes to itself.
func FuzzDecodeDigest(f *testing.F) {
	ec := pmu.Default.Len()
	idx := NewBankIndex([]string{"core0", "core1", "cha0", "cxl0"}, ec)
	s := &Snapshot{Seq: 3, Start: 100, End: 2100, idx: idx, arena: make([]uint64, idx.ArenaLen())}
	s.bankDelta("core0")[0] = 7
	s.bankDelta("core0")[ec-1] = 1 << 40
	s.bankDelta("cxl0")[5] = 300
	f.Add([]byte(EncodeDigest(s)))
	f.Add([]byte(digestOf(digestBank{name: "core0", pairs: [][2]uint64{{0, 5}}})))
	f.Add([]byte(digestOf(digestBank{nameLen: 1<<64 - 1, name: "core0"})))
	f.Add([]byte(digestOf(digestBank{name: "cxl0"}, digestBank{name: "cxl0"})))
	f.Add([]byte(digestOf(digestBank{name: "core0", pairs: [][2]uint64{{1 << 63, 1}}})))
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := DecodeDigest(raw, ec)
		if err != nil {
			return
		}
		canon := EncodeDigest(got)
		again, err := DecodeDigest(canon, ec)
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v", err)
		}
		if d := EncodeDigest(again); !bytes.Equal(d, canon) {
			t.Fatalf("re-encoding is not a fixpoint:\n%x\n%x", canon, d)
		}
	})
}
