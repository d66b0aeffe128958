package core

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"pathfinder/internal/pmu"
	"pathfinder/internal/workload"
)

func TestDigestRoundTrip(t *testing.T) {
	m, local, cxl := testRig(t)
	cap := NewCapturer(m)
	m.Attach(0, workload.NewStream(region(local), 2, 0.2, 1))
	m.Attach(1, workload.NewStream(region(cxl), 2, 0.2, 2))
	m.Run(1_000_000)
	s := cap.Capture()

	d := EncodeDigest(s)
	got, err := DecodeDigest(d, pmu.Default.Len())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != s.Seq || got.Start != s.Start || got.End != s.End {
		t.Fatalf("header mismatch: %+v vs %+v", got, s)
	}
	if got.NumCores() != s.NumCores() || got.NumCHA() != s.NumCHA() ||
		got.NumCXL() != s.NumCXL() {
		t.Fatal("bank census mismatch")
	}
	for _, name := range s.idx.names {
		if _, ok := got.idx.byName[name]; !ok {
			t.Fatalf("bank %s missing after decode", name)
		}
		want, have := s.bankDelta(name), got.bankDelta(name)
		for e := range want {
			if want[e] != have[e] {
				t.Fatalf("%s[%s] = %d, want %d", name, pmu.Default.Name(pmu.Event(e)), have[e], want[e])
			}
		}
	}
	// The analyses must produce identical results on the decoded snapshot.
	pm1 := BuildPathMap(s, []int{1})
	pm2 := BuildPathMap(got, []int{1})
	if pm1.Load != pm2.Load {
		t.Fatal("path maps differ after digest round trip")
	}
}

func TestDigestCompression(t *testing.T) {
	m, _, cxl := testRig(t)
	cap := NewCapturer(m)
	m.Attach(0, workload.NewStream(region(cxl), 2, 0, 1))
	m.Run(500_000)
	s := cap.Capture()

	raw := 8 * len(s.arena)
	d := EncodeDigest(s)
	if len(d) >= raw/4 {
		t.Fatalf("digest %d bytes vs raw %d: expected >4x compression from sparsity", len(d), raw)
	}
}

func TestDigestErrors(t *testing.T) {
	m, local, _ := testRig(t)
	cap := NewCapturer(m)
	m.Attach(0, workload.NewStream(region(local), 2, 0, 1))
	m.Run(200_000)
	d := EncodeDigest(cap.Capture())

	if _, err := DecodeDigest(d[:3], pmu.Default.Len()); err == nil {
		t.Fatal("truncated magic accepted")
	}
	bad := append(Digest{}, d...)
	bad[0] = 'X'
	if _, err := DecodeDigest(bad, pmu.Default.Len()); err == nil {
		t.Fatal("bad magic accepted")
	}
	ver := append(Digest{}, d...)
	ver[4] = 99
	if _, err := DecodeDigest(ver, pmu.Default.Len()); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := DecodeDigest(d[:len(d)/2], pmu.Default.Len()); err == nil {
		t.Fatal("truncated body accepted")
	}
	// An index overflowing a smaller catalog is rejected.
	if _, err := DecodeDigest(d, 3); err == nil {
		t.Fatal("oversized event index accepted")
	}

	// Hand-built digests that panicked the decoder, wrapped its index
	// arithmetic or would size its tables by a corrupt number.
	if _, err := DecodeDigest(digestOf(digestBank{name: "core0", pairs: [][2]uint64{{1, 5}}}), pmu.Default.Len()); err != nil {
		t.Fatalf("well-formed hand-built digest rejected: %v", err)
	}
	for _, c := range []struct {
		what string
		d    Digest
	}{
		{"first gap 0", digestOf(digestBank{name: "core0", pairs: [][2]uint64{{0, 5}}})},
		{"later gap 0", digestOf(digestBank{name: "core0", pairs: [][2]uint64{{1, 5}, {0, 6}}})},
		{"name length 2^64-1", digestOf(digestBank{nameLen: math.MaxUint64, name: "core0"})},
		{"duplicate bank cxl0", digestOf(digestBank{name: "cxl0"}, digestBank{name: "cxl0"})},
		{"unsorted banks", digestOf(digestBank{name: "cxl0"}, digestBank{name: "core0"})},
		{"gap 2^63", digestOf(digestBank{name: "core0", pairs: [][2]uint64{{1 << 63, 1}}})},
		{"gap 2^64-1", digestOf(digestBank{name: "core0", pairs: [][2]uint64{{math.MaxUint64, 1}}})},
		{"instance beyond bank count", digestOf(digestBank{name: "core5000000"})},
	} {
		if _, err := DecodeDigest(c.d, pmu.Default.Len()); err == nil {
			t.Errorf("%s: accepted", c.what)
		} else {
			t.Logf("%s: %v", c.what, err)
		}
	}
}

// digestBank is one bank of a hand-built digest: nameLen overrides the
// encoded name length when non-zero, and pairs are raw (gap, value) pairs.
type digestBank struct {
	nameLen uint64
	name    string
	pairs   [][2]uint64
}

// digestOf encodes banks in the digest format without EncodeDigest's
// invariants, so tests can build the corrupt digests a decoder must reject.
func digestOf(banks ...digestBank) Digest {
	d := append(Digest(digestMagic), digestVersion, 0, 0, 0) // seq, start, end
	d = binary.AppendUvarint(d, uint64(len(banks)))
	for _, b := range banks {
		n := b.nameLen
		if n == 0 {
			n = uint64(len(b.name))
		}
		d = binary.AppendUvarint(d, n)
		d = append(d, b.name...)
		d = binary.AppendUvarint(d, uint64(len(b.pairs)))
		for _, p := range b.pairs {
			d = binary.AppendUvarint(d, p[0])
			d = binary.AppendUvarint(d, p[1])
		}
	}
	return d
}

// Property: synthetic sparse snapshots round-trip exactly.
func TestDigestProperty(t *testing.T) {
	const nEvents = 64
	f := func(vals []uint64, seq uint16) bool {
		if len(vals) > nEvents {
			vals = vals[:nEvents]
		}
		idx := NewBankIndex([]string{"core0", "cxl0"}, nEvents)
		s := &Snapshot{Seq: int(seq), Start: 10, End: 20,
			idx: idx, arena: make([]uint64, idx.ArenaLen())}
		copy(s.bankDelta("core0"), vals)
		copy(s.bankDelta("cxl0"), vals)
		got, err := DecodeDigest(EncodeDigest(s), nEvents)
		if err != nil {
			return false
		}
		for _, name := range []string{"core0", "cxl0"} {
			want, have := s.bankDelta(name), got.bankDelta(name)
			for i := range want {
				if want[i] != have[i] {
					return false
				}
			}
		}
		return got.Seq == s.Seq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
