package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pathfinder/internal/sim"
)

// Digest is the compact on-disk/in-memory form of a Snapshot — the
// "memory-efficient data structure" PFMaterializer stores per scheduling
// epoch (§4.2).  Counter vectors are sparse in practice (most events of
// most banks are zero in any one epoch), so the encoding stores only
// non-zero deltas as (varint event index gap, varint value) pairs per
// bank, preceded by a small header.
//
// Format (all integers unsigned LEB128 varints unless noted):
//
//	magic   "PFSD" (4 bytes)
//	version byte (1)
//	seq, start, end
//	bankCount
//	per bank: nameLen, name bytes, pairCount, then pairCount x
//	          (eventIndexDelta, value) with eventIndexDelta relative to
//	          the previous non-zero index + 1
type Digest []byte

const digestMagic = "PFSD"
const digestVersion = 1

// EncodeDigest serializes a snapshot.
func EncodeDigest(s *Snapshot) Digest {
	return AppendDigest(nil, s)
}

// AppendDigest serializes a snapshot onto buf and returns the extended
// buffer — the allocation-free form for epoch loops that reuse one buffer.
func AppendDigest(buf []byte, s *Snapshot) Digest {
	buf = append(buf, digestMagic...)
	buf = append(buf, digestVersion)
	buf = binary.AppendUvarint(buf, uint64(s.Seq))
	buf = binary.AppendUvarint(buf, s.Start)
	buf = binary.AppendUvarint(buf, s.End)

	idx := s.idx
	ec := idx.eventCount
	buf = binary.AppendUvarint(buf, uint64(len(idx.sorted)))
	for _, slot := range idx.sorted {
		name := idx.names[slot]
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		vals := s.arena[slot*ec : (slot+1)*ec]
		nz := 0
		for _, v := range vals {
			if v != 0 {
				nz++
			}
		}
		buf = binary.AppendUvarint(buf, uint64(nz))
		prev := -1
		for i, v := range vals {
			if v == 0 {
				continue
			}
			buf = binary.AppendUvarint(buf, uint64(i-prev))
			buf = binary.AppendUvarint(buf, v)
			prev = i
		}
	}
	return buf
}

// digestReader walks a digest buffer.
type digestReader struct {
	b   []byte
	off int
}

var errDigestTruncated = errors.New("core: truncated digest")

func (r *digestReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, errDigestTruncated
	}
	r.off += n
	return v, nil
}

func (r *digestReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.b)-r.off) {
		return nil, errDigestTruncated
	}
	out := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return out, nil
}

// DecodeDigest reconstructs a snapshot.  eventCount is the catalog size
// the digest was produced against (pmu.Default.Len()); counter vectors are
// materialized at that length, under a BankIndex rebuilt from the encoded
// bank names.  Malformed input yields an error, never a panic.
func DecodeDigest(d Digest, eventCount int) (*Snapshot, error) {
	r := &digestReader{b: d}
	magic, err := r.bytes(4)
	if err != nil {
		return nil, err
	}
	if string(magic) != digestMagic {
		return nil, fmt.Errorf("core: bad digest magic %q", magic)
	}
	ver, err := r.bytes(1)
	if err != nil {
		return nil, err
	}
	if ver[0] != digestVersion {
		return nil, fmt.Errorf("core: unsupported digest version %d", ver[0])
	}
	seq, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	start, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	end, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	nBanks, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Each encoded bank takes at least two bytes, so a count beyond half
	// the remaining buffer is corrupt — reject before sizing the arena by it.
	if nBanks > uint64(len(d)-r.off)/2 {
		return nil, errDigestTruncated
	}
	names := make([]string, 0, nBanks)
	arena := make([]uint64, int(nBanks)*eventCount)
	for b := uint64(0); b < nBanks; b++ {
		nameLen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		nameBytes, err := r.bytes(nameLen)
		if err != nil {
			return nil, err
		}
		name := string(nameBytes)
		// EncodeDigest writes banks sorted by name, which also rules out
		// the duplicate names a BankIndex cannot hold.
		if b > 0 && name <= names[b-1] {
			return nil, fmt.Errorf("core: digest bank %q follows %q: names must be unique and sorted", name, names[b-1])
		}
		// A machine numbers each module kind densely from 0, so no instance
		// reaches the bank count; a larger one would size BankIndex's
		// per-kind tables by a corrupt number.
		if _, inst, ok := splitBankName(name); ok && inst >= int(nBanks) {
			return nil, fmt.Errorf("core: digest bank %q numbers an instance beyond its %d banks", name, nBanks)
		}
		pairs, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		vals := arena[int(b)*eventCount : (int(b)+1)*eventCount]
		idx := -1
		for p := uint64(0); p < pairs; p++ {
			gap, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			v, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			// The encoder writes gaps of at least 1; bounding the gap by the
			// catalog also keeps the sum below from wrapping.
			if gap == 0 {
				return nil, fmt.Errorf("core: digest bank %q has a zero event index gap: indexes must increase", name)
			}
			if gap >= uint64(eventCount-idx) {
				return nil, fmt.Errorf("core: digest bank %q event index gap %d after index %d passes the catalog's %d events", name, gap, idx, eventCount)
			}
			idx += int(gap)
			vals[idx] = v
		}
		names = append(names, name)
	}
	return &Snapshot{
		Seq:   int(seq),
		Start: sim.Cycles(start),
		End:   sim.Cycles(end),
		idx:   NewBankIndex(names, eventCount),
		arena: arena,
	}, nil
}
