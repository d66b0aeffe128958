package sim

import "pathfinder/internal/mem"

// streamEntry is one tracked access stream of a stride prefetcher.
type streamEntry struct {
	page     uint64 // 4 KiB region the stream lives in
	lastLine int64
	head     int64 // next line the prefetcher will fetch
	stride   int64 // in lines
	conf     int
	valid    bool
	lru      uint64
}

// prefetcher is a multi-stream stride detector modeling the L1D "streamer"
// and the L2 stream prefetcher.  It trains on demand accesses; once a
// stream's stride has repeated trainHits times it issues up to degree
// lines per training event from a persistent stream head, running up to
// distance lines ahead of the demand stream — the distance is what lets a
// hardware prefetcher hide long (CXL) latencies.
type prefetcher struct {
	streams   [8]streamEntry
	degree    int
	distance  int
	trainHits int
	clock     uint64
}

func newPrefetcher(degree, distance, trainHits int) *prefetcher {
	if distance < degree {
		distance = degree
	}
	return &prefetcher{degree: degree, distance: distance, trainHits: trainHits}
}

// train observes a demand access to line address la and appends prefetch
// candidate line addresses to out, returning the extended slice.
// Candidates stay within the stream's 4 KiB page, mirroring the
// page-boundary restriction of hardware prefetchers.
func (p *prefetcher) train(la uint64, out []uint64) []uint64 {
	if p.degree <= 0 {
		return out
	}
	p.clock++
	page := la >> 12
	line := int64(la >> mem.LineShift)

	// Find the stream for this page, or a victim.
	var e *streamEntry
	victim := &p.streams[0]
	for i := range p.streams {
		s := &p.streams[i]
		if s.valid && s.page == page {
			e = s
			break
		}
		if !s.valid || s.lru < victim.lru {
			victim = s
		}
	}
	if e == nil {
		*victim = streamEntry{page: page, lastLine: line, valid: true, lru: p.clock}
		return out
	}
	e.lru = p.clock

	stride := line - e.lastLine
	if stride == 0 {
		return out // same line (word-granular reuse): nothing to learn
	}
	if stride == e.stride {
		e.conf++
	} else {
		e.stride = stride
		e.conf = 1
		e.head = line + stride
	}
	e.lastLine = line
	if e.conf < p.trainHits {
		return out
	}

	// Advance the stream head: never behind the demand stream, never more
	// than distance lines ahead of it.
	ahead := func(h int64) int64 { // lines of lead, in stride direction
		if e.stride > 0 {
			return h - line
		}
		return line - h
	}
	if ahead(e.head) <= 0 {
		e.head = line + e.stride
	}
	limit := int64(p.distance) * abs64(e.stride)
	for i := 0; i < p.degree; i++ {
		if ahead(e.head) > limit || e.head < 0 {
			break
		}
		nla := uint64(e.head) << mem.LineShift
		if nla>>12 != page { // do not cross the page
			break
		}
		out = append(out, nla)
		e.head += e.stride
	}
	return out
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
