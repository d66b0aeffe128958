package pmu

import "fmt"

// Bank is a fixed-size array of counters allocated against a catalog.  Each
// simulated architectural module (core, CHA, IMC channel, M2PCIe port, CXL
// device) owns one bank.  Banks are not safe for concurrent use: the
// simulator is single-threaded by design (discrete-event), matching how a
// hardware PMU belongs to exactly one block.
type Bank struct {
	cat  *Catalog
	name string
	vals []uint64
}

// NewBank allocates a zeroed bank over cat.  The name identifies the owning
// module instance (e.g. "core7", "cha0", "imc0ch1", "cxl0") and is the
// address prefix used by the perf layer.
func NewBank(cat *Catalog, name string) *Bank {
	return &Bank{cat: cat, name: name, vals: make([]uint64, cat.Len())}
}

// Name returns the module-instance name of the bank.
func (b *Bank) Name() string { return b.name }

// Catalog returns the catalog the bank is allocated against.
func (b *Bank) Catalog() *Catalog { return b.cat }

// Add increments event e by n.  The simulator calls it about 25 times per
// simulated request, so it must stay inlinable (make inline-check guards
// that).
func (b *Bank) Add(e Event, n uint64) { b.vals[e] += n }

// Inc increments event e by one.
func (b *Bank) Inc(e Event) { b.Add(e, 1) }

// Read returns the current value of event e.
func (b *Bank) Read(e Event) uint64 { return b.vals[e] }

// ReadName returns the current value of the event with the given catalog
// name.  It returns an error for unknown names rather than panicking so the
// perf layer can surface bad event specs to the user.
func (b *Bank) ReadName(name string) (uint64, error) {
	e, ok := b.cat.Lookup(name)
	if !ok {
		return 0, fmt.Errorf("pmu: bank %s: unknown event %q", b.name, name)
	}
	return b.vals[e], nil
}

// Reset zeroes every counter in the bank.
func (b *Bank) Reset() {
	for i := range b.vals {
		b.vals[i] = 0
	}
}

// Values returns a copy of all counter values, indexed by Event.
func (b *Bank) Values() []uint64 {
	out := make([]uint64, len(b.vals))
	copy(out, b.vals)
	return out
}

// CopyInto copies all counter values into dst, growing it if needed, and
// returns dst.  It exists so the snapshot hot path can reuse buffers.
func (b *Bank) CopyInto(dst []uint64) []uint64 {
	if cap(dst) < len(b.vals) {
		dst = make([]uint64, len(b.vals))
	}
	dst = dst[:len(b.vals)]
	copy(dst, b.vals)
	return dst
}

// CopyTo copies all counter values into dst, which must hold exactly
// Catalog().Len() values.  Unlike CopyInto it never reallocates, so the
// snapshot arena can hand out fixed per-bank windows.
func (b *Bank) CopyTo(dst []uint64) {
	if len(dst) != len(b.vals) {
		panic(fmt.Sprintf("pmu: bank %s: CopyTo dst holds %d values, want %d",
			b.name, len(dst), len(b.vals)))
	}
	copy(dst, b.vals)
}
