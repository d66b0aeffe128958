// Package pmu models the performance-monitoring-unit layer PathFinder is
// built on.  It provides a catalog of named hardware events (mirroring the
// counter tables of the PathFinder paper), fixed-size counter banks that
// architectural modules increment during simulation, and occupancy/busy
// integrators for the "*_occupancy" and "*_cycles_ne" counter families.
// Counters are read in counting mode, at epoch snapshots, as PathFinder
// reads them.
//
// The catalog names, scopes and semantics follow Tables 1-5 of
// "Understanding and Profiling CXL.mem Using PathFinder" (SIGCOMM 2025) so
// that the profiler layers above (internal/perf, internal/core) are
// programmed against the same counter vocabulary as the paper's hardware.
package pmu

import "fmt"

// Event is a dense index into a Catalog.  The zero value is the first
// registered event; use Lookup to resolve an event by name.
type Event int32

// Unit identifies the PMU block an event belongs to.
type Unit uint8

// PMU blocks, following the paper's four-way split (§3.1).
const (
	UnitCore   Unit = iota // core PMU: SB, L1D, LFB, L2, latency events
	UnitCHA                // caching-and-home-agent / LLC PMU
	UnitIMC                // integrated memory controller (uncore)
	UnitM2PCIe             // mesh-to-PCIe / FlexBus (uncore)
	UnitCXL                // CXL Type-3 device counters
	unitCount
)

// String returns the conventional lower-case block name ("core", "cha", ...).
func (u Unit) String() string {
	switch u {
	case UnitCore:
		return "core"
	case UnitCHA:
		return "cha"
	case UnitIMC:
		return "imc"
	case UnitM2PCIe:
		return "m2pcie"
	case UnitCXL:
		return "cxl"
	}
	return fmt.Sprintf("unit(%d)", uint8(u))
}

// Scope describes the granularity at which an event is collected.
type Scope uint8

// Scopes used by the paper's counter tables.
const (
	PerCore Scope = iota
	PerSocket
	PerChannel
	PerDevice
)

// String returns the scope name as it appears in the paper's tables.
func (s Scope) String() string {
	switch s {
	case PerCore:
		return "per-core"
	case PerSocket:
		return "per-socket"
	case PerChannel:
		return "per-channel"
	case PerDevice:
		return "per-device"
	}
	return fmt.Sprintf("scope(%d)", uint8(s))
}

// Kind describes what an event measures; the paper's §3.1 taxonomy.
type Kind uint8

// Event kinds.
const (
	KindEvent     Kind = iota // occurrence counts (hits, misses, inserts)
	KindCycles                // stall / not-empty / full cycle counts
	KindOccupancy             // occupancy integrated over cycles
	KindLatency               // accumulated request latency in cycles
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindEvent:
		return "event"
	case KindCycles:
		return "cycles"
	case KindOccupancy:
		return "occupancy"
	case KindLatency:
		return "latency"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Info is the immutable metadata of a cataloged event.
type Info struct {
	Name  string
	Unit  Unit
	Scope Scope
	Kind  Kind
	Desc  string
}
