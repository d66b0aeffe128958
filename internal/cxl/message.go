// Package cxl implements the CXL.mem protocol facts the simulator's
// FlexBus timing model reads: the M2S request (Req) and request-with-data
// (RwD) opcodes, the S2M no-data (NDR) and data (DRS) responses, the wire
// bytes each costs once packed into 68-byte flits, the deterministic
// link-fault schedule, and the device-load (QoS telemetry) classification
// the CXL 3.x specification derives from the device queue state — the
// paper's §2.1 protocol description and the §3.5 telemetry it leaves as
// future work.
package cxl

import "fmt"

// Opcode identifies a CXL.mem message type.
type Opcode uint8

// M2S request opcodes (master to subordinate).
const (
	// MemInv invalidates device-tracked state (BI flows); no data.
	MemInv Opcode = iota
	// MemRd is the Request-without-data read (the paper's Req/M2S read).
	MemRd
	// MemRdData reads with a forward-to-requester hint.
	MemRdData
	// MemSpecRd is a speculative (prefetch-initiated) read.
	MemSpecRd
	// MemWr is the Request-with-Data full-line write (RwD).
	MemWr
	// MemWrPtl is a partial-line write (RwD with byte enables).
	MemWrPtl

	// S2M opcodes (subordinate to master).

	// Cmp is the NDR completion for writes and invalidations.
	Cmp
	// CmpS is the NDR completion granting Shared state.
	CmpS
	// CmpE is the NDR completion granting Exclusive state.
	CmpE
	// MemData is the DRS data response for reads.
	MemData
)

// String returns the specification mnemonic.
func (o Opcode) String() string {
	switch o {
	case MemInv:
		return "MemInv"
	case MemRd:
		return "MemRd"
	case MemRdData:
		return "MemRdData"
	case MemSpecRd:
		return "MemSpecRd"
	case MemWr:
		return "MemWr"
	case MemWrPtl:
		return "MemWrPtl"
	case Cmp:
		return "Cmp"
	case CmpS:
		return "Cmp-S"
	case CmpE:
		return "Cmp-E"
	case MemData:
		return "MemData"
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// HasData reports whether the message carries a 64-byte payload.
func (o Opcode) HasData() bool {
	return o == MemWr || o == MemWrPtl || o == MemData
}
