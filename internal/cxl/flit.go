package cxl

// Flit geometry of the 68-byte mode: a 4-byte header, four 15-byte message
// slots and a 2-byte CRC.  A data payload occupies an all-data flit of its
// own (4-byte header + 64-byte payload), which is how the real protocol
// amortizes headers.
const (
	FlitSize  = 68
	slotCount = 4 // message slots per protocol flit
)

// DefaultRetryBufEntries is the depth, in flits, of the link-layer retry
// buffer that holds transmitted flits until the far side acknowledges them.
const DefaultRetryBufEntries = 32

// BytesPerMessage reports the effective wire bytes of a single message of
// the given opcode when flits are fully packed: a quarter of a protocol
// flit for the header, plus a full all-data flit for payloads.  It is the
// quantity the simulator charges to the FlexBus byte server.
func BytesPerMessage(op Opcode) float64 {
	b := float64(FlitSize) / slotCount
	if op.HasData() {
		b += FlitSize
	}
	return b
}
