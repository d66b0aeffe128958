package sim

import "fmt"

// ReqClass classifies a memory request by its architectural origin — the
// four CXL.mem data paths of the paper's §2.2, split by prefetch engine the
// way the PMU counters split them (Table 5).
type ReqClass uint8

// Request classes.
const (
	ClassDRd     ReqClass = iota // demand data read
	ClassRFO                     // demand read-for-ownership (store side)
	ClassL1PF                    // L1D hardware prefetch (-> DRd)
	ClassL2PFDRd                 // L2 hardware prefetch data read
	ClassL2PFRFO                 // L2 hardware prefetch RFO
	ClassSWPF                    // software prefetch (merges into DRd after L1D)
	ClassWB                      // writeback (DWr path below the SB)
	classCount
)

// String returns the paper's name for the class.
func (c ReqClass) String() string {
	switch c {
	case ClassDRd:
		return "DRd"
	case ClassRFO:
		return "RFO"
	case ClassL1PF:
		return "L1PF"
	case ClassL2PFDRd:
		return "L2PF.DRd"
	case ClassL2PFRFO:
		return "L2PF.RFO"
	case ClassSWPF:
		return "SWPF"
	case ClassWB:
		return "WB"
	}
	return fmt.Sprintf("ReqClass(%d)", uint8(c))
}

// IsPrefetch reports whether the class is a hardware or software prefetch.
func (c ReqClass) IsPrefetch() bool {
	return c == ClassL1PF || c == ClassL2PFDRd || c == ClassL2PFRFO || c == ClassSWPF
}

// IsRFOLike reports whether the request seeks ownership (write intent).
func (c ReqClass) IsRFOLike() bool { return c == ClassRFO || c == ClassL2PFRFO }

// ServeLoc is where a request's data was ultimately served from.
type ServeLoc uint8

// Serve locations, mirroring the paper's six LLC-miss destinations plus the
// on-core levels (Figure 3-c, Table 7).
const (
	SrvL1 ServeLoc = iota
	SrvLFB
	SrvL2
	SrvLLC       // home LLC slice in the requester's SNC cluster
	SrvPeerCache // another core's private cache, same cluster (snoop forward)
	SrvSNCLLC    // LLC slice / peer cache in the distant SNC cluster
	SrvRemoteLLC // other socket's LLC (cross-socket snoop)
	SrvLocalDRAM
	SrvRemoteDRAM
	SrvCXL
	srvCount
)

// String returns a short location name matching Table 7's rows.
func (s ServeLoc) String() string {
	switch s {
	case SrvL1:
		return "L1D"
	case SrvLFB:
		return "LFB"
	case SrvL2:
		return "L2"
	case SrvLLC:
		return "local LLC"
	case SrvPeerCache:
		return "peer cache"
	case SrvSNCLLC:
		return "snc LLC"
	case SrvRemoteLLC:
		return "remote LLC"
	case SrvLocalDRAM:
		return "local DRAM"
	case SrvRemoteDRAM:
		return "remote DRAM"
	case SrvCXL:
		return "CXL memory"
	}
	return fmt.Sprintf("ServeLoc(%d)", uint8(s))
}

// BeyondLLC reports whether the location is past the requester's local LLC
// lookup (an LLC miss in the paper's accounting).
func (s ServeLoc) BeyondLLC() bool { return s >= SrvSNCLLC }

// reqTimes records when a request crossed each hierarchy boundary; the
// core's stall attribution and the occupancy trackers are driven off these.
type reqTimes struct {
	issue    Cycles // core issued the access
	l2Start  Cycles // discovered the L1D miss, L2 lookup begins
	torEnter Cycles // arrived at the CHA / TOR inserted
	memEnter Cycles // entered the memory device path (IMC or M2PCIe)
	done     Cycles // data returned / request completed
}

// devTimes carries the crossings of one device read back to the request
// that issued it, in the read's own result: it never enters an lfbEntry,
// so a load merging into the miss, a prefetch, or a victim writeback
// cannot take the crossings over.  Only the flight recorder reads them.
type devTimes struct {
	m2pExit    Cycles // CXL: the link transfer to the device starts
	devArrive  Cycles // CXL: the request reaches the device
	mediaStart Cycles // CXL: the media access begins
	data       Cycles // data ready at the IMC or the CXL device
	replay     Cycles // LRSM replay cycles of the read's own transfers
}
