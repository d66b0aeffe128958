package sim

import (
	"fmt"

	"pathfinder/internal/cxl"
)

// Config describes a simulated machine.  The two stock configurations,
// SPR and EMR, are calibrated against the paper's testbeds (§5.1) and its
// Intel-MLC measurements (§2.3): local DDR5 ≈ 103 ns / 131 GB/s,
// cross-socket ≈ 164 ns / 94 GB/s, CXL ≈ 355 ns / 17.6 GB/s.
type Config struct {
	Name    string
	Cores   int
	Sockets int     // modeled sockets (workloads run on socket 0)
	GHz     float64 // core clock; cycles are counted at this clock

	// Cache geometry.  Sizes in bytes, line size mem.LineSize.
	L1DSize, L1DWays int
	L2Size, L2Ways   int
	LLCSize, LLCWays int
	LLCSlices        int
	SNCClusters      int // sub-NUMA clusters per socket (slices split evenly)

	// Core queue structures.
	LFBEntries int // line fill buffer (bounds demand-miss MLP)
	SBEntries  int // store buffer
	SQEntries  int // super queue (L2 -> uncore)

	// Load-to-use latencies in cycles (idle, cumulative segments).
	L1Lat     Cycles // L1D hit
	L2Lat     Cycles // additional to reach L2 data
	LLCLat    Cycles // additional to reach the home LLC slice
	SNCExtra  Cycles // additional when the home slice is in the distant cluster
	SnoopLat  Cycles // additional to pull a line from another core's private cache
	RemoteLLC Cycles // additional to reach the other socket's LLC
	MeshLat   Cycles // LLC slice -> memory-controller mesh traversal
	L1TagLat  Cycles // L1D tag lookup on a miss (PFAnalyzer's W_tag)
	L2TagLat  Cycles // L2 tag lookup on a miss
	LLCTagLat Cycles // LLC tag/directory lookup on a miss

	// Local DDR (per socket).
	DRAMChannels  int
	DRAMLat       Cycles  // CAS-to-data media latency
	DRAMChanGBs   float64 // per-channel bandwidth
	RPQEntries    int
	WPQEntries    int
	RemoteDRAMLat Cycles // additional cycles for the cross-socket hop
	RemoteDRAMGBs float64

	// CXL path.
	CXLDevices     int
	M2PLat         Cycles  // mesh -> M2PCIe ingress processing
	FlexBusLat     Cycles  // link one-way flit latency
	FlexBusGBs     float64 // link bandwidth (per direction)
	CXLCtrlLat     Cycles  // device controller command handling
	CXLMediaLat    Cycles  // device media access
	CXLMediaGBs    float64 // device media bandwidth
	PackBufEntries int     // ingress packing buffer entries (req and data each)
	CXLRPQEntries  int
	CXLWPQEntries  int

	// Link reliability.  LinkRetryBufEntries bounds the flits a direction
	// may have in flight awaiting ack (the LRSM retry buffer); Faults, when
	// non-nil, injects the configured deterministic fault schedule into
	// every CXL port.  A nil plan is a healthy link with zero overhead.
	LinkRetryBufEntries int
	Faults              *cxl.FaultPlan

	// Hardware prefetchers.
	L1PFDegree    int // lines issued per training event (0 disables)
	L1PFDistance  int // max lines the L1 stream head runs ahead
	L2PFDegree    int
	L2PFDistance  int
	PFTrainHits   int // sequential-stride observations before streaming
	PFMaxInFlight int // outstanding prefetches per core

	// SB drain bandwidth: minimum cycles between store retirements when
	// draining to an already-owned line.
	SBDrainCycles Cycles
}

// nsToCycles converts nanoseconds to cycles at the configured clock.
func (c *Config) nsToCycles(ns float64) Cycles {
	return Cycles(ns * c.GHz)
}

// serviceCycles returns the per-line service time of a resource with the
// given bandwidth in GB/s: the (fractional) cycles to transfer one 64-byte
// line.
func (c *Config) serviceCycles(gbs float64) float64 {
	if gbs <= 0 {
		return 0
	}
	return 64.0 / gbs * c.GHz // GB/s == B/ns
}

// SPR returns the Sapphire Rapids testbed configuration: dual-socket Xeon
// Gold 6438Y+ (32 cores at 2.0 GHz, 48 KB L1D, 2 MB L2, 60 MB LLC, SNC on)
// with an Agilex-based 16 GB DDR4 CXL Type-3 device.
func SPR() Config {
	return Config{
		Name:    "spr",
		Cores:   32,
		Sockets: 2,
		GHz:     2.0,

		L1DSize: 48 << 10, L1DWays: 12,
		L2Size: 2 << 20, L2Ways: 16,
		LLCSize: 60 << 20, LLCWays: 12,
		LLCSlices:   32,
		SNCClusters: 2,

		LFBEntries: 16,
		SBEntries:  56,
		SQEntries:  32,

		L1Lat:     5,
		L2Lat:     14,
		LLCLat:    33,
		SNCExtra:  14,
		SnoopLat:  28,
		RemoteLLC: 90,
		MeshLat:   18,
		L1TagLat:  4,
		L2TagLat:  10,
		LLCTagLat: 12,

		DRAMChannels:  8,
		DRAMLat:       126, // calibrated: idle local load-to-use ~103 ns
		DRAMChanGBs:   16.4,
		RPQEntries:    64,
		WPQEntries:    64,
		RemoteDRAMLat: 61, // calibrated: cross-socket ~164 ns
		RemoteDRAMGBs: 94.4,

		CXLDevices:     1,
		M2PLat:         24,
		FlexBusLat:     120, // one-way; two crossings per access
		FlexBusGBs:     32,
		CXLCtrlLat:     140,  // FPGA-based device controller is slow
		CXLMediaLat:    202,  // calibrated: CXL load-to-use ~355 ns
		CXLMediaGBs:    17.8, // media ceiling; delivered ~17.6 under queueing
		PackBufEntries: 48,
		CXLRPQEntries:  48,
		CXLWPQEntries:  48,

		LinkRetryBufEntries: 32,

		L1PFDegree:    2,
		L1PFDistance:  10,
		L2PFDegree:    4,
		L2PFDistance:  40,
		PFTrainHits:   2,
		PFMaxInFlight: 48,

		SBDrainCycles: 2,
	}
}

// EMR returns the Emerald Rapids testbed configuration: dual-socket Xeon
// Gold 6530 (32 cores, 160 MB LLC) with Micron CZ120 CXL DIMMs.  The larger
// LLC is the paper's explanation for EMR's smaller stall increases (§3.6);
// the CZ120 ASIC controller is faster than the SPR testbed's FPGA device.
func EMR() Config {
	c := SPR()
	c.Name = "emr"
	c.LLCSize = 160 << 20
	c.LLCWays = 16
	c.DRAMChanGBs = 17.5
	c.CXLCtrlLat = 60
	c.CXLMediaLat = 110
	c.CXLMediaGBs = 28
	return c
}

// ConfigByName returns the shipped machine configuration called name, or
// an error listing the names there are.
func ConfigByName(name string) (Config, error) {
	for _, mk := range []func() Config{SPR, EMR} {
		if c := mk(); c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("unknown machine %q (choose from: spr, emr)", name)
}

// maxCores caps a machine's cores: an LLC presence word is a 32-bit
// bitmap, one bit per core, enough for SPR's and EMR's 32 cores.
const maxCores = 32

// cacheLevel is one cache level's geometry: one instance's size in bytes
// and its associativity.
type cacheLevel struct {
	name       string
	size, ways int
}

// caches returns the geometry of every cache level a machine builds, an
// LLC slice standing for the LLC.
func (c *Config) caches() [3]cacheLevel {
	return [...]cacheLevel{
		{"L1D", c.L1DSize, c.L1DWays},
		{"L2", c.L2Size, c.L2Ways},
		{"LLC", c.LLCSize / c.LLCSlices, c.LLCWays},
	}
}

// tagReach returns the first address the tags of the machine's caches
// cannot all name, and the level that bounds it: the one with the fewest
// sets, since a tag word keeps the line number above the set index (2 TiB
// for SPR's 64-set L1D).  c must be valid.
func (c *Config) tagReach() (reach uint64, level string) {
	for _, g := range c.caches() {
		if r := tagReach(cacheSets(g.size, g.ways)); level == "" || r < reach {
			reach, level = r, g.name
		}
	}
	return reach, level
}

// Validate checks configuration invariants, returning a descriptive panic
// on first use rather than corrupting a run; it is called by New.
func (c *Config) validate() {
	switch {
	case c.Cores <= 0:
		panic("sim: config needs at least one core")
	case c.Cores > maxCores:
		// LLC presence is a 32-bit core bitmap: core 32's bit would be
		// zero, so its private copies would escape every snoop.
		panic(fmt.Sprintf("sim: Cores = %d exceeds the %d cores an LLC presence word tracks", c.Cores, maxCores))
	case c.LLCSlices <= 0 || c.LLCSlices%max(1, c.SNCClusters) != 0:
		panic("sim: LLC slices must divide evenly into SNC clusters")
	case c.LLCSlices > 1<<16, 2*c.DRAMChannels > 1<<16, c.CXLDevices > 1<<16:
		// A lane entry names the module it updates in 16 bits.
		panic("sim: LLC slices, memory channels and CXL devices must each number at most 65,536")
	case c.LFBEntries <= 0 || c.SBEntries <= 0:
		panic("sim: LFB and SB must have entries")
	case c.DRAMChannels <= 0:
		panic("sim: need at least one DRAM channel")
	case c.GHz <= 0:
		panic("sim: clock must be positive")
	}
	// Private caches are built at a core's first Attach, not by New;
	// check every level's geometry here so a bad config fails at New,
	// naming the field.
	for _, g := range c.caches() {
		if g.ways > maxWays {
			panic(fmt.Sprintf("sim: %sWays = %d exceeds %d, the ways one rank word orders", g.name, g.ways, maxWays))
		}
		checkCacheGeometry(g.size, g.ways)
	}
	if err := c.Faults.Validate(); err != nil {
		panic("sim: " + err.Error())
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
