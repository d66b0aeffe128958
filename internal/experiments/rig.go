// Package experiments contains the reproduction harness: one function per
// table/figure of the paper's characterization (§3) and evaluation (§5)
// sections, shared by cmd/pfbench and the repository's benchmark suite.
// DESIGN.md's per-experiment index maps each function to its paper
// artifact.
package experiments

import (
	"fmt"

	"pathfinder/internal/core"
	"pathfinder/internal/mem"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

// Rig is an assembled machine plus its memory regions, ready to run
// workloads placed on either tier.
type Rig struct {
	Machine *sim.Machine
	Space   *mem.AddressSpace
	Consts  core.Consts

	LocalNode, RemoteNode, CXLNode mem.NodeID
}

// RigOptions shape a test machine.
type RigOptions struct {
	Config sim.Config // zero value means sim.SPR()
	Cores  int        // override core count (0 keeps config)
	Scale  int        // LLC/slice shrink factor for fast runs (0 = 1)
}

// NewRig builds a machine with one local, one remote, and one CXL node.
func NewRig(opt RigOptions) *Rig {
	cfg := opt.Config
	if cfg.Name == "" {
		cfg = sim.SPR()
	}
	if opt.Cores > 0 {
		cfg.Cores = opt.Cores
	}
	if opt.Scale > 1 {
		cfg.LLCSize /= opt.Scale
		cfg.LLCSlices /= opt.Scale
		if cfg.LLCSlices < cfg.SNCClusters {
			cfg.LLCSlices = cfg.SNCClusters
		}
	}
	as := mem.NewAddressSpace(12, []mem.Node{
		{ID: 0, Kind: mem.LocalDRAM, Capacity: 64 << 30},
		{ID: 1, Kind: mem.RemoteDRAM, Socket: 1, Capacity: 64 << 30},
		{ID: 2, Kind: mem.CXLDRAM, Device: 0, Capacity: 64 << 30},
	})
	m := sim.New(cfg, as)
	return &Rig{
		Machine:    m,
		Space:      as,
		Consts:     core.ConstsFor(cfg),
		LocalNode:  0,
		RemoteNode: 1,
		CXLNode:    2,
	}
}

// Alloc reserves a region on one node, panicking on failure (experiment
// rigs size their nodes generously; failure is a programming error).
func (r *Rig) Alloc(size uint64, node mem.NodeID) workload.Region {
	reg, err := r.Space.Alloc(size, mem.Fixed(node))
	if err != nil {
		panic(fmt.Sprintf("experiments: alloc %d on node %d: %v", size, node, err))
	}
	return workload.Region{Base: reg.Base, Size: reg.Size}
}

// AllocPolicy reserves a region with an arbitrary placement policy.
func (r *Rig) AllocPolicy(size uint64, pol mem.Policy) (workload.Region, mem.Region) {
	reg, err := r.Space.Alloc(size, pol)
	if err != nil {
		panic(fmt.Sprintf("experiments: alloc %d: %v", size, err))
	}
	return workload.Region{Base: reg.Base, Size: reg.Size}, reg
}

const (
	kb = uint64(1) << 10
	mb = uint64(1) << 20
)

// cyclesToNS converts cycles to nanoseconds at the rig's clock.
func (r *Rig) cyclesToNS(c float64) float64 {
	return c / r.Machine.Config().GHz
}
