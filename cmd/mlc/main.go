// Command mlc is the Intel Memory Latency Checker equivalent for the
// simulated machine: it reports idle latency and peak bandwidth for the
// local, cross-NUMA, and CXL memory tiers (the paper's §2.3 numbers).
package main

import (
	"flag"
	"fmt"
	"os"

	"pathfinder/internal/experiments"
	"pathfinder/internal/sim"
)

func main() {
	machine := flag.String("machine", "spr", "machine model: spr or emr")
	quick := flag.Bool("quick", false, "shorter, less precise sweep")
	flag.Parse()

	cfg, err := sim.ConfigByName(*machine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlc: %v\n", err)
		os.Exit(2)
	}
	res := experiments.RunMLC(cfg, *quick)
	fmt.Print(res.Table())
}
