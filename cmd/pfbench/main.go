// Command pfbench regenerates the paper's tables and figures against the
// simulated machines: one experiment per artifact, selected with -exp.
// DESIGN.md's per-experiment index maps each name to its paper artifact;
// EXPERIMENTS.md records paper-vs-measured values from full runs.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"sync"

	"pathfinder/internal/chaos"
	"pathfinder/internal/experiments"
	"pathfinder/internal/sim"
)

func main() {
	exp := flag.String("exp", "all",
		"experiment: mlc, fig2, fig3, fig4, emr, table7, fig6, fig78, fig910, fig11, fig12, fig13, overhead, faults, sweep, or all")
	machine := flag.String("machine", "spr", "machine model: spr or emr")
	quick := flag.Bool("quick", false, "shorter runs (coarser numbers)")
	parallel := flag.Int("parallel", runtime.NumCPU(),
		"worker goroutines for independent machine runs (1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write CPU profile to file")
	memprofile := flag.String("memprofile", "", "write heap profile to file")
	traceFile := flag.String("trace", "", "write runtime execution trace to file")
	soak := flag.Int("soak", 0, "chaos-soak: run N seeded random fault cases under invariant monitors")
	soakSeed := flag.Uint64("soak-seed", 1, "base seed for -soak (case i uses seed+i)")
	soakCycles := flag.Uint64("soak-cycles", 0, "simulated cycles per soak case (0 = default)")
	soakBudget := flag.Uint64("soak-budget", 0, "per-case supervision budget in simulated cycles (0 = unlimited)")
	replay := flag.String("replay", "", "replay a chaos finding from its printed 'seed,plan' pair")
	flightDump := flag.String("flight-dump", "pfbench-flight-bundle.json",
		"where -replay writes the violation's flight-recorder postmortem bundle ('' = skip)")
	flag.Parse()

	if *replay != "" {
		seed, planStr, err := chaos.ParseReplaySpec(*replay)
		if err != nil {
			fatalf("pfbench: %v", err)
		}
		res, err := chaos.Replay(os.Stdout, seed, planStr, *soakCycles, nil)
		if err != nil {
			fatalf("pfbench: replay: %v", err)
		}
		if len(res.Violations) > 0 {
			// Every chaos case runs with the flight recorder attached, so a
			// violating replay already carries its postmortem bundle.
			if *flightDump != "" && len(res.Bundle) > 0 {
				if err := os.WriteFile(*flightDump, res.Bundle, 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "pfbench: flight bundle: %v\n", err)
				} else {
					fmt.Printf("flight bundle written to %s\n", *flightDump)
				}
			}
			os.Exit(1)
		}
		return
	}
	if *soak > 0 {
		experiments.SetParallelism(*parallel)
		rep, err := chaos.Soak(chaos.Options{
			Cases:       *soak,
			BaseSeed:    *soakSeed,
			Cycles:      *soakCycles,
			CycleBudget: *soakBudget,
			Out:         os.Stdout,
		})
		if err != nil {
			fatalf("pfbench: soak: %v", err)
		}
		if len(rep.Findings) > 0 || len(rep.Tasks.Failed()) > 0 {
			os.Exit(1)
		}
		return
	}

	// Profile outputs close explicitly, never via a bare deferred Close:
	// fatalf exits through os.Exit, which skips deferred calls, and a
	// swallowed Close error can silently truncate the profile on a full disk.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("pfbench: -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatalf("pfbench: start CPU profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatalf("pfbench: close CPU profile: %v", err)
			}
		}()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatalf("pfbench: -trace: %v", err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			fatalf("pfbench: start trace: %v", err)
		}
		defer func() {
			trace.Stop()
			if err := f.Close(); err != nil {
				fatalf("pfbench: close trace: %v", err)
			}
		}()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fatalf("pfbench: -memprofile: %v", err)
		}
		runtime.GC()
		werr := pprof.WriteHeapProfile(f)
		cerr := f.Close()
		if werr != nil {
			fatalf("pfbench: write heap profile: %v", werr)
		}
		if cerr != nil {
			fatalf("pfbench: close heap profile: %v", cerr)
		}
	}()

	experiments.SetParallelism(*parallel)

	cfg, err := sim.ConfigByName(*machine)
	if err != nil {
		fatalf("pfbench: %v", err)
	}

	runners := map[string]func(w io.Writer){
		"mlc": func(w io.Writer) {
			fmt.Fprint(w, experiments.RunMLC(cfg, *quick).Table())
		},
		"fig2": func(w io.Writer) {
			r := experiments.RunFig2(cfg, *quick)
			fmt.Fprint(w, r.Main.Table())
			fmt.Fprintln(w)
			fmt.Fprint(w, r.WrOnly.Table())
		},
		"fig3": func(w io.Writer) {
			fmt.Fprint(w, experiments.RunFig3(cfg, *quick).Table())
		},
		"fig4": func(w io.Writer) {
			fmt.Fprint(w, experiments.RunFig4(cfg, *quick).Table())
		},
		"emr": func(w io.Writer) {
			// Figures 14-16: the same characterization on the EMR machine.
			emr := sim.EMR()
			r := experiments.RunFig2(emr, *quick)
			fmt.Fprint(w, r.Main.Table())
			fmt.Fprintln(w)
			fmt.Fprint(w, r.WrOnly.Table())
			fmt.Fprintln(w)
			fmt.Fprint(w, experiments.RunFig3(emr, *quick).Table())
			fmt.Fprintln(w)
			fmt.Fprint(w, experiments.RunFig4(emr, *quick).Table())
		},
		"table7": func(w io.Writer) {
			r := experiments.RunTable7(cfg, *quick)
			fmt.Fprint(w, r.Table())
			fmt.Fprintf(w, "\nFOTS hot core path: %v; hot uncore path: %v (%.1f%% of uncore traffic)\n",
				r.FOTSHotCore, r.FOTSHotUncore, r.FOTSUncoreHWPF*100)
			fmt.Fprintf(w, "GCCS core-request growth snapshot2/snapshot1: %.1fx\n", r.GCCSReqGrowth)
		},
		"fig6": func(w io.Writer) {
			r := experiments.RunFig6(cfg, *quick)
			fmt.Fprint(w, r.Table())
			fmt.Fprintf(w, "\nmean DRd FlexBus+MC + CXL DIMM stall share: %.1f%%\n",
				r.DownstreamShare()*100)
		},
		"fig78": func(w io.Writer) {
			r := experiments.RunFig78(cfg, *quick)
			fmt.Fprint(w, r.Stall)
			fmt.Fprintln(w)
			fmt.Fprint(w, r.Queues)
			fmt.Fprintf(w, "\nin-core CXL-induced stall growth 20%%->100%%: %.2fx\n", r.CoreStallGrowth())
		},
		"fig910": func(w io.Writer) {
			r := experiments.RunFig910(cfg, *quick)
			fmt.Fprint(w, r.Throughput)
			fmt.Fprintln(w)
			fmt.Fprint(w, r.Stall)
			fmt.Fprintln(w)
			fmt.Fprint(w, r.Latency)
			fmt.Fprintln(w)
			fmt.Fprint(w, r.Queues)
			fmt.Fprintln(w, "\nculprits per load step:", strings.Join(r.Culprits, "; "))
			fmt.Fprintf(w, "YCSB throughput drop: %.1f%%; FlexBus+MC latency growth: %.2fx\n",
				r.ThroughputDrop()*100, r.FlexLatencyGrowth())
		},
		"fig11": func(w io.Writer) {
			for _, r := range experiments.RunFig11(cfg, *quick) {
				fmt.Fprint(w, r.Table())
				fmt.Fprintln(w)
			}
		},
		"fig12": func(w io.Writer) {
			fmt.Fprint(w, experiments.RunFig12(cfg, *quick).Table())
		},
		"fig13": func(w io.Writer) {
			r := experiments.RunFig13(cfg, *quick)
			fmt.Fprint(w, r.Table())
			ratio := 0.0
			if r.ColloidOps > 0 {
				ratio = r.GuidedOps / r.ColloidOps
			}
			fmt.Fprintf(w, "\nTPP+Colloid vs PathFinder-guided (write-heavy): %.0f vs %.0f ops (%.2fx)\n",
				r.ColloidOps, r.GuidedOps, ratio)
		},
		"overhead": func(w io.Writer) {
			fmt.Fprint(w, experiments.RunOverhead(cfg, *quick).Table())
		},
		// Extensions beyond the paper's artifacts.
		"baseline": func(w io.Writer) {
			fmt.Fprint(w, experiments.RunTMABaseline(cfg, *quick).Table())
		},
		"pool": func(w io.Writer) {
			fmt.Fprint(w, experiments.RunPool(cfg, *quick).Table())
		},
		"faults": func(w io.Writer) {
			r := experiments.RunFaults(cfg, *quick)
			fmt.Fprint(w, r.Sweep)
			fmt.Fprintln(w, "\nfault-domain culprit per rate:", strings.Join(r.Culprits, "; "))
			fmt.Fprintf(w, "YCSB throughput drop healthy -> sickest link: %.1f%%\n",
				r.ThroughputDrop()*100)
		},
		"sweep": func(w io.Writer) {
			fmt.Fprint(w, experiments.RunWarmSweep(cfg, *quick).Table())
		},
	}

	order := []string{"mlc", "fig2", "fig3", "fig4", "emr", "table7", "fig6",
		"fig78", "fig910", "fig11", "fig12", "fig13", "overhead", "baseline", "pool",
		"faults", "sweep"}

	if *exp == "all" {
		runAll(order, runners, *parallel)
	} else {
		run, ok := runners[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; choose one of: %s, all\n",
				*exp, strings.Join(order, ", "))
			os.Exit(2)
		}
		run(os.Stdout)
	}
	if s := experiments.CheckpointCache(); s.Forks > 0 {
		// Confirm prefix reuse engaged for the warm-shared matrices.
		fmt.Fprintf(os.Stderr, "pfbench: checkpoint cache: %d images (%d bytes), %d hits, %d misses, %d forks\n",
			s.Entries, s.Bytes, s.Hits, s.Misses, s.Forks)
	}
}

// runAll executes the full suite.  Experiments run concurrently (each
// writing to its own buffer, on top of each experiment's own internal
// machine-level fan-out) but output is flushed strictly in suite order,
// so `-exp all` prints byte-identical text at any -parallel setting.
func runAll(order []string, runners map[string]func(io.Writer), workers int) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(order) {
		workers = len(order)
	}
	bufs := make([]bytes.Buffer, len(order))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, name := range order {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Suite-level profile attribution; the runner pool re-labels
			// its own workers per experiment fan-out.
			pprof.Do(context.Background(), pprof.Labels("experiment", name),
				func(context.Context) {
					fmt.Fprintf(&bufs[i], "==== %s ====\n", name)
					runners[name](&bufs[i])
					fmt.Fprintln(&bufs[i])
				})
		}(i, name)
	}
	wg.Wait()
	for i := range bufs {
		os.Stdout.Write(bufs[i].Bytes())
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
