// Command pftrace records, inspects, and replays memory-access traces:
// the trace-driven methodology for feeding one captured op stream to many
// simulated configurations.  The spans subcommand traces the request path
// itself — per-request stage waterfalls through the core, L2, CHA, and the
// IMC or M2PCIe/CXL backends, read from the flight recorder — and
// cross-checks observed residency against the PFAnalyzer queue estimates.
//
//	pftrace record -app FOTS -ops 200000 -o fots.trc
//	pftrace info   -i fots.trc
//	pftrace replay -i fots.trc -node cxl
//	pftrace spans  -node cxl -o waterfall.json   # open in Perfetto
//	pftrace bundle -i flight-bundle.json -o tail.json   # promoted tail as Perfetto spans
package main

import (
	"flag"
	"fmt"
	"os"

	"pathfinder/internal/core"
	"pathfinder/internal/mem"
	"pathfinder/internal/obs"
	"pathfinder/internal/pmu"
	"pathfinder/internal/report"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pftrace: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	if len(os.Args) < 2 {
		fatalf("usage: pftrace record|info|replay|spans|bundle [flags]")
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "spans":
		spans(os.Args[2:])
	case "bundle":
		bundle(os.Args[2:])
	default:
		fatalf("unknown subcommand %q", os.Args[1])
	}
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	appName := fs.String("app", "LBM", "catalog application to record")
	ops := fs.Uint64("ops", 100_000, "operations to record")
	wsMB := fs.Uint64("ws-mb", 64, "working-set size in MiB")
	out := fs.String("o", "app.trc", "output trace file")
	seed := fs.Uint64("seed", 1, "generator seed")
	_ = fs.Parse(args)

	app, ok := workload.Lookup(*appName)
	if !ok {
		fatalf("unknown application %q", *appName)
	}
	g := app.Generator(workload.Region{Base: 0, Size: *wsMB << 20}, *seed)
	f, err := os.Create(*out)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	if err := workload.WriteTrace(f, g, *ops); err != nil {
		fatalf("recording: %v", err)
	}
	st, _ := f.Stat()
	fmt.Printf("recorded %d ops of %s to %s (%d bytes, %.2f B/op)\n",
		*ops, app.Name, *out, st.Size(), float64(st.Size())/float64(*ops))
}

func loadTrace(path string) []workload.Op {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	ops, err := workload.ReadTrace(f)
	if err != nil {
		fatalf("reading %s: %v", path, err)
	}
	return ops
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "app.trc", "trace file")
	_ = fs.Parse(args)

	ops := loadTrace(*in)
	var loads, stores, prefetches, deps int
	lines := map[uint64]bool{}
	var minA, maxA uint64 = ^uint64(0), 0
	for _, op := range ops {
		switch op.Kind {
		case workload.Load:
			loads++
		case workload.Store:
			stores++
		case workload.Prefetch:
			prefetches++
		}
		if op.Dep {
			deps++
		}
		lines[op.Addr&^63] = true
		if op.Addr < minA {
			minA = op.Addr
		}
		if op.Addr > maxA {
			maxA = op.Addr
		}
	}
	t := &report.Table{Title: *in, Cols: []string{"property", "value"}}
	t.AddRow("operations", fmt.Sprint(len(ops)))
	t.AddRow("loads", fmt.Sprint(loads))
	t.AddRow("stores", fmt.Sprint(stores))
	t.AddRow("sw prefetches", fmt.Sprint(prefetches))
	t.AddRow("dependent ops", fmt.Sprint(deps))
	t.AddRow("distinct lines", fmt.Sprint(len(lines)))
	t.AddRow("footprint", fmt.Sprintf("%.1f MiB", float64(len(lines))*64/(1<<20)))
	t.AddRow("address span", fmt.Sprintf("%#x..%#x", minA, maxA))
	fmt.Print(t)
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "app.trc", "trace file")
	node := fs.String("node", "cxl", "placement: local, remote, or cxl")
	machine := fs.String("machine", "spr", "machine model: spr or emr")
	_ = fs.Parse(args)

	cfg := machineConfig(*machine)
	ops := loadTrace(*in)
	var maxAddr uint64
	for _, op := range ops {
		if op.Addr > maxAddr {
			maxAddr = op.Addr
		}
	}

	as, id := space(*node)
	if _, err := as.Alloc(maxAddr+4096, mem.Fixed(id)); err != nil {
		fatalf("allocating trace footprint: %v", err)
	}
	m := sim.New(cfg, as)
	m.Attach(0, workload.NewReplay(ops, false))
	for m.Core(0).Running() {
		m.Run(5_000_000)
	}
	m.Sync()

	b := m.Core(0).Bank()
	cycles := b.Read(pmu.CPUClkUnhalted)
	t := &report.Table{Title: fmt.Sprintf("replay of %s on %s (%s)", *in, *node, cfg.Name),
		Cols: []string{"metric", "value"}}
	t.AddRow("cycles", fmt.Sprint(cycles))
	t.AddRow("ns", report.Num(float64(cycles)/cfg.GHz))
	t.AddRow("loads", fmt.Sprint(b.Read(pmu.MemInstAllLoads)))
	t.AddRow("l1 hit rate", report.Pct(float64(b.Read(pmu.MemLoadL1Hit))/
		maxf(float64(b.Read(pmu.MemInstAllLoads)), 1)))
	lat := float64(b.Read(pmu.MemTransLoadLatency)) / maxf(float64(b.Read(pmu.MemTransLoadCount)), 1)
	t.AddRow("avg load latency (cyc)", report.Num(lat))
	fmt.Print(t)
}

// machineConfig returns the named machine with its LLC scaled down by 4,
// the scale the replay and spans rigs run at.
func machineConfig(name string) sim.Config {
	cfg, err := sim.ConfigByName(name)
	if err != nil {
		fatalf("%v", err)
	}
	cfg.LLCSize /= 4
	cfg.LLCSlices /= 4
	return cfg
}

// space returns the rigs' three-node address space and the node a
// placement name selects.
func space(node string) (*mem.AddressSpace, mem.NodeID) {
	as := mem.NewAddressSpace(12, []mem.Node{
		{ID: 0, Kind: mem.LocalDRAM, Capacity: 256 << 30},
		{ID: 1, Kind: mem.RemoteDRAM, Socket: 1, Capacity: 256 << 30},
		{ID: 2, Kind: mem.CXLDRAM, Device: 0, Capacity: 256 << 30},
	})
	ids := map[string]mem.NodeID{"local": 0, "remote": 1, "cxl": 2}
	id, ok := ids[node]
	if !ok {
		fatalf("bad node %q (want local, remote, or cxl)", node)
	}
	return as, id
}

// locName names a flight record's serve-location ordinal.
func locName(l uint8) string { return sim.ServeLoc(l).String() }

// spans runs a dependent pointer chase (or a catalog application) with
// the flight recorder attached, prints the per-stage residency waterfall
// over every demand request, cross-checks it against AnalyzeQueues'
// Little's-law estimates, and optionally exports one ring record in
// -sample as Chrome trace_event JSON for Perfetto.
func spans(args []string) {
	fs := flag.NewFlagSet("spans", flag.ExitOnError)
	appName := fs.String("app", "", "catalog application (default: dependent pointer chase)")
	node := fs.String("node", "cxl", "placement: local, remote, or cxl")
	machine := fs.String("machine", "spr", "machine model: spr or emr")
	kcycles := fs.Uint64("kcycles", 2000, "cycles to simulate, in kilocycles")
	sample := fs.Int("sample", 1, "export one flight record in N to -o")
	bufCap := fs.Int("buf", 1<<14, "flight ring capacity in records per core")
	wsMB := fs.Uint64("ws-mb", 16, "working-set size in MiB")
	out := fs.String("o", "", "write Chrome trace_event JSON here (open in Perfetto)")
	_ = fs.Parse(args)

	cfg := machineConfig(*machine)
	if *appName == "" {
		// Demand-only pointer chase: the recorder files demand requests
		// only, so prefetch traffic would widen the PMU integrals
		// relative to the recorded stages and blur the cross-check.
		cfg.L1PFDegree, cfg.L2PFDegree = 0, 0
	}
	as, id := space(*node)
	reg, err := as.Alloc(*wsMB<<20, mem.Fixed(id))
	if err != nil {
		fatalf("allocating working set: %v", err)
	}

	m := sim.New(cfg, as)
	fl := obs.NewFlight(m.Cores(), *bufCap, 1)
	fl.Enable()
	m.SetFlight(fl)

	wr := workload.Region{Base: reg.Base, Size: reg.Size}
	var gen workload.Generator
	label := "pointer chase"
	if *appName != "" {
		app, ok := workload.Lookup(*appName)
		if !ok {
			fatalf("unknown application %q", *appName)
		}
		gen = app.Generator(wr, 7)
		label = app.Name
	} else {
		gen = workload.NewPointerChase(wr, 2, 7)
	}
	m.Attach(0, gen)

	c := core.NewCapturer(m)
	m.Run(sim.Cycles(*kcycles) * 1000)
	m.Sync()
	snap := c.Capture()
	clocks := snap.Cycles()

	n := fl.RecordsTotal()
	if n == 0 {
		fatalf("no requests recorded (is the workload running?)")
	}
	// The waterfall covers every record: the recorder aggregates as it
	// files, whatever the ring keeps.
	st := fl.Stages()
	fmt.Printf("%s on %s (%s): recorded %d requests\n\n", label, *node, cfg.Name, n)

	t := &report.Table{Title: "request-path waterfall (per-stage residency)",
		Cols: []string{"stage", "spans", "cycles", "avg cyc/span", "residency (occupancy)"}}
	for s := obs.Stage(0); s < obs.StageCount; s++ {
		spans, cycles := st.Spans[s], st.Cycles[s]
		if spans == 0 {
			continue
		}
		t.AddRow(s.String(), fmt.Sprint(spans), fmt.Sprint(cycles),
			report.Num(float64(cycles)/float64(spans)),
			report.Num(float64(cycles)/clocks))
	}
	fmt.Print(t)
	fmt.Println()

	// Cross-check against PFAnalyzer on the CXL path: the queue estimates
	// price the same intervals through PMU occupancy integrals, so the two
	// views must agree if the recorded crossings are honest.
	if *node == "cxl" {
		k := core.ConstsFor(cfg)
		plan := core.NewPlan(c.Index(), []int{0}, 0)
		var qr core.QueueReport
		plan.AnalyzeQueuesInto(snap, k, &qr)

		obsDIMM := float64(st.Cycles[obs.StageCXLDevQ]+st.Cycles[obs.StageCXLMedia]) / clocks
		nReads := float64(st.Spans[obs.StageM2PCIe])
		obsFlex := float64(st.Cycles[obs.StageM2PCIe])/clocks + (nReads/clocks)*k.LinkTransit

		ct := &report.Table{Title: "observed residency vs AnalyzeQueues estimate (DRd path)",
			Cols: []string{"component", "observed", "estimated", "delta"}}
		addCheck := func(name string, got, want float64) {
			delta := "n/a"
			if want != 0 {
				delta = report.Pct((got - want) / want)
			}
			ct.AddRow(name, report.Num(got), report.Num(want), delta)
		}
		addCheck("FlexBus+MC", obsFlex, qr.Q[core.PathDRd][core.CompFlexBusMC])
		addCheck("CXL DIMM", obsDIMM, qr.Q[core.PathDRd][core.CompCXLDIMM])
		fmt.Print(ct)
		fmt.Println()
	}

	if *out != "" {
		recs := fl.Sample(*sample)
		writeTrace(*out, recs, cfg.GHz)
		fmt.Printf("wrote %d records (1 in %d per core) to %s — open at https://ui.perfetto.dev\n",
			len(recs), max(*sample, 1), *out)
	}
}

// writeTrace writes records as Chrome trace_event JSON to path.
func writeTrace(path string, recs []obs.TraceRec, ghz float64) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	werr := obs.WriteChromeTrace(f, recs, ghz, locName)
	cerr := f.Close()
	if werr != nil {
		fatalf("writing %s: %v", path, werr)
	}
	if cerr != nil {
		fatalf("closing %s: %v", path, cerr)
	}
}

// bundle renders a flight-recorder postmortem bundle's promoted tail
// records as Perfetto spans: one track per (core, promotion seq) with the
// request envelope and its stage partition (obs.FlightRec.Stages), the
// same stages the live /trace export draws.
func bundle(args []string) {
	fs := flag.NewFlagSet("bundle", flag.ExitOnError)
	in := fs.String("i", "pathfinder-flight-bundle.json", "postmortem bundle file")
	out := fs.String("o", "flight-tail.json", "Chrome trace_event JSON output (open in Perfetto)")
	ghz := fs.Float64("ghz", 2.0, "core clock in GHz for cycle->time conversion")
	_ = fs.Parse(args)

	b, err := obs.ReadBundleFile(*in)
	if err != nil {
		fatalf("reading %s: %v", *in, err)
	}
	tail := b.Flight.Tail
	if len(tail) == 0 {
		fatalf("%s: bundle (trigger %q) has no promoted tail records", *in, b.Trigger)
	}
	recs := make([]obs.TraceRec, len(tail))
	for i := range tail {
		recs[i] = obs.TraceRec{FlightRec: tail[i].FlightRec, ID: uint64(tail[i].Seq)}
	}
	writeTrace(*out, recs, *ghz)
	fmt.Printf("bundle %s (trigger %q, epoch %d): wrote %d promoted spans to %s — open at https://ui.perfetto.dev\n",
		*in, b.Trigger, b.Epoch, len(recs), *out)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
