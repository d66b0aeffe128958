// Command pathfinder is the profiler CLI (Figure 5-a's task specification):
// it runs applications from the catalog over the simulated machine with the
// requested memory placement, performs snapshot-based path-driven profiling,
// and prints the selected reports — path maps (PFBuilder), CXL-induced
// stall breakdowns (PFEstimator), queue estimates and culprits
// (PFAnalyzer), and cross-snapshot locality summaries (PFMaterializer).
//
// Example:
//
//	pathfinder -apps LBM:cxl,MCF:local -epochs 8 -report all
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"pathfinder/internal/core"
	"pathfinder/internal/cxl"
	"pathfinder/internal/mem"
	"pathfinder/internal/mem/tier"
	"pathfinder/internal/obs"
	"pathfinder/internal/pmu"
	"pathfinder/internal/report"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pathfinder: "+format+"\n", args...)
	os.Exit(1)
}

// parsePlacement turns "local", "cxl", "remote" or "A:B" (local:CXL ratio)
// into a placement policy.
func parsePlacement(s string) (mem.Policy, error) {
	switch s {
	case "local":
		return mem.Fixed(0), nil
	case "remote":
		return mem.Fixed(1), nil
	case "cxl":
		return mem.Fixed(2), nil
	}
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("unknown placement %q (want local, remote, cxl, or a local:CXL ratio like 3:1)", s)
	}
	a, errA := strconv.Atoi(parts[0])
	b, errB := strconv.Atoi(parts[1])
	if errA != nil || errB != nil {
		return nil, fmt.Errorf("placement ratio %q is not numeric (want a local:CXL ratio like 3:1)", s)
	}
	if a <= 0 || b <= 0 {
		return nil, fmt.Errorf("placement ratio %q needs two positive parts (use local or cxl for one-sided placement)", s)
	}
	return mem.Interleave{A: 0, B: 2, RatioA: a, RatioB: b}, nil
}

// runStatus is the /status document served by -serve.  The run loop
// stores a fresh copy per epoch into an atomic.Value, so HTTP reads never
// race the single-goroutine simulator.
type runStatus struct {
	Machine     string       `json:"machine"`
	State       string       `json:"state"` // "running", "done"
	Epoch       int          `json:"epoch"`
	Epochs      int          `json:"epochs"`
	EpochCycles uint64       `json:"epoch_cycles"`
	Apps        []statusApp  `json:"apps"`
	Engine      statusEngine `json:"engine"`
	Link        *statusLink  `json:"cxl_link,omitempty"`
}

// statusEngine surfaces the sequential sweep: the workload ops the core
// stepper has executed inline.
type statusEngine struct {
	InlineSteps uint64 `json:"inline_steps"`
}

type statusApp struct {
	Label string `json:"label"`
	Core  int    `json:"core"`
}

type statusLink struct {
	CRCErrors    float64 `json:"crc_errors"`
	Retries      float64 `json:"retries"`
	ReplayBytes  float64 `json:"replay_bytes"`
	DevTimeouts  float64 `json:"device_timeouts"`
	PoisonReads  float64 `json:"poison_reads"`
	ViralEntries float64 `json:"viral_entries"`
	FastFails    float64 `json:"fast_fails"`
	Isolated     bool    `json:"isolated"`
}

// reportNames are the report selectors -report accepts (besides "all").
var reportNames = []string{"paths", "stalls", "queues", "locality", "flows"}

// parseReports validates the -report list up front, so a typo fails with
// the valid choices instead of silently printing nothing.
func parseReports(s string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, r := range strings.Split(s, ",") {
		name := strings.TrimSpace(r)
		if name == "" {
			continue
		}
		ok := name == "all"
		for _, v := range reportNames {
			if name == v {
				ok = true
			}
		}
		if !ok {
			return nil, fmt.Errorf("unknown report %q (choose from: %s, all)",
				name, strings.Join(reportNames, ", "))
		}
		want[name] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("empty -report list (choose from: %s, all)",
			strings.Join(reportNames, ", "))
	}
	return want, nil
}

func main() {
	machine := flag.String("machine", "spr", "machine model: spr or emr")
	appsFlag := flag.String("apps", "LBM:cxl", "comma list of APP:PLACEMENT (placement: local, remote, cxl, or A:B local:CXL ratio)")
	wsMB := flag.Uint64("ws-mb", 64, "working-set size per application in MiB")
	epochs := flag.Int("epochs", 8, "profiling epochs (snapshots)")
	epochK := flag.Uint64("epoch-kcycles", 2000, "scheduling-epoch length in kilocycles")
	reports := flag.String("report", "all", "comma list of: paths, stalls, queues, locality, flows")
	llcScale := flag.Int("llc-scale", 4, "shrink the LLC by this factor (faster profiling of scaled working sets)")
	tpp := flag.Bool("tpp", false, "enable TPP page placement during the run")
	fault := flag.String("fault", "", "CXL link fault plan, e.g. 'seed=42,crc=1e-3,burst=100000:20000:0.5:400000,timeout=500000:50000,poison=0:64' (empty = healthy link)")
	listApps := flag.Bool("list-apps", false, "print the application catalog and exit")
	listEvents := flag.Bool("list-events", false, "print the PMU event catalog and exit")
	serve := flag.String("serve", "", "serve /metrics, /status, /trace, /debug/pprof on this address (e.g. :6060); keeps serving after the run")
	traceSample := flag.Int("trace-sample", 64, "/trace exports one flight record in N per core (0 = /trace off)")
	flightRing := flag.Int("flight", 4096, "flight-recorder per-core ring capacity in records (0 = recorder off)")
	flightTail := flag.Int("flight-tail", 512, "flight-recorder tail-store capacity in promoted records")
	flightDump := flag.String("flight-dump", "pathfinder-flight-bundle.json", "postmortem bundle path written on SIGQUIT")
	flag.Parse()

	if *listEvents {
		t := &report.Table{Title: "PMU event catalog (paper Tables 1-4)",
			Cols: []string{"event", "unit", "scope", "kind", "description"}}
		for _, name := range pmu.Default.Names() {
			e, _ := pmu.Default.Lookup(name)
			in := pmu.Default.Info(e)
			t.AddRow(in.Name, in.Unit.String(), in.Scope.String(), in.Kind.String(), in.Desc)
		}
		fmt.Print(t)
		return
	}

	if *listApps {
		t := &report.Table{Title: "Application catalog (Table 6)",
			Cols: []string{"code", "benchmark", "suite", "working set (MB)", "shape"}}
		for _, a := range workload.Catalog() {
			t.AddRow(a.Name, a.Full, a.Suite, report.Num(a.WorkingSetMB), a.Shape.String())
		}
		fmt.Print(t)
		return
	}

	want, err := parseReports(*reports)
	if err != nil {
		fatalf("%v", err)
	}

	cfg, err := sim.ConfigByName(*machine)
	if err != nil {
		fatalf("%v", err)
	}
	if *fault != "" {
		plan, err := cxl.ParseFaultPlan(*fault)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Faults = plan
	}
	if *llcScale > 1 {
		cfg.LLCSize /= *llcScale
		cfg.LLCSlices /= *llcScale
		if cfg.LLCSlices < cfg.SNCClusters {
			cfg.LLCSlices = cfg.SNCClusters
		}
	}

	as := mem.NewAddressSpace(12, []mem.Node{
		{ID: 0, Kind: mem.LocalDRAM, Capacity: 256 << 30},
		{ID: 1, Kind: mem.RemoteDRAM, Socket: 1, Capacity: 256 << 30},
		{ID: 2, Kind: mem.CXLDRAM, Device: 0, Capacity: 256 << 30},
	})
	m := sim.New(cfg, as)

	// The flight recorder is on by default: always-on tail capture is the
	// point, and the off-path cost with it attached is a couple of loads.
	var fl *obs.Flight
	if *flightRing > 0 {
		fl = obs.NewFlight(m.Cores(), *flightRing, *flightTail)
		fl.Enable()
		m.SetFlight(fl)
		fl.RegisterMetrics(obs.Default)
	}

	var runs []core.AppRun
	for i, spec := range strings.Split(*appsFlag, ",") {
		parts := strings.SplitN(strings.TrimSpace(spec), ":", 2)
		app, ok := workload.Lookup(parts[0])
		if !ok {
			fatalf("unknown application %q (try -list-apps)", parts[0])
		}
		placement := "cxl"
		if len(parts) == 2 {
			placement = parts[1]
		}
		pol, err := parsePlacement(placement)
		if err != nil {
			fatalf("%v", err)
		}
		reg, err := as.Alloc(*wsMB<<20, pol)
		if err != nil {
			fatalf("allocating %s: %v", app.Name, err)
		}
		if i >= m.Cores() {
			fatalf("more applications than cores (%d)", m.Cores())
		}
		runs = append(runs, core.AppRun{
			Label: app.Name,
			Core:  i,
			Gen:   app.Generator(workload.Region{Base: reg.Base, Size: reg.Size}, uint64(i+1)),
		})
	}

	var mgr *tier.Manager
	if *tpp {
		var err error
		mgr, err = tier.NewManager(as, m, 0, 2, tier.DefaultConfig())
		if err != nil {
			fatalf("tiering: %v", err)
		}
		m.SetAccessHook(func(_ int, la uint64, _ bool) { mgr.ObserveAccess(la) })
	}

	// status holds the /status document, which the SIGQUIT bundle embeds.
	var status atomic.Value
	statusFn := func() any { return status.Load() }

	faultPlanStr := ""
	if cfg.Faults != nil {
		faultPlanStr = cfg.Faults.String()
	}
	if fl != nil {
		// SIGQUIT dumps a postmortem bundle and keeps running — the live
		// equivalent of hitting /flight/dump, usable without -serve.
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			for range quit {
				err := obs.WriteBundleFile(*flightDump, obs.BundleOpts{
					Trigger:   "sigquit",
					Flight:    fl,
					Metrics:   obs.Default,
					Status:    statusFn,
					FaultPlan: faultPlanStr,
				})
				if err != nil {
					fmt.Fprintf(os.Stderr, "pathfinder: flight dump: %v\n", err)
					continue
				}
				fmt.Fprintf(os.Stderr, "pathfinder: flight bundle (sigquit) written to %s\n", *flightDump)
			}
		}()
	}

	p, err := core.NewProfiler(core.Spec{
		Machine:     m,
		Apps:        runs,
		EpochCycles: sim.Cycles(*epochK) * 1000,
		Epochs:      *epochs,
		Mode:        core.ModeContinuous,
		Metrics:     obs.Default,
		Flight:      fl,
	})
	if err != nil {
		fatalf("%v", err)
	}

	setStatus := func(state string, epoch int, last *core.EpochResult) {
		st := runStatus{
			Machine:     cfg.Name,
			State:       state,
			Epoch:       epoch,
			Epochs:      *epochs,
			EpochCycles: *epochK * 1000,
			Engine:      statusEngine{InlineSteps: m.InlineSteps()},
		}
		for _, run := range runs {
			st.Apps = append(st.Apps, statusApp{Label: run.Label, Core: run.Core})
		}
		if last != nil {
			s := last.Snapshot
			st.Link = &statusLink{
				CRCErrors:    s.CXL(0, pmu.CXLLinkCRCErrors),
				Retries:      s.CXL(0, pmu.CXLLinkRetries),
				ReplayBytes:  s.CXL(0, pmu.CXLLinkReplayBytes),
				DevTimeouts:  s.CXL(0, pmu.CXLDevTimeouts),
				PoisonReads:  s.CXL(0, pmu.CXLDevPoisonRd),
				ViralEntries: s.CXL(0, pmu.CXLDevViralEntries),
				FastFails:    s.M2P(0, pmu.M2PFastFails),
				Isolated:     m.DeviceIsolated(0),
			}
		}
		status.Store(&st)
	}
	setStatus("running", 0, nil)

	var srv *obs.Server
	if *serve != "" {
		srv = obs.NewServer(obs.Default, statusFn, cfg.GHz)
		srv.SetFlight(fl, faultPlanStr)
		srv.SetTrace(*traceSample, func(l uint8) string { return sim.ServeLoc(l).String() })
		addr, err := srv.Start(*serve)
		if err != nil {
			fatalf("-serve %s: %v", *serve, err)
		}
		fmt.Printf("pathfinder: serving on http://%s\n", addr)
	}

	var last *core.EpochResult
	for e := 0; e < *epochs; e++ {
		if last != nil {
			// /status already holds the previous epoch's figures: recycle
			// its snapshot so this epoch's capture reuses the arena.  The
			// last epoch's snapshot stays for the reports below.
			last.Snapshot.Release()
		}
		r, err := p.Step()
		if err != nil {
			fatalf("epoch %d: %v", e, err)
		}
		last = r
		setStatus("running", e+1, last)
		if mgr != nil {
			mgr.Tick()
		}
	}
	setStatus("done", *epochs, last)

	all := want["all"]

	for _, run := range runs {
		label := run.Label
		fmt.Printf("==== %s (core %d) ====\n", label, run.Core)
		if all || want["flows"] {
			for _, f := range p.Flows(label, last.PathMaps[label]) {
				fmt.Println("mFlow:", f)
			}
			fmt.Println()
		}
		if all || want["paths"] {
			fmt.Print(report.PathMapTable(last.PathMaps[label]))
			fmt.Println()
		}
		if all || want["stalls"] {
			fmt.Print(report.StallTable(last.Stalls[label]))
			fmt.Println()
		}
		if all || want["queues"] {
			fmt.Print(report.QueueTable(last.Queues[label]))
			fmt.Println()
		}
		if all || want["locality"] {
			ws := p.Materializer().LocalityWindows(label, core.LvlCXL, 0.4)
			fmt.Printf("PFMaterializer: %d stable CXL-traffic windows\n", len(ws))
			for i, w := range ws {
				fmt.Printf("  window %d: epochs [%d,%d), mean CXL hits %.0f\n",
					i, w.Segment.Start, w.Segment.End, w.MeanHits)
			}
			fmt.Println()
		}
	}
	if mgr != nil {
		st := mgr.Stats()
		fmt.Printf("TPP: %d pages promoted, %d demoted, %d accesses sampled\n",
			st.Promoted, st.Demoted, st.SampledAccesses)
	}
	// CXL 3.x QoS telemetry: the device's dominant DevLoad class.
	fmt.Printf("CXL device QoS (DevLoad): %s\n", m.DevLoad(0))
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		s := last.Snapshot
		fmt.Printf("CXL link health (last epoch): %.0f CRC errors, %.0f retries, %.0f replay bytes, %.0f device timeouts\n",
			s.CXL(0, pmu.CXLLinkCRCErrors), s.CXL(0, pmu.CXLLinkRetries),
			s.CXL(0, pmu.CXLLinkReplayBytes), s.CXL(0, pmu.CXLDevTimeouts))
	}
	if srv != nil {
		fmt.Printf("pathfinder: run complete; still serving on http://%s (interrupt to exit)\n", srv.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		signal.Stop(sig)
		// Graceful drain: stop accepting connections, let in-flight scrapes
		// finish, then force-close if they overstay.  A second interrupt
		// during the drain kills the process the usual way.
		fmt.Println("pathfinder: shutting down (draining connections)")
		if err := srv.Shutdown(5 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "pathfinder: forced shutdown: %v\n", err)
		}
	}
}
