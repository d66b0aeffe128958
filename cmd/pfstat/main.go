// Command pfstat is the perf-stat equivalent for the simulated machine:
// it runs a catalog application with the requested memory placement and
// prints the selected PMU events, either as run totals or as per-interval
// deltas (like `perf stat -I`).
//
// Example:
//
//	pfstat -e 'core0/mem_load_retired.l1_miss/,cha*/unc_cha_tor_inserts.ia_drd.miss_cxl/' \
//	       -app LBM:cxl -kcycles 4000 -interval-kcycles 500
//
// With -bundle it instead summarizes a flight-recorder postmortem bundle:
// promotion counts, thresholds, and how the promoted tail's per-stage
// residency compares against the whole recorded population, both split
// by the recorder's stage partition (obs.FlightRec.Stages).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pathfinder/internal/mem"
	"pathfinder/internal/obs"
	"pathfinder/internal/perf"
	"pathfinder/internal/report"
	"pathfinder/internal/sim"
	"pathfinder/internal/workload"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pfstat: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	events := flag.String("e", "core0/inst_retired.any/,core0/cpu_clk_unhalted.thread/",
		"comma list of event specs (pmu/event/)")
	appSpec := flag.String("app", "LBM:cxl", "APP:PLACEMENT to run (placement: local, remote, cxl)")
	kcycles := flag.Uint64("kcycles", 4000, "run length in kilocycles")
	interval := flag.Uint64("interval-kcycles", 0, "print deltas every N kilocycles (0 = totals only)")
	wsMB := flag.Uint64("ws-mb", 64, "working-set size in MiB")
	machine := flag.String("machine", "spr", "machine model: spr or emr")
	bundlePath := flag.String("bundle", "", "summarize this flight-recorder bundle instead of running")
	flag.Parse()

	if *bundlePath != "" {
		summarizeBundle(*bundlePath)
		return
	}

	cfg, err := sim.ConfigByName(*machine)
	if err != nil {
		fatalf("%v", err)
	}
	cfg.LLCSize /= 4
	cfg.LLCSlices /= 4
	as := mem.NewAddressSpace(12, []mem.Node{
		{ID: 0, Kind: mem.LocalDRAM, Capacity: 64 << 30},
		{ID: 1, Kind: mem.RemoteDRAM, Socket: 1, Capacity: 64 << 30},
		{ID: 2, Kind: mem.CXLDRAM, Device: 0, Capacity: 64 << 30},
	})
	m := sim.New(cfg, as)

	parts := strings.SplitN(*appSpec, ":", 2)
	app, ok := workload.Lookup(parts[0])
	if !ok {
		fatalf("unknown application %q", parts[0])
	}
	node := mem.NodeID(2)
	if len(parts) == 2 {
		switch parts[1] {
		case "local":
			node = 0
		case "remote":
			node = 1
		case "cxl":
			node = 2
		default:
			fatalf("bad placement %q", parts[1])
		}
	}
	reg, err := as.Alloc(*wsMB<<20, mem.Fixed(node))
	if err != nil {
		fatalf("%v", err)
	}
	m.Attach(0, app.Generator(workload.Region{Base: reg.Base, Size: reg.Size}, 1))

	specs := strings.Split(*events, ",")
	for i := range specs {
		specs[i] = strings.TrimSpace(specs[i])
	}
	sess, warns, err := perf.OpenLenient(m, specs...)
	if err != nil {
		fatalf("%v", err)
	}
	for _, w := range warns {
		fmt.Fprintf(os.Stderr, "pfstat: warning: %s\n", w)
	}
	if g := sess.MaxGroups(); g > 1 {
		fmt.Fprintf(os.Stderr, "pfstat: note: %d multiplex groups on the busiest PMU (run fraction %.2f)\n",
			g, 1/float64(g))
	}

	total := sim.Cycles(*kcycles) * 1000
	if *interval == 0 {
		m.Run(total)
		vals := sess.Read()
		t := &report.Table{Title: fmt.Sprintf("%s on %s, %dk cycles", app.Name, parts[1], *kcycles),
			Cols: []string{"event", "count"}}
		for i, sp := range sess.Specs() {
			t.AddRow(sp.String(), report.Num(float64(vals[i])))
		}
		fmt.Print(t)
		return
	}

	step := sim.Cycles(*interval) * 1000
	t := &report.Table{Title: fmt.Sprintf("%s on %s, deltas every %dk cycles", app.Name, parts[1], *interval),
		Cols: []string{"kcycle"}}
	for _, sp := range sess.Specs() {
		t.Cols = append(t.Cols, sp.String())
	}
	for at := sim.Cycles(0); at < total; at += step {
		m.Run(step)
		deltas := sess.ReadDelta()
		row := []string{report.Num(float64(at+step) / 1000)}
		for _, d := range deltas {
			row = append(row, report.Num(float64(d)))
		}
		t.AddRow(row...)
	}
	fmt.Print(t)
}

// summarizeBundle prints the postmortem digest of a dumped flight bundle:
// what triggered it, how much the recorder saw, where the promotion
// thresholds sat, and how the promoted tail's stage residency skews
// against the full recorded population (the "why is the tail slow" view).
func summarizeBundle(path string) {
	b, err := obs.ReadBundleFile(path)
	if err != nil {
		fatalf("reading %s: %v", path, err)
	}
	fl := &b.Flight

	t := &report.Table{Title: fmt.Sprintf("flight bundle %s", path),
		Cols: []string{"property", "value"}}
	t.AddRow("trigger", b.Trigger)
	t.AddRow("epoch", fmt.Sprint(b.Epoch))
	t.AddRow("cores", fmt.Sprint(fl.Cores))
	t.AddRow("records filed", fmt.Sprint(fl.Records))
	t.AddRow("promoted to tail", fmt.Sprint(fl.Promoted))
	t.AddRow("tail retained", fmt.Sprintf("%d (cap %d)", len(fl.Tail), fl.TailCap))
	if b.FaultPlan != "" {
		t.AddRow("fault plan", b.FaultPlan)
	}
	fmt.Print(t)
	fmt.Println()

	// Split the retained tail by class with the recorder's own partition.
	var tails [2]obs.StageTotals
	var tailN [2]uint64
	for i := range fl.Tail {
		c := fl.Tail[i].Class & 1
		tails[c].Add(&fl.Tail[i].FlightRec)
		tailN[c]++
	}

	for c, cs := range fl.Classes {
		if cs.Records == 0 || c >= len(tails) {
			continue
		}
		ct := &report.Table{
			Title: fmt.Sprintf("%s: %d records, %d promoted, threshold %s cyc",
				cs.Name, cs.Records, cs.Promoted, report.Num(cs.Threshold)),
			Cols: []string{"stage", "all mean cyc", "tail mean cyc", "tail/all"},
		}
		for st, all := range cs.Stages {
			tail := uint64(0)
			if st < int(obs.StageCount) {
				tail = tails[c].Cycles[st]
			}
			if all.Cycles == 0 && tail == 0 {
				continue
			}
			allMean := float64(all.Cycles) / float64(cs.Records)
			row := []string{all.Stage, report.Num(allMean), "n/a", "n/a"}
			if tailN[c] > 0 {
				tailMean := float64(tail) / float64(tailN[c])
				row[2] = report.Num(tailMean)
				if allMean > 0 {
					row[3] = fmt.Sprintf("%.1fx", tailMean/allMean)
				}
			}
			ct.AddRow(row...)
		}
		fmt.Print(ct)
		fmt.Println()
	}

	if len(b.Aux) > 0 {
		fmt.Printf("aux: %s\n", b.Aux)
	}
}
