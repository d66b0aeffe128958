package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

const mib = 1 << 20

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS restarts the kernel's tracking of this process's peak
// resident set, so a later peakRSSMB covers only what runs after it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// stealSeconds reads the host-wide CPU steal time from /proc/stat.  The
// kernel reports it in USER_HZ ticks, 100 per second on Linux.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100
}

// heapLiveMB forces collections and returns the live heap in MiB.  The
// second collection drops what sync.Pools hold from before the first, so
// the figure does not depend on which pooled work ran last.  The caller
// keeps the workload's state reachable across the call.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / mib
}

// rtMark is a point-in-time copy of the runtime's allocation and GC
// counters; the difference of two marks is one phase's runtime cost.
type rtMark struct {
	alloc, mallocs uint64
	gcs            uint32
	pauseNs        uint64
}

func markRuntime() rtMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtMark{alloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// runtimeLayer reports the runtime metrics of the phase between two marks.
func runtimeLayer(from, to rtMark, out map[string]float64) {
	out["runtime.alloc_mb"] = float64(to.alloc-from.alloc) / mib
	out["runtime.mallocs"] = float64(to.mallocs - from.mallocs)
	out["runtime.gc_cycles"] = float64(to.gcs - from.gcs)
	out["runtime.gc_pause_ms"] = float64(to.pauseNs-from.pauseNs) / 1e6
}
