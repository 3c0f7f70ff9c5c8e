package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostFingerprint identifies where a number was measured: it heads every
// output and trace file, because no figure compares across hosts.
func hostFingerprint() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d %s %s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

var calibSink uint64

// calibMillis times a fixed single-threaded integer loop, best of three
// so that a cold start does not count. The workload never changes it, so
// a different reading before and after a run means the host, not the
// program, moved.
func calibMillis() float64 {
	best := math.Inf(1)
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 10_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		best = math.Min(best, millis(time.Since(t0)))
	}
	return best
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		return float64(ru.Maxrss) / 1024 // Linux reports kB
	}
	return 0
}

// cpuSeconds is the user+system CPU time this process has consumed.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// memDelta is what the Go runtime allocated and collected between two
// readings.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseMs      float64
}

// into writes the runtime rows, per tuple handled.
func (d memDelta) into(m map[string]float64, tuples float64) {
	m["runtime.allocs_per_tuple"] = ratio(float64(d.mallocs), tuples)
	m["runtime.alloc_bytes_per_tuple"] = ratio(float64(d.bytes), tuples)
	m["runtime.gc_cycles"] = float64(d.gcCycles)
	m["runtime.gc_pause_ms"] = d.gcPauseMs
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		mallocs:   after.Mallocs - before.Mallocs,
		bytes:     after.TotalAlloc - before.TotalAlloc,
		gcCycles:  after.NumGC - before.NumGC,
		gcPauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}
