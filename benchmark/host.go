package main

import (
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"strings"
	"time"
)

// peakRSSMiB reads a process's peak resident set (VmHWM) from
// /proc/<pid>/status.
func peakRSSMiB(pid int) (float64, error) {
	path := fmt.Sprintf("/proc/%d/status", pid)
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: VmHWM: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// cpuTicks is the aggregate "cpu" line of /proc/stat: total ticks and
// the steal share of them.
type cpuTicks struct{ total, steal float64 }

func readCPUTicks() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	for i, s := range f {
		if i == 0 {
			continue
		}
		v, _ := strconv.ParseFloat(s, 64)
		t.total += v
		if i == 8 { // user nice system idle iowait irq softirq steal
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of CPU time the hypervisor took between two
// readings, in percent.
func stealPct(from, to cpuTicks) float64 {
	if to.total <= from.total {
		return 0
	}
	return 100 * (to.steal - from.steal) / (to.total - from.total)
}

// hostRef is a fixed piece of work — popcount over 16 MiB — timed
// between passes. Its best time tells how fast the host is, its
// median how much the host interfered while the benchmark ran.
type hostRef struct {
	buf     []uint64
	samples []float64 // µs
	sink    int
}

func newHostRef() *hostRef {
	h := &hostRef{buf: make([]uint64, 16<<20/8)}
	for i := range h.buf {
		h.buf[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return h
}

func (h *hostRef) sample() {
	start := time.Now()
	n := 0
	for _, w := range h.buf {
		n += bits.OnesCount64(w)
	}
	h.sink += n
	h.samples = append(h.samples, float64(time.Since(start).Nanoseconds())/1e3)
}

func (h *hostRef) bestAndMedian() (best, med float64) {
	if len(h.samples) == 0 {
		return 0, 0
	}
	best = h.samples[0]
	for _, s := range h.samples {
		best = min(best, s)
	}
	return best, median(h.samples)
}
