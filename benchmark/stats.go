package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified. Empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuSeconds is user+system CPU time of this process plus every child it
// has already waited for (proc-sharded fleets and the daemon are reaped
// before their window closes, so their time is included).
func cpuSeconds() float64 {
	var total float64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil {
			total += tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		}
	}
	return total
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// peakRSSMB is the larger of this process's and its reaped children's
// high-water resident set (Linux reports Maxrss in KiB).
func peakRSSMB() float64 {
	var peak int64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil && int64(ru.Maxrss) > peak {
			peak = int64(ru.Maxrss)
		}
	}
	return float64(peak) / 1024
}

// procWindow measures process-level resource use between start and stop.
type procWindow struct {
	t0   time.Time
	cpu0 float64
	mem0 runtime.MemStats
}

func startProcWindow() *procWindow {
	w := &procWindow{t0: time.Now(), cpu0: cpuSeconds()}
	runtime.ReadMemStats(&w.mem0)
	return w
}

type procUse struct {
	cpuShare float64 // CPU seconds ÷ (wall seconds × nproc)
	allocMB  float64
	allocs   float64
}

func (w *procWindow) stop() procUse {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	wall := time.Since(w.t0).Seconds()
	return procUse{
		cpuShare: (cpuSeconds() - w.cpu0) / (wall * float64(runtime.NumCPU())),
		allocMB:  float64(m.TotalAlloc-w.mem0.TotalAlloc) / (1 << 20),
		allocs:   float64(m.Mallocs - w.mem0.Mallocs),
	}
}
