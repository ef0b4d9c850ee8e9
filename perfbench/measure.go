package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// meter is a snapshot of the process counters the benchmark differences
// around a timed part: wall clock, user+sys CPU, heap allocation counts and
// the runtime's GC accounting.
type meter struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
	gcCPU   float64
	allCPU  float64
}

// cost is the difference of two meters.
type cost struct {
	wall, cpu      float64 // seconds
	mallocs, bytes uint64
	gcs            uint32
	pause          float64 // seconds of GC stop-the-world pauses
	gcCPU, allCPU  float64 // runtime-estimated CPU seconds: GC and total
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	m := meter{
		cpu:     processCPU(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		pauseNs: ms.PauseTotalNs,
		gcCPU:   cpuSamples[0].Value.Float64(),
		allCPU:  cpuSamples[1].Value.Float64(),
	}
	// Read the wall clock last on the way in: the timed part starts after
	// the snapshot's own stop-the-world.
	m.wall = time.Now()
	return m
}

func (a meter) to(b meter) cost {
	return cost{
		wall:    b.wall.Sub(a.wall).Seconds(),
		cpu:     (b.cpu - a.cpu).Seconds(),
		mallocs: b.mallocs - a.mallocs,
		bytes:   b.bytes - a.bytes,
		gcs:     b.gcs - a.gcs,
		pause:   float64(b.pauseNs-a.pauseNs) / 1e9,
		gcCPU:   b.gcCPU - a.gcCPU,
		allCPU:  b.allCPU - a.allCPU,
	}
}

// finish returns the cost since a, reading the wall clock first so the
// snapshot's stop-the-world is not charged to the timed part.
func (a meter) finish() cost {
	end := time.Now()
	m := readMeter()
	m.wall = end
	return a.to(m)
}

// processCPU is the process's user+sys CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set in MB (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// minTail is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it.
const minTail = 10

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank p-quantile (0 < p < 1) of xs,
// lowered when needed to the highest rank that still leaves minTail
// samples above it; ok reports whether p itself could be honoured. With
// too few samples for any rank to qualify it returns the median.
func tailPercentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := sorted(xs)
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if n-1-k >= minTail {
		return s[k], true
	}
	if hi := n - 1 - minTail; hi >= 0 && hi >= (n-1)/2 {
		return s[hi], false
	}
	return median(xs), false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
