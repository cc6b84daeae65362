package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// ratio is a/b, or 0 when b is 0 (the layer saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// procSample is the process's resource counters at one instant.
type procSample struct {
	cpu     time.Duration // user + system CPU
	mallocs uint64
	gcCPU   float64 // cumulative GC CPU seconds
	allCPU  float64 // cumulative CPU seconds the runtime accounts
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := append([]metrics.Sample(nil), cpuMetrics...)
	metrics.Read(s)
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: m.Mallocs,
		gcCPU:   s[0].Value.Float64(),
		allCPU:  s[1].Value.Float64(),
	}
}

// heapLiveMB forces a collection and reports the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
