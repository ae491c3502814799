package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// probe is a reading of the process counters the end-to-end metrics are
// differences of.
type probe struct {
	wall       time.Time
	cpu        time.Duration // process user+sys CPU
	allocBytes uint64
	allocObjs  uint64
	gcCPU      float64 // seconds of CPU the runtime attributes to GC
	totalCPU   float64 // seconds of CPU the runtime accounts for in total
}

var probeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeProbe() probe {
	metrics.Read(probeSamples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return probe{
		wall:       time.Now(),
		cpu:        cpu,
		allocBytes: probeSamples[0].Value.Uint64(),
		allocObjs:  probeSamples[1].Value.Uint64(),
		gcCPU:      probeSamples[2].Value.Float64(),
		totalCPU:   probeSamples[3].Value.Float64(),
	}
}

// phase is the difference of two probes around a timed phase that
// completed ops operations.
type phase struct {
	ops        float64
	wall       time.Duration
	cpu        time.Duration
	allocBytes float64
	allocObjs  float64
	gcFrac     float64
}

func phaseBetween(a, b probe, ops int) phase {
	return phase{
		ops:        float64(ops),
		wall:       b.wall.Sub(a.wall),
		cpu:        b.cpu - a.cpu,
		allocBytes: float64(b.allocBytes - a.allocBytes),
		allocObjs:  float64(b.allocObjs - a.allocObjs),
		gcFrac:     ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
	}
}

// liveHeap forces a collection and returns the bytes still live. The
// second collection empties the sync.Pool victim caches, whose content
// depends on timing rather than on what the program holds.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// roundFigures are one round's contributions to the end-to-end metrics.
type roundFigures struct {
	setup time.Duration
	timed phase
	heap  float64
}

// endToEnd collects rounds and reports the median of each end-to-end
// metric over every round but the warm-up.
type endToEnd struct {
	rounds []roundFigures
}

func (e *endToEnd) add(f roundFigures) { e.rounds = append(e.rounds, f) }

// measured drops the warm-up round.
func (e *endToEnd) measured() []roundFigures {
	if len(e.rounds) > 1 {
		return e.rounds[1:]
	}
	return e.rounds
}

func (e *endToEnd) medianOf(f func(r roundFigures) float64) float64 {
	rs := e.measured()
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// fill sets the end-to-end metrics every workload reports.
func (e *endToEnd) fill(rep *report) {
	rep.set("setup_s", "s", e.medianOf(func(r roundFigures) float64 { return r.setup.Seconds() }))
	rep.set("ops_per_s", "1/s", e.opsPerSecond())
	rep.set("cpu_us_per_op", "us", e.medianOf(func(r roundFigures) float64 {
		return float64(r.timed.cpu) / 1e3 / r.timed.ops
	}))
	rep.set("alloc_bytes_per_op", "B", e.medianOf(func(r roundFigures) float64 { return r.timed.allocBytes / r.timed.ops }))
	rep.set("heap_bytes", "B", e.medianOf(func(r roundFigures) float64 { return r.heap }))
	rate := make([]string, 0, len(e.rounds))
	for _, r := range e.rounds {
		rate = append(rate, fmt.Sprintf("%.0f", r.timed.ops/r.timed.wall.Seconds()))
	}
	rep.notes = append(rep.notes, fmt.Sprintf("rounds: %d (first is warm-up), ops/s per round: %s",
		len(e.rounds), strings.Join(rate, " ")))
}

// fillRuntime sets the runtime layer's per-layer metrics.
func (e *endToEnd) fillRuntime(rep *report) {
	rep.set("runtime.allocs_per_op", "count", e.medianOf(func(r roundFigures) float64 { return r.timed.allocObjs / r.timed.ops }))
	rep.set("runtime.gc_cpu_fraction", "ratio", e.medianOf(func(r roundFigures) float64 { return r.timed.gcFrac }))
}

// opsPerSecond is the median throughput of the measured rounds.
func (e *endToEnd) opsPerSecond() float64 {
	return e.medianOf(func(r roundFigures) float64 { return r.timed.ops / r.timed.wall.Seconds() })
}
