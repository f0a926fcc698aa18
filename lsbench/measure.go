package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

const allocMetric = "/gc/heap/allocs:bytes"

// meter brackets a timed region: wall time and process CPU (user+sys
// from getrusage).
type meter struct {
	t0   time.Time
	cpu0 time.Duration
	wall time.Duration
	cpu  time.Duration
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: allocMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (m *meter) start() {
	m.cpu0 = processCPU()
	m.t0 = time.Now()
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU is the CPU time of the calling thread. The caller keeps its
// goroutine on one thread (runtime.LockOSThread) between two readings.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// stop ends the region, adds it to the totals and returns its own wall
// and CPU time, less the benchmark's own checking work done inside it:
// exclWall of wall time and exclCPU of CPU time.
func (m *meter) stop(exclWall, exclCPU time.Duration) (wall, cpu time.Duration) {
	wall = time.Since(m.t0) - exclWall
	cpu = processCPU() - m.cpu0 - exclCPU
	m.wall += wall
	m.cpu += cpu
	return wall, cpu
}

// steadyAlloc returns the bytes allocated since the earliest sink's
// mark, less the checkers' own, and the wire packets they cover.
func steadyAlloc(sinks []*checkSink) (bytes uint64, wire int64) {
	end := allocBytes()
	mark := end
	var excl uint64
	for _, c := range sinks {
		mark = min(mark, c.markAlloc)
		excl += c.exclAlloc
		wire += c.markWire
	}
	return end - mark - min(end-mark, excl), wire
}

// meanOf is the plain mean, summed in slice order (stats.Mean's
// arithmetic, which loadshed.MeanErrors uses).
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// meanAccuracy averages per-query mean errors in name order, so the
// sum is the same whichever map it came from.
func meanAccuracy(per map[string]float64) float64 {
	names := make([]string, 0, len(per))
	for n := range per {
		names = append(names, n)
	}
	sort.Strings(names)
	vals := make([]float64, len(names))
	for i, n := range names {
		vals[i] = per[n]
	}
	return meanOf(vals)
}

// checkSpans returns every sink's checker spans.
func checkSpans(sinks []*checkSink) []span {
	var out []span
	for _, c := range sinks {
		out = append(out, c.checks...)
	}
	return out
}

// binLatencies pairs bin i's take from every source with its delivery
// to every sink (one pair per shard) and returns, per bin, the time
// from the first shard taking the batch to the last shard finishing
// with the record, less the time a checker ran inside that span.
func binLatencies(srcs []*timedSource, sinks []*checkSink) []float64 {
	n := len(sinks[0].ends)
	for _, s := range sinks {
		n = min(n, len(s.ends))
	}
	for _, s := range srcs {
		n = min(n, len(s.takes))
	}
	checks := checkSpans(sinks)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		first := srcs[0].takes[i].ret
		var last time.Time
		for k := range sinks {
			if t := srcs[k].takes[i].ret; t.Before(first) {
				first = t
			}
			if e := sinks[k].ends[i]; e.After(last) {
				last = e
			}
		}
		out = append(out, ms(last.Sub(first)-spanUnion(checks, first, last)))
	}
	return out
}
