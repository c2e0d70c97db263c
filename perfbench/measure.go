package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"fivegsim/internal/stats"
)

// tally accumulates one run's measurements and unit accounting.
type tally struct {
	attempted, failed int
	// wrong counts units whose output failed a property check (as opposed
	// to a unit that did not complete); any makes the run incorrect.
	wrong int
	// Per repetition: set-up seconds, and per round the timed span's wall
	// and CPU seconds and the live heap bytes after it.
	setup, wall, cpu, liveHeap []float64
	// Totals over every timed span.
	spanWall, allocBytes float64
	units                int
	// latency holds per-campaign seconds: one RunExperimentsContext call
	// per ladder seed for packet and field, POST to report for serve.
	latency []float64
}

// unit records one attempted unit: err is why it did not complete,
// problems why its output is wrong.
func (t *tally) unit(id string, err error, problems []string) {
	t.attempted++
	switch {
	case err != nil:
		t.failed++
		fmt.Fprintf(os.Stderr, "unit %s failed: %v\n", id, err)
	case len(problems) > 0:
		t.failed++
		t.wrong++
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "unit %s wrong: %s\n", id, p)
		}
	}
}

// endToEnd renders the tally as the end-to-end metrics.
func (t *tally) endToEnd() *output {
	return &output{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{
		"setup_s":                {median(t.setup), "s"},
		"wall_s":                 {median(t.wall), "s"},
		"cpu_s":                  {median(t.cpu), "s"},
		"units_per_s":            {float64(t.units) / t.spanWall, "1/s"},
		"alloc_mb_per_unit":      {t.allocBytes / float64(t.units) / 1e6, "MB"},
		"live_heap_mb":           {median(t.liveHeap) / 1e6, "MB"},
		"campaign_latency_p50_s": {median(t.latency), "s"},
	}}
}

// span measures one timed stretch of work.
type span struct {
	t0     time.Time
	cpu0   float64
	alloc0 float64
}

func startSpan() span {
	return span{t0: time.Now(), cpu0: cpuSeconds(), alloc0: readRuntime(allocBytes)[0]}
}

// end folds the span into t as one round that completed units units and
// returns its wall seconds.
func (s span) end(t *tally, units int) float64 {
	wall := time.Since(s.t0).Seconds()
	t.wall = append(t.wall, wall)
	t.cpu = append(t.cpu, cpuSeconds()-s.cpu0)
	t.spanWall += wall
	t.allocBytes += readRuntime(allocBytes)[0] - s.alloc0
	t.units += units
	return wall
}

// cpuSeconds is the process's user+system CPU time, GC included.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runtime/metrics names the benchmark reads.
const (
	allocBytes   = "/gc/heap/allocs:bytes"
	allocObjects = "/gc/heap/allocs:objects"
	gcCycles     = "/gc/cycles/total:gc-cycles"
	gcCPU        = "/cpu/classes/gc/total:cpu-seconds"
	liveBytes    = "/gc/heap/live:bytes"
)

// readRuntime reads runtime/metrics samples as float64s, in order.
func readRuntime(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		default:
			panic("runtime metric " + x.Name + " unsupported by this Go release")
		}
	}
	return out
}

// liveHeap forces a collection and returns the bytes it found live.
// Callers drop their own references to results first.
func liveHeap() float64 {
	runtime.GC()
	return readRuntime(liveBytes)[0]
}

// median of xs, NaN when empty so that print refuses the metric.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Median(xs)
}

// percentile returns the p-th percentile of xs when the sample supports
// it: the median always, a higher percentile only when at least ten
// samples lie beyond it — none under 40 samples, p90 from 100, p95 from
// 200. ok is false when the sample is too small.
func percentile(xs []float64, p int) (v float64, ok bool) {
	if len(xs) == 0 || (p != 50 && len(xs)*(100-p) < 1000) {
		return math.NaN(), false
	}
	return stats.Percentile(xs, float64(p)), true
}
