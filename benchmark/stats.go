package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-th quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// medianOf times fn reps times after one untimed warm-up call and returns
// the median duration in seconds.
func medianOf(reps int, fn func()) float64 {
	fn()
	ds := make([]float64, reps)
	for i := range ds {
		t := time.Now()
		fn()
		ds[i] = time.Since(t).Seconds()
	}
	return median(ds)
}

// passStat is what one timed pass measured: the pass's wall time (batch
// workloads: the sum of its operations' times, the checks between them
// excluded; serve_mix: the segment's wall time) and the time of every
// verified operation by program.
type passStat struct {
	traced   bool
	wall     float64 // seconds
	byProg   map[string][]float64
	verified int
}

// times returns the pass's operation times of the named programs, or of
// every program when none is named.
func (ps *passStat) times(names ...string) []float64 {
	var ts []float64
	if len(names) == 0 {
		for _, t := range ps.byProg {
			ts = append(ts, t...)
		}
	}
	for _, name := range names {
		ts = append(ts, ps.byProg[name]...)
	}
	return ts
}

// fastQuantile is the quantile of a batch_mix program's times over the
// passes that the gated metrics take as the program's time: the 10th
// percentile, with ten passes all but the second fastest. Other tenants of
// the reference host slow a pass by up to a half for seconds to minutes at
// a time, so a run's median says how busy they were and the fast end what
// the program does when they are quiet: between ten runs of the same code
// the low end spread a half to a third of what the median did in three sets
// of five, the same in one and more in one (README.md, Noise). The second
// fastest rather than the fastest so that no single odd pass sets it. The
// medians and the pooled tail are reported too, as ops.median_ms and
// ops.tail_ms, without a bound.
const fastQuantile = 0.10

// timeQuantile is the q-th quantile over all passes' operations of the
// named programs.
func timeQuantile(passes []passStat, q float64, names ...string) float64 {
	var ts []float64
	for i := range passes {
		ts = append(ts, passes[i].times(names...)...)
	}
	return quantile(ts, q)
}

func split(passes []passStat) (untraced, traced []passStat) {
	for _, ps := range passes {
		if ps.traced {
			traced = append(traced, ps)
		} else {
			untraced = append(untraced, ps)
		}
	}
	return untraced, traced
}

func walls(passes []passStat) []float64 {
	ws := make([]float64, len(passes))
	for i := range passes {
		ws[i] = passes[i].wall
	}
	return ws
}

// pooled returns the latency of every timed operation of the passes.
func pooled(passes []passStat) []float64 {
	var ts []float64
	for i := range passes {
		ts = append(ts, passes[i].times()...)
	}
	return ts
}

// runMetrics sets the end-to-end metrics every workload derives the same
// way: the median set-up, the time of a pass and the heap high-water mark.
func runMetrics(e values, setups []float64, runSec float64, passes int) {
	e.set("setup_s", median(setups), len(setups))
	e.set("run_s", runSec, passes)
	e.set("peak_heap_mb", heapSysMiB(), 1)
}

// sliceMetrics sets the ops.* per-layer metrics the workloads derive the
// same way: the geomean of the times of the rows with each tag and the
// verified operations per second of pass time.
func sliceMetrics(l values, rows []programRow, passes []passStat) {
	byTag := map[string][]float64{}
	for _, row := range rows {
		byTag[row.tag] = append(byTag[row.tag], row.ms)
	}
	for _, tag := range []string{"dense", "sparse", "compressed"} {
		l.set("ops."+tag+"_ms", geomean(byTag[tag]), len(byTag[tag]))
	}
	var wall float64
	ops := 0
	for i := range passes {
		wall += passes[i].wall
		ops += passes[i].verified
	}
	l.set("ops.per_s", float64(ops)/wall, ops)
}

// traceOverhead sets obs.trace_overhead_frac: the median traced pass
// against the median untraced one (the two kinds alternate).
func traceOverhead(l values, untraced, traced []passStat) {
	un, tr := median(walls(untraced)), median(walls(traced))
	l.set("obs.trace_overhead_frac", (tr-un)/un, len(untraced)+len(traced))
}
