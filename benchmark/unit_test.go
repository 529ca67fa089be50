package main

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sysml/internal/dml"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean = %v, want 10", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "bench.pass", Start: 0, End: msec(100)},
		{ID: 2, Parent: 1, Name: "serve.post a", Start: msec(10), End: msec(50)},
		{ID: 3, Parent: 1, Name: "serve.post b", Start: msec(30), End: msec(70)}, // overlaps span 2
		{ID: 4, Parent: 2, Name: "dml.Parse", Start: msec(10), End: msec(20)},
		{ID: 5, Parent: 1, Name: "runtime.ExecuteDAG", Start: msec(90), End: -1}, // never ended
	}
	self := selfTimes(spans)
	if got := self["bench"]; got != msec(40) { // 100 - [10,70]
		t.Errorf("bench self time = %v, want 40ms", got)
	}
	if got := self["serve"]; got != msec(70) { // (40-10) + 40
		t.Errorf("serve self time = %v, want 70ms", got)
	}
	if got := self["dml"]; got != msec(10) {
		t.Errorf("dml self time = %v, want 10ms", got)
	}
	if _, ok := self["runtime"]; ok {
		t.Error("an unfinished span was counted")
	}
}

func TestTracerRecordsOnlyWhileOn(t *testing.T) {
	tr := newTracer()
	if id := tr.begin(0, 1, 0, "dml.Parse"); id != 0 {
		t.Errorf("a span was recorded while tracing was off")
	}
	tr.enable(true)
	id := tr.begin(0, 1, 0, "dml.Parse")
	tr.end(id)
	if n := len(tr.snapshot()); n != 1 {
		t.Errorf("%d spans, want 1", n)
	}
	var none *tracer
	none.end(none.begin(0, 0, 0, "x")) // a nil tracer is usable
}

func TestWatchdogFiresOnlyPastTheDeadline(t *testing.T) {
	var fired atomic.Int32
	name := make(chan string, 1)
	wd := newWatchdog(2, func(n string, _ time.Duration) {
		fired.Add(1)
		name <- n
	})
	wd.arm(0, "quick", time.Hour)
	wd.disarm(0)
	wd.arm(1, "hung", 10*time.Millisecond)
	select {
	case n := <-name:
		if n != "hung" {
			t.Errorf("watchdog fired for %q", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not fire")
	}
	wd.close()
	if fired.Load() != 1 {
		t.Errorf("watchdog fired %d times", fired.Load())
	}
	if opLimit(time.Millisecond) != wdFloor || opLimit(time.Second) != 20*time.Second {
		t.Error("opLimit is not max(10s, 20x warm-up)")
	}
}

// A hung operation is a failed operation: the run prints what it has,
// with correct=false, and exits non-zero.
func TestHungOperationFailsTheRun(t *testing.T) {
	r := &run{cfg: config{workload: "batch_mix"}, endToEnd: values{}, perLayer: values{}}
	var out bytes.Buffer
	code := make(chan int, 1)
	r.wd = newWatchdog(1, func(name string, limit time.Duration) {
		r.expire(name, limit, &out, func(c int) { code <- c })
	})
	defer r.wd.close()
	release := make(chan struct{})
	defer close(release)
	hangs := &program{name: "hangs", exec: func() (*dml.Session, error) {
		<-release
		return nil, errors.New("released")
	}}
	go r.runOp(hangs, 0, 20*time.Millisecond, true, 1, nil)
	select {
	case c := <-code:
		if c == 0 {
			t.Error("exit code 0 after a hang")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the hang was not detected")
	}
	if r.failed != 1 || r.attempted != 1 {
		t.Errorf("attempted %d, failed %d; want 1, 1", r.attempted, r.failed)
	}
	text := out.String()
	if !strings.Contains(text, "WATCHDOG: hangs") || !strings.Contains(text, `"correct":false`) {
		t.Errorf("output does not report the hang:\n%s", text)
	}
}

// A batch_mix program's time is a low quantile of its times over the
// passes, so that a pass another tenant slowed does not move it; the median
// and the pooled tail still see such a pass.
func TestProgramTimesAndSlices(t *testing.T) {
	pass := func(a, b float64) passStat {
		return passStat{wall: a + b, verified: 2, byProg: map[string][]float64{"a": {a}, "b": {b}}}
	}
	passes := []passStat{pass(1, 2), pass(1, 2), pass(1, 10)}
	e := values{}
	runMetrics(e, []float64{3, 1, 2}, 3, len(passes))
	sliceMetrics(e, []programRow{{name: "a", tag: "dense", ms: 4}, {name: "b", tag: "dense", ms: 9}}, passes)
	want := map[string]float64{"setup_s": 2, "run_s": 3, "ops.per_s": 6.0 / 17, "ops.dense_ms": 6}
	for name, w := range want {
		if got := e[name].v; math.Abs(got-w) > 1e-9*w {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	// Sorted pooled latencies: 1 1 1 2 2 10.
	if got := quantile(pooled(passes), 0.99); math.Abs(got-9.6) > 1e-9 {
		t.Errorf("pooled 99th percentile = %v, want 9.6", got)
	}
	slowed := []passStat{pass(1, 2), pass(3, 2), pass(5, 2), pass(1.5, 2), pass(1.2, 2), pass(4, 2)}
	if got := timeQuantile(slowed, 0.5, "a"); got != 2.25 {
		t.Errorf("a's median = %v, want 2.25", got)
	}
	if got := timeQuantile(slowed, fastQuantile, "a"); math.Abs(got-1.1) > 1e-9 {
		t.Errorf("a's time = %v, want 1.1, halfway between its two fastest passes", got)
	}
}
