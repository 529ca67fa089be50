package par

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1024, 10000} {
		seen := make([]int32, n)
		For(n, 16, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForCoversRangeWithManyWorkers(t *testing.T) {
	old := SetMaxWorkers(8)
	defer SetMaxWorkers(old)
	n := 100_000
	seen := make([]int32, n)
	For(n, 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForSmallRunsSequential(t *testing.T) {
	calls := 0
	For(10, 100, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("expected single chunk, got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("expected 1 sequential call, got %d", calls)
	}
}

// TestForIndexedWorkerIndexes: the participant index Fold hands fn stays in
// [0, workers), the caller (participant 0) runs chunks, and the chunks cover
// the range.
func TestForIndexedWorkerIndexes(t *testing.T) {
	old := SetMaxWorkers(4)
	defer SetMaxWorkers(old)
	workers, chunks := Default.Chunks(1000, 10)
	if workers < 1 || chunks < workers {
		t.Fatalf("Chunks(1000,10) = %d,%d", workers, chunks)
	}
	var mu sync.Mutex
	used := map[int]int{}
	var total int64
	Default.Fold(1000, 10, func(w, _, lo, hi int) {
		if w < 0 || w >= workers {
			t.Errorf("worker index %d outside [0,%d)", w, workers)
		}
		mu.Lock()
		used[w]++
		mu.Unlock()
		atomic.AddInt64(&total, int64(hi-lo))
	})
	if total != 1000 {
		t.Fatalf("covered %d of 1000", total)
	}
	// Participant 0 (the caller) always runs chunks; a participant may run
	// several under dynamic chunk claiming.
	if used[0] == 0 {
		t.Fatal("caller (worker 0) claimed no chunks")
	}
}

// TestForIndexedAccumulation: state indexed by the participant w is never
// touched by two chunks at once, so a participant may accumulate into it
// across the chunks it runs.
func TestForIndexedAccumulation(t *testing.T) {
	old := SetMaxWorkers(8)
	defer SetMaxWorkers(old)
	n := 100_000
	workers, _ := Default.Chunks(n, 64)
	partials := make([]int64, workers)
	Default.Fold(n, 64, func(w, _, lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		partials[w] += s // accumulate, never assign
	})
	var got int64
	for _, p := range partials {
		got += p
	}
	want := int64(n) * int64(n-1) / 2
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// TestFoldContract: every chunk runs once, over the range its index
// fixes, c is in [0, chunks) and w in [0, workers), as Chunks reports them.
func TestFoldContract(t *testing.T) {
	for _, limit := range []int{1, 4, 8} {
		p := NewPool(limit)
		for _, n := range []int{1, 7, 1000, 100_000} {
			workers, chunks := p.Chunks(n, 10)
			if workers < 1 || workers > limit || chunks < workers {
				t.Fatalf("limit %d n %d: Chunks = %d, %d", limit, n, workers, chunks)
			}
			ranges := make([][2]int, chunks)
			runs := make([]atomic.Int32, chunks)
			p.Fold(n, 10, func(w, c, lo, hi int) {
				if w < 0 || w >= workers || c < 0 || c >= chunks {
					t.Errorf("limit %d n %d: w %d c %d outside [0,%d) x [0,%d)", limit, n, w, c, workers, chunks)
					return
				}
				runs[c].Add(1)
				ranges[c] = [2]int{lo, hi}
			})
			next := 0
			for c := range ranges {
				if runs[c].Load() != 1 {
					t.Fatalf("limit %d n %d: chunk %d ran %d times", limit, n, c, runs[c].Load())
				}
				if ranges[c][0] != next || ranges[c][1] <= next {
					t.Fatalf("limit %d n %d: chunk %d is %v after %d", limit, n, c, ranges[c], next)
				}
				next = ranges[c][1]
			}
			if next != n {
				t.Fatalf("limit %d n %d: chunks cover [0,%d)", limit, n, next)
			}
		}
	}
}

// TestSetMaxWorkers: the cap sets the participants and nothing else; every
// cap sees the same chunks of [0, n), one participant running them in
// order on the caller.
func TestSetMaxWorkers(t *testing.T) {
	old := SetMaxWorkers(1)
	defer SetMaxWorkers(old)
	if MaxWorkers() != 1 {
		t.Fatal("SetMaxWorkers(1) not applied")
	}
	for _, n := range []int{1, 7, 1000, 1_000_000} {
		var want [][2]int
		for _, limit := range []int{1, 2, 3, 4, 8, 16} {
			SetMaxWorkers(limit)
			workers, chunks := Default.Chunks(n, 10)
			if workers != min(limit, chunks) || chunks != min((n+9)/10, foldChunks) {
				t.Fatalf("cap %d n %d: Chunks = %d, %d", limit, n, workers, chunks)
			}
			got := make([][2]int, chunks)
			var order []int
			var mu sync.Mutex
			Default.Fold(n, 10, func(_, c, lo, hi int) {
				mu.Lock()
				got[c] = [2]int{lo, hi}
				order = append(order, c)
				mu.Unlock()
			})
			if want == nil {
				want = got
				for c := range order {
					if order[c] != c {
						t.Fatalf("n %d: one participant ran chunks in order %v", n, order)
					}
				}
			}
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("cap %d n %d: chunk %d is %v, %v at cap 1", limit, n, c, got[c], want[c])
				}
			}
		}
	}
	SetMaxWorkers(0) // reset to GOMAXPROCS
	if MaxWorkers() < 1 {
		t.Fatal("reset failed")
	}
}

// TestForLimitRunsOneParticipantPerExecutor: ForLimit over one item per
// simulated executor runs every item on a participant of its own, past
// foldChunks too.
func TestForLimitRunsOneParticipantPerExecutor(t *testing.T) {
	for _, execs := range []int{3, 6, 12} {
		var in, peak atomic.Int32
		release := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			NewPool(1).ForLimit(execs, 1, execs, func(lo, hi int) {
				if hi-lo != 1 {
					t.Errorf("executors %d: a participant got [%d,%d)", execs, lo, hi)
				}
				if n := in.Add(1); n == int32(execs) {
					close(release)
				}
				select {
				case <-release:
				case <-time.After(10 * time.Second):
				}
				peak.Store(max(peak.Load(), in.Load()))
			})
		}()
		<-done
		if peak.Load() != int32(execs) {
			t.Fatalf("executors %d: %d ran at once", execs, peak.Load())
		}
	}
}

// TestSetMaxWorkersConcurrent runs SetMaxWorkers concurrently with
// parallel-for regions; with -race this verifies the worker cap has no
// unsynchronized access (concurrent sessions adjust it at will).
func TestSetMaxWorkersConcurrent(t *testing.T) {
	old := MaxWorkers()
	defer SetMaxWorkers(old)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			SetMaxWorkers(1 + i%4)
		}
	}()
	for r := 0; r < 50; r++ {
		var total int64
		For(10_000, 16, func(lo, hi int) {
			atomic.AddInt64(&total, int64(hi-lo))
		})
		if total != 10_000 {
			t.Fatalf("run %d covered %d of 10000", r, total)
		}
	}
	close(stop)
	wg.Wait()
}

// TestNestedFor ensures nested parallel regions cannot deadlock the pool:
// inner regions fall back to inline execution when the pool is saturated.
func TestNestedFor(t *testing.T) {
	old := SetMaxWorkers(4)
	defer SetMaxWorkers(old)
	var total int64
	For(64, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(1000, 10, func(ilo, ihi int) {
				atomic.AddInt64(&total, int64(ihi-ilo))
			})
		}
	})
	if total != 64*1000 {
		t.Fatalf("covered %d of %d", total, 64*1000)
	}
}

// TestNestedDepth3 nests three regions with more outer participants than
// pool workers (the dist backend's executors over matmult over a kernel's
// own loop), at several GOMAXPROCS. Every worker is then inside an outer
// chunk while inner help entries sit in the queue: the join must not wait
// for those entries to be dequeued.
func TestNestedDepth3(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		p := NewPool(procs)
		const outer, mid, inner = 12, 64, 512
		var total atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			for rep := 0; rep < 20; rep++ {
				p.ForLimit(outer, 1, 6, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						p.For(mid, 8, func(mlo, mhi int) {
							for j := mlo; j < mhi; j++ {
								p.For(inner, 16, func(ilo, ihi int) {
									total.Add(int64(ihi - ilo))
								})
							}
						})
					}
				})
			}
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("GOMAXPROCS=%d: nested regions did not finish (covered %d)", procs, total.Load())
		}
		if want := int64(20 * outer * mid * inner); total.Load() != want {
			t.Fatalf("GOMAXPROCS=%d: covered %d of %d", procs, total.Load(), want)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	ResetStats()
	For(10, 100, func(lo, hi int) {}) // sequential
	u := Stats()
	if u.Calls != 1 || u.Sequential != 1 {
		t.Fatalf("sequential call not counted: %+v", u)
	}
	old := SetMaxWorkers(4)
	defer SetMaxWorkers(old)
	ResetStats()
	For(100_000, 16, func(lo, hi int) {})
	u = Stats()
	if u.Calls != 1 {
		t.Fatalf("calls = %d", u.Calls)
	}
	if u.Goroutines < 1 {
		t.Fatalf("no workers engaged: %+v", u)
	}
}

// goid is the id of the calling goroutine, read off its stack header: the
// only way a chunk passed to For can tell whether the region's caller or a
// pool worker is running it.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// recovered runs f and returns what it panicked with.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// panicOffCaller is a chunk body that panics on every goroutine but the
// region's caller, whose own chunks wait until a helper has claimed one: the
// panic is then certain to happen where nobody but the region can recover it.
func panicOffCaller(caller string) func(lo, hi int) {
	helperIn := make(chan struct{})
	var once sync.Once
	return func(lo, hi int) {
		if goid() != caller {
			once.Do(func() { close(helperIn) })
			panic(fmt.Sprintf("boom in [%d,%d)", lo, hi))
		}
		select {
		case <-helperIn:
		case <-time.After(10 * time.Second): // fail below rather than hang
		}
	}
}

// TestPanicInHelperChunkReachesCaller: a panic in a chunk that a pool worker
// claimed comes out of For/Fold/ForLimit on the caller's
// goroutine, with the worker's stack, and the pool runs the next region.
func TestPanicInHelperChunkReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	regions := map[string]func(p *Pool, fn func(lo, hi int)){
		"For":      func(p *Pool, fn func(lo, hi int)) { p.For(4096, 16, fn) },
		"Fold":     func(p *Pool, fn func(lo, hi int)) { p.Fold(4096, 16, func(_, _, lo, hi int) { fn(lo, hi) }) },
		"ForLimit": func(p *Pool, fn func(lo, hi int)) { p.ForLimit(4096, 16, 6, fn) },
	}
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for name, region := range regions {
			p := NewPool(4)
			v := recovered(func() { region(p, panicOffCaller(goid())) })
			pp, ok := v.(*Panic)
			if !ok {
				t.Fatalf("GOMAXPROCS=%d %s: recovered %T %v, want *Panic", procs, name, v, v)
			}
			if s, _ := pp.Value.(string); !strings.HasPrefix(s, "boom in [") {
				t.Errorf("GOMAXPROCS=%d %s: value %v", procs, name, pp.Value)
			}
			if !strings.Contains(string(pp.Stack), "(*region).help") || !strings.Contains(string(pp.Stack), "panicOffCaller") {
				t.Errorf("GOMAXPROCS=%d %s: not the helper's stack:\n%s", procs, name, pp.Stack)
			}
			var total atomic.Int64
			p.For(100_000, 16, func(lo, hi int) { total.Add(int64(hi - lo)) })
			if total.Load() != 100_000 {
				t.Fatalf("GOMAXPROCS=%d %s: region after the panic covered %d of 100000", procs, name, total.Load())
			}
		}
	}
}

// TestPanicNestedDepth2: two outer chunks, one of them on a helper, each
// run an inner region that panics on an inner helper (the pool's two other
// workers are free to be one); the outer caller sees one of those panics,
// not wrapped twice, with the inner helper's stack.
func TestPanicNestedDepth2(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		p := NewPool(4)
		var inner atomic.Int64
		v := recovered(func() {
			p.ForLimit(2, 1, 2, func(lo, hi int) {
				inner.Add(1)
				p.For(4096, 16, panicOffCaller(goid()))
			})
		})
		pp, ok := v.(*Panic)
		if !ok || !strings.Contains(string(pp.Stack), "panicOffCaller") {
			t.Fatalf("GOMAXPROCS=%d: recovered %T %v", procs, v, v)
		}
		if _, wrapped := pp.Value.(*Panic); wrapped {
			t.Errorf("GOMAXPROCS=%d: the inner panic was wrapped again", procs)
		}
		if inner.Load() == 0 || inner.Load() > 2 {
			t.Errorf("GOMAXPROCS=%d: %d outer chunks ran", procs, inner.Load())
		}
		var total atomic.Int64
		p.For(100_000, 16, func(lo, hi int) { total.Add(int64(hi - lo)) })
		if total.Load() != 100_000 {
			t.Fatalf("GOMAXPROCS=%d: region after the panic covered %d of 100000", procs, total.Load())
		}
	}
}

// TestPanicOnCallerChunk: a chunk the caller ran itself fails the region the
// same way, after the helpers' chunks are accounted for; a region too small
// to be dispatched panics with the bare value, as any call would.
func TestPanicOnCallerChunk(t *testing.T) {
	p := NewPool(4)
	caller := goid()
	callerIn := make(chan struct{})
	v := recovered(func() {
		p.For(4096, 16, func(lo, hi int) {
			if goid() == caller {
				close(callerIn)
				panic("caller chunk")
			}
			<-callerIn // hold the helpers' chunks so that some are left for the caller
		})
	})
	if pp, ok := v.(*Panic); !ok || pp.Value != "caller chunk" {
		t.Fatalf("recovered %T %v, want *Panic{caller chunk}", v, v)
	}
	if v := recovered(func() { p.For(8, 16, func(lo, hi int) { panic("inline") }) }); v != "inline" {
		t.Fatalf("sequential region: recovered %T %v", v, v)
	}
}
