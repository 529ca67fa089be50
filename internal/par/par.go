// Package par provides small data-parallel helpers used by the matrix
// kernels and fused-operator skeletons. All helpers degrade gracefully to
// sequential execution for small inputs so that parallelization overhead
// never dominates.
//
// Parallel regions run on persistent worker pools (goroutines started
// lazily and kept alive for the process lifetime) instead of spawning fresh
// goroutines per call. Work is split into up to foldChunks chunks and
// participants claim chunks through an atomic counter, so skewed work —
// ragged sparse rows, uneven row-template iterations — load-balances
// dynamically: a worker that finishes its chunk early simply claims the
// next one.
//
// Reductions have one contract, Fold: the chunk boundaries are fixed by the
// item count and the grain alone, each chunk's partial is indexed by the
// chunk, and the partials merge in chunk order. Neither the worker cap nor
// which participant claimed which chunk therefore reaches a result: one
// plan gives the same bits on 1, 2, 4 or 8 workers.
//
// Parallelism is instance-scoped: a Pool owns its worker cap, its task
// channel and workers, and its utilization counters, so independent engines
// hosted in one process can be capped independently without sharing any
// mutable state. The package-level For and ForLimit delegate to the
// process-wide Default pool.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"sysml/internal/obs"
)

// DefaultGrain is the minimum number of work items per chunk. Work smaller
// than one grain runs on the calling goroutine.
const DefaultGrain = 1024

// foldChunks is the number of chunks a region of at least that many grains
// is cut into, whatever the worker cap: four chunks per participant at a cap
// of 2, which bounds the idle tail of skewed chunks at ~1/4 of a worker's
// share, and one each at a cap of 8.
const foldChunks = 8

// Pool is an independent parallel-execution domain: a worker cap, a
// persistent set of helper goroutines, and utilization counters. Pools are
// safe for concurrent use. A nil *Pool is valid and behaves as the Default
// pool, so zero-valued execution contexts need no special-casing.
//
// Pools have no Close: helper goroutines block on the task channel between
// regions and cost only a parked goroutine each, so they are kept for the
// process lifetime. This makes enqueue-after-shutdown races impossible.
type Pool struct {
	// maxWorkers caps the number of participants of a parallel region. It
	// is read on every For/Fold/Chunks call and written by
	// SetMaxWorkers (tests, concurrent engines), hence atomic.
	maxWorkers atomic.Int64

	// Workers block on the task channel between regions. The pool grows to
	// (max requested workers - 1) — the caller of a region is always
	// participant 0 — and never shrinks.
	mu      sync.Mutex
	tasks   chan *region
	workers int

	// Utilization counters: every For/Fold/ForLimit call is counted, along
	// with the pool workers it engaged (0 for calls that ran sequentially).
	statCalls      atomic.Int64
	statGoroutines atomic.Int64
	statSequential atomic.Int64
}

// Default is the process-wide pool backing the package-level helpers and
// any nil *Pool receiver.
var Default = NewPool(0)

// NewPool returns an independent worker pool capped at n participants per
// parallel region. n <= 0 means GOMAXPROCS. Worker goroutines are started
// lazily on first parallel dispatch.
func NewPool(n int) *Pool {
	p := &Pool{}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p.maxWorkers.Store(int64(n))
	return p
}

// orDefault resolves the nil receiver to the Default pool.
func (p *Pool) orDefault() *Pool {
	if p == nil {
		return Default
	}
	return p
}

// SetMaxWorkers overrides the pool's worker cap and returns the previous
// value. Passing n <= 0 resets to GOMAXPROCS. Raising the cap grows the
// persistent pool so that future regions can use the extra workers.
func (p *Pool) SetMaxWorkers(n int) int {
	p = p.orDefault()
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	old := p.maxWorkers.Swap(int64(n))
	p.ensureWorkers(n - 1)
	return int(old)
}

// MaxWorkers reports the pool's current worker cap.
func (p *Pool) MaxWorkers() int { return int(p.orDefault().maxWorkers.Load()) }

// SetMaxWorkers overrides the Default pool's worker cap and returns the
// previous value. Passing n <= 0 resets to GOMAXPROCS.
func SetMaxWorkers(n int) int { return Default.SetMaxWorkers(n) }

// MaxWorkers reports the Default pool's current worker cap.
func MaxWorkers() int { return Default.MaxWorkers() }

// Usage is a snapshot of a pool's parallel-for utilization counters.
type Usage struct {
	Calls      int64 // For, Fold and ForLimit invocations
	Goroutines int64 // pool workers engaged across all parallel calls
	Sequential int64 // calls that ran inline on the caller's goroutine
}

// Utilization returns engaged workers as a fraction of the maximum the
// worker cap would have allowed (1.0 = every call saturated the cap).
func (u Usage) Utilization(workers int) float64 {
	if u.Calls == 0 || workers <= 0 {
		return 0
	}
	return float64(u.Goroutines) / float64(u.Calls*int64(workers))
}

// Stats returns the pool's current utilization counters.
func (p *Pool) Stats() Usage {
	p = p.orDefault()
	return Usage{
		Calls:      p.statCalls.Load(),
		Goroutines: p.statGoroutines.Load(),
		Sequential: p.statSequential.Load(),
	}
}

// WriteMetrics writes the pool's par.* instruments into snap: its
// utilization counters and its worker cap.
func (p *Pool) WriteMetrics(snap obs.Snapshot) {
	u, workers := p.Stats(), p.MaxWorkers()
	snap.Counters["par.calls"] = u.Calls
	snap.Counters["par.goroutines"] = u.Goroutines
	snap.Counters["par.sequential"] = u.Sequential
	snap.Gauges["par.utilization"] = u.Utilization(workers)
	snap.Gauges["par.workers"] = float64(workers)
}

// ResetStats zeroes the pool's utilization counters.
func (p *Pool) ResetStats() {
	p = p.orDefault()
	p.statCalls.Store(0)
	p.statGoroutines.Store(0)
	p.statSequential.Store(0)
}

// Stats returns the Default pool's utilization counters.
func Stats() Usage { return Default.Stats() }

// ResetStats zeroes the Default pool's utilization counters.
func ResetStats() { Default.ResetStats() }

func (p *Pool) ensureWorkers(n int) {
	if n <= 0 {
		return
	}
	p.mu.Lock()
	if p.tasks == nil {
		// Buffered far beyond any realistic fan-out so that region dispatch
		// never blocks; dispatch falls back to inline execution if full.
		p.tasks = make(chan *region, 1024)
	}
	for p.workers < n {
		p.workers++
		go func(tasks chan *region) {
			for r := range tasks {
				r.help()
			}
		}(p.tasks)
	}
	p.mu.Unlock()
}

// region is one parallel-for invocation: participants claim chunk indexes
// from next until all nchunks are taken. The region is complete when all
// nchunks have been executed, not when every enqueued helper has shown up.
type region struct {
	fn      func(w, c, lo, hi int)
	n       int
	chunk   int
	nchunks int64
	next    atomic.Int64
	ids     atomic.Int64  // participant id allocator (caller is 0)
	ran     atomic.Int64  // chunks whose fn has returned
	done    chan struct{} // closed by whoever finishes the last chunk
	failed  atomic.Pointer[Panic]
}

// Panic is what a parallel region panics with on its caller's goroutine
// when fn panicked in one of its chunks: the first value any chunk panicked
// with and the stack of the goroutine that ran that chunk, which the
// caller's own stack does not show when a helper had claimed it.
type Panic struct {
	Value any
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("%v [panic in a chunk of a parallel region]\n%s", p.Value, p.Stack)
}

// call runs fn on one chunk. A panic is caught on whichever goroutine
// claimed the chunk (a pool worker has nobody above it to recover), the
// first one is kept, the chunks still unclaimed are skipped, and every
// chunk counts as run, so that the join completes and dispatch can raise
// the panic where the region was called.
func (r *region) call(w, c, lo, hi int) {
	if r.failed.Load() != nil {
		return
	}
	defer func() {
		if v := recover(); v != nil {
			p, nested := v.(*Panic) // an inner region's panic keeps its own stack
			if !nested {
				p = &Panic{Value: v, Stack: debug.Stack()}
			}
			r.failed.CompareAndSwap(nil, p)
		}
	}()
	r.fn(w, c, lo, hi)
}

// help is run by a pool worker: claim a participant id and drain chunks.
// At most (participants-1) help entries are enqueued per region, so ids
// stay within [1, participants). A helper that dequeues the region after
// its chunks are exhausted returns at once; nobody waits for it.
func (r *region) help() {
	r.run(int(r.ids.Add(1)))
}

func (r *region) run(w int) {
	for {
		c := r.next.Add(1) - 1
		if c >= r.nchunks {
			return
		}
		lo := int(c) * r.chunk
		hi := lo + r.chunk
		if hi > r.n {
			hi = r.n
		}
		r.call(w, int(c), lo, hi)
		if r.ran.Add(1) == r.nchunks {
			close(r.done)
		}
	}
}

// planFor computes the chunking of n items: the chunk size and count, at
// least one grain per chunk and at most chunks of them, and the participants,
// at most limit. The chunks depend on n, grain and chunks alone.
func planFor(n, grain, limit, chunks int) (workers, chunk, nchunks int) {
	if grain <= 0 {
		grain = DefaultGrain
	}
	nchunks = min((n+grain-1)/grain, chunks)
	chunk = (n + nchunks - 1) / nchunks
	nchunks = (n + chunk - 1) / chunk
	return max(min(limit, nchunks), 1), chunk, nchunks
}

// dispatch runs fn over the chunks of [0, n) on the worker pool, with the
// caller participating as worker 0. Enqueueing never blocks, and the caller
// waits for chunks, not for helpers: it drains every chunk nobody else has
// claimed and then waits only for chunks a helper is executing right now.
// A help entry still queued when the chunks run out (every worker busy in
// an outer region, say) is dropped by whoever dequeues it later. A claimed
// chunk always has a goroutine running it, so nested regions cannot wait on
// each other in a cycle. If fn panicked in a chunk, on whatever goroutine,
// dispatch panics with a *Panic once every chunk is accounted for: no
// helper still touches the caller's buffers while the caller unwinds.
func (p *Pool) dispatch(n int, workers, chunk, nchunks int, fn func(w, c, lo, hi int)) {
	p.ensureWorkers(workers - 1)
	r := &region{fn: fn, n: n, chunk: chunk, nchunks: int64(nchunks), done: make(chan struct{})}
	engaged := 1 // the caller
	for i := 1; i < workers; i++ {
		select {
		case p.tasks <- r:
			engaged++
		default: // queue full: the caller covers the work
		}
	}
	p.statGoroutines.Add(int64(engaged))
	r.run(0)
	<-r.done
	if p := r.failed.Load(); p != nil {
		panic(p)
	}
}

// For executes fn over half-open ranges that partition [0, n) into chunks
// of at least grain items, running chunks on the pool's persistent workers.
// fn must be safe for concurrent invocation on disjoint ranges.
func (p *Pool) For(n, grain int, fn func(lo, hi int)) {
	p = p.orDefault()
	p.ForLimit(n, grain, int(p.maxWorkers.Load()), fn)
}

// Fold is For for reductions: fn also gets the participant w running the
// chunk, in [0, workers), and the chunk's index c, in [0, chunks), where
// Chunks reports both counts. Chunk c is always the same range of [0, n)
// for a given n and grain, whichever participant claims it and whatever the
// worker cap; one participant runs the chunks in order. A reduction keeps
// one partial per c and merges the partials in order of c, so its result
// depends neither on scheduling nor on the cap; state indexed by w is for
// reuse across chunks only (registers, scratch), since a participant runs
// any number of chunks, in any order.
func (p *Pool) Fold(n, grain int, fn func(w, c, lo, hi int)) {
	p = p.orDefault()
	p.run(n, grain, int(p.maxWorkers.Load()), foldChunks, fn)
}

// Chunks reports the participants and chunks of Fold over n items with
// the given grain: the sizes of per-participant and per-chunk state. The
// chunk count depends on n and grain alone.
func (p *Pool) Chunks(n, grain int) (workers, chunks int) {
	p = p.orDefault()
	if n <= 0 {
		return 0, 0
	}
	workers, _, chunks = planFor(n, grain, int(p.maxWorkers.Load()), foldChunks)
	return workers, chunks
}

// ForLimit is For with an explicit participant cap: at most limit
// participants (including the caller) run fn, regardless of the pool's
// SetMaxWorkers cap. Unlike the pool cap it may exceed GOMAXPROCS: callers
// like the simulated distributed backend model external concurrency
// (executors), where oversubscribing cores is exactly the point. It is not
// a reduction, so it cuts as many chunks as it has participants when those
// are more than foldChunks: one simulated executor each.
func (p *Pool) ForLimit(n, grain, limit int, fn func(lo, hi int)) {
	p = p.orDefault()
	p.run(n, grain, limit, max(foldChunks, limit), func(_, _, lo, hi int) { fn(lo, hi) })
}

// run plans n items into at most chunks chunks for at most limit
// participants, counts the call, and runs it: on the pool, or, at one
// participant, chunk after chunk on the caller.
func (p *Pool) run(n, grain, limit, chunks int, fn func(w, c, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers, chunk, nchunks := planFor(n, grain, limit, chunks)
	p.statCalls.Add(1)
	if workers > 1 {
		p.dispatch(n, workers, chunk, nchunks, fn)
		return
	}
	p.statSequential.Add(1)
	for c := 0; c < nchunks; c++ {
		fn(0, c, c*chunk, min((c+1)*chunk, n))
	}
}

// For executes fn over chunked ranges of [0, n) on the Default pool.
func For(n, grain int, fn func(lo, hi int)) { Default.For(n, grain, fn) }

// ForLimit is For with an explicit participant cap, on the Default pool.
func ForLimit(n, grain, limit int, fn func(lo, hi int)) { Default.ForLimit(n, grain, limit, fn) }
