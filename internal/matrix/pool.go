package matrix

import (
	"sync"
	"sync/atomic"

	"sysml/internal/obs"
)

// A BufPool is a size-keyed free list of float64 backing slices. NewDense
// draws from it and the runtime executor returns dead intermediates'
// storage to it (lineage-aware reuse: iterative workloads allocate the
// same handful of shapes over and over, so exact-size reuse hits almost
// always after the first iteration). Scratch buffers of the parallel
// kernels (TSMM partial triangles, sparse accumulators, row densification
// scratch) cycle through the same pool.
//
// Unlike sync.Pool the free list is deterministic — nothing is dropped on
// GC — so allocation-reduction benchmarks and tests are stable; retention
// is instead bounded by poolMaxPerSize slices per size and the pool's byte
// cap.
//
// Allocation is instance-scoped: each engine owns a BufPool with its own
// byte budget and live-bytes gauge, so co-hosted engines neither share
// free lists nor see each other's memory pressure. A nil *BufPool is valid
// and behaves as the process-wide DefaultPool. Pools are safe for
// concurrent use.
const (
	// poolMinFloats: slices smaller than this are cheaper to allocate than
	// to recycle (they also tend to be long-lived scalars and tiny vectors).
	poolMinFloats = 64

	// poolMaxPerSize bounds the free slices retained per exact size.
	poolMaxPerSize = 8

	// DefaultPoolCapBytes bounds the total bytes parked in a pool by
	// default; surplus returned buffers are dropped for the GC to take.
	DefaultPoolCapBytes = 512 << 20
)

// BufPool is an independent buffer-recycling domain; see the package
// comment above. Construct with NewBufPool.
type BufPool struct {
	mu       sync.Mutex
	free     map[int][][]float64
	bytes    int64 // bytes currently parked
	capBytes int64 // retention bound for parked bytes
	enabled  atomic.Bool

	// live tracks pool-eligible bytes handed out and not yet returned —
	// the engine's admission-control gauge. Buffers that never come back
	// (user-held results) pin the gauge high until their matrices are
	// released, which is exactly the pressure signal serving wants.
	live atomic.Int64

	gets, hits, puts, discards atomic.Int64
	bytesRecycled              atomic.Int64 // bytes served from the free list
}

// DefaultPool is the process-wide buffer pool backing any nil *BufPool
// receiver and matrices allocated outside an engine.
var DefaultPool = NewBufPool(DefaultPoolCapBytes)

// NewBufPool returns an enabled pool retaining at most capBytes of parked
// buffers (capBytes <= 0 means DefaultPoolCapBytes).
func NewBufPool(capBytes int64) *BufPool {
	if capBytes <= 0 {
		capBytes = DefaultPoolCapBytes
	}
	p := &BufPool{free: map[int][][]float64{}, capBytes: capBytes}
	p.enabled.Store(true)
	return p
}

func (p *BufPool) orDefault() *BufPool {
	if p == nil {
		return DefaultPool
	}
	return p
}

// Enabled reports whether allocations draw from the pool.
func (p *BufPool) Enabled() bool { return p.orDefault().enabled.Load() }

// SetEnabled toggles the pool (benchmarking and debugging) and returns the
// previous setting. Disabling also drops all parked buffers.
func (p *BufPool) SetEnabled(on bool) bool {
	p = p.orDefault()
	old := p.enabled.Swap(on)
	if !on {
		p.mu.Lock()
		p.free = map[int][][]float64{}
		p.bytes = 0
		p.mu.Unlock()
	}
	return old
}

// Get returns a zeroed slice of exactly n float64s, recycled from the free
// list when a same-sized buffer is parked there.
func (p *BufPool) Get(n int) []float64 {
	p = p.orDefault()
	if n < poolMinFloats || !p.enabled.Load() {
		return make([]float64, n)
	}
	p.gets.Add(1)
	p.live.Add(int64(n) * 8)
	p.mu.Lock()
	list := p.free[n]
	if len(list) == 0 {
		p.mu.Unlock()
		return make([]float64, n)
	}
	s := list[len(list)-1]
	p.free[n] = list[:len(list)-1]
	p.bytes -= int64(n) * 8
	p.mu.Unlock()
	p.hits.Add(1)
	p.bytesRecycled.Add(int64(n) * 8)
	for i := range s {
		s[i] = 0
	}
	return s
}

// GetUninit is Get without the zeroing pass: recycled buffers keep their
// previous contents. Only for callers that overwrite every element before
// any read — for large outputs the elided zeroing is a full extra write
// pass over the buffer.
func (p *BufPool) GetUninit(n int) []float64 {
	p = p.orDefault()
	if n < poolMinFloats || !p.enabled.Load() {
		return make([]float64, n)
	}
	p.gets.Add(1)
	p.live.Add(int64(n) * 8)
	p.mu.Lock()
	list := p.free[n]
	if len(list) == 0 {
		p.mu.Unlock()
		return make([]float64, n)
	}
	s := list[len(list)-1]
	p.free[n] = list[:len(list)-1]
	p.bytes -= int64(n) * 8
	p.mu.Unlock()
	p.hits.Add(1)
	p.bytesRecycled.Add(int64(n) * 8)
	return s
}

// Put parks a slice for reuse. The buffer may be dirty (Get zeroes on the
// way out); the caller must not use it afterwards.
func (p *BufPool) Put(s []float64) {
	p = p.orDefault()
	n := len(s)
	if n < poolMinFloats || !p.enabled.Load() {
		return
	}
	p.puts.Add(1)
	p.live.Add(-int64(n) * 8)
	p.mu.Lock()
	if len(p.free[n]) >= poolMaxPerSize || p.bytes+int64(n)*8 > p.capBytes {
		p.mu.Unlock()
		p.discards.Add(1)
		return
	}
	p.free[n] = append(p.free[n], s)
	p.bytes += int64(n) * 8
	p.mu.Unlock()
}

// LiveBytes reports pool-eligible bytes handed out and not yet returned —
// a gauge of outstanding matrix memory drawn through this pool. It can go
// momentarily negative when buffers allocated while the pool was disabled
// are later returned; callers should clamp at zero.
func (p *BufPool) LiveBytes() int64 { return p.orDefault().live.Load() }

// NewDense returns an all-zero dense rows×cols matrix whose storage is
// drawn from this pool; Release returns the storage here.
func (p *BufPool) NewDense(rows, cols int) *Matrix {
	p = p.orDefault()
	checkDims(rows, cols)
	return &Matrix{Rows: rows, Cols: cols, dense: p.Get(rows * cols), pool: p}
}

// NewDenseUninit is NewDense without the zeroing pass: cell values of a
// recycled buffer are arbitrary. Only for producers that overwrite every
// cell before the matrix escapes (full-write skeleton outputs).
func (p *BufPool) NewDenseUninit(rows, cols int) *Matrix {
	p = p.orDefault()
	checkDims(rows, cols)
	return &Matrix{Rows: rows, Cols: cols, dense: p.GetUninit(rows * cols), pool: p}
}

// PoolUsage is a snapshot of a buffer pool's counters.
type PoolUsage struct {
	Gets          int64 // pool-eligible allocation requests
	Hits          int64 // requests served from the free list
	Misses        int64 // requests that fell through to make()
	Puts          int64 // buffers returned to the pool
	Discards      int64 // returned buffers dropped (per-size or byte cap)
	BytesRecycled int64 // bytes served from the free list
	BytesParked   int64 // bytes currently held by the free list
	BytesLive     int64 // pool-eligible bytes handed out, not yet returned
}

// Stats returns the pool's current counters.
func (p *BufPool) Stats() PoolUsage {
	p = p.orDefault()
	gets := p.gets.Load()
	hits := p.hits.Load()
	p.mu.Lock()
	parked := p.bytes
	p.mu.Unlock()
	return PoolUsage{
		Gets:          gets,
		Hits:          hits,
		Misses:        gets - hits,
		Puts:          p.puts.Load(),
		Discards:      p.discards.Load(),
		BytesRecycled: p.bytesRecycled.Load(),
		BytesParked:   parked,
		BytesLive:     p.live.Load(),
	}
}

// WriteMetrics writes the pool's pool.* instruments into snap: the one
// place they are named, for every surface that reports them.
func (p *BufPool) WriteMetrics(snap obs.Snapshot) {
	u := p.Stats()
	snap.Counters["pool.gets"] = u.Gets
	snap.Counters["pool.hits"] = u.Hits
	snap.Counters["pool.misses"] = u.Misses
	snap.Counters["pool.puts"] = u.Puts
	snap.Counters["pool.discards"] = u.Discards
	snap.Counters["pool.bytes.recycled"] = u.BytesRecycled
	snap.Gauges["pool.hitrate"] = 0
	if u.Gets > 0 {
		snap.Gauges["pool.hitrate"] = float64(u.Hits) / float64(u.Gets)
	}
	snap.Gauges["pool.bytes.parked"] = float64(u.BytesParked)
	snap.Gauges["pool.bytes.live"] = float64(u.BytesLive)
}

// SetPoolEnabled toggles the DefaultPool and returns the previous setting.
func SetPoolEnabled(on bool) bool { return DefaultPool.SetEnabled(on) }

// PoolStats returns the DefaultPool's counters.
func PoolStats() PoolUsage { return DefaultPool.Stats() }

// Release returns the matrix's backing storage to the buffer pool it was
// drawn from and clears the matrix; the caller asserts nothing references
// the matrix (or its storage) anymore. Only dense storage allocated by
// NewDense (or BufPool.NewDense) is recycled — wrapped user slices
// (NewDenseData) and CSR storage are simply dropped. Safe to call on an
// already released matrix.
func (m *Matrix) Release() {
	if m.pool != nil && m.dense != nil {
		m.pool.Put(m.dense)
	}
	m.dense, m.sparse, m.pool = nil, nil, nil
	m.compressed.Store(nil)
}
