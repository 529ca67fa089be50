package codegen

import (
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"sysml/internal/cplan"
	"sysml/internal/hop"
	"sysml/internal/obs"
)

// A PlanCache caches compiled fused operators keyed by CPlan hash, avoiding
// redundant code generation and compilation across DAGs and during dynamic
// recompilation (§2.1).
//
// Internally a PlanCache is a view over a shared cacheCore: the core owns
// the sharded operator store, the eviction policy and the compiled-class
// name sequence; each view carries its own hit/miss counters. A
// single-tenant session uses one view over its private core; a serving
// engine hands every tenant its own View() over one shared core, which
// gives tenants shared compiled plans but isolated accounting.
type PlanCache struct {
	core *cacheCore

	hits   atomic.Int64 // this view's lookups served from the core
	misses atomic.Int64 // this view's lookups that compiled
	invals atomic.Int64 // operators this view invalidated for re-optimization
}

// cacheShard is one lock domain of the store. Sharding by plan hash keeps
// concurrent tenants' lookups from serializing on a single mutex.
type cacheShard struct {
	mu    sync.Mutex
	ops   map[uint64]*cplan.Operator
	order []uint64 // insertion order for FIFO eviction when bounded
}

type cacheCore struct {
	enabled  bool
	shardMax int // per-shard entry bound (0 = unbounded)
	shards   []*cacheShard

	classSeq      atomic.Int64 // compiled-class name sequence (TMP%d)
	hits          atomic.Int64 // aggregated across all views
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

// NewPlanCache returns an unbounded single-shard plan cache; when disabled
// it compiles every request fresh (the Fig. 11 "without plan cache"
// configuration).
func NewPlanCache(enabled bool) *PlanCache {
	return NewPlanCacheSized(enabled, 0)
}

// NewPlanCacheSized returns a single-shard plan cache holding at most
// maxEntries compiled operators (0 = unbounded); when full, the oldest
// entry is evicted.
func NewPlanCacheSized(enabled bool, maxEntries int) *PlanCache {
	return NewSharedPlanCache(enabled, maxEntries, 1)
}

// NewSharedPlanCache returns a plan cache built for concurrent multi-tenant
// use: the store is split across shards lock domains (rounded up to at
// least 1) and bounded to maxEntries total (0 = unbounded, distributed
// evenly across shards). Tenants should each take a View for isolated
// hit/miss accounting.
func NewSharedPlanCache(enabled bool, maxEntries, shards int) *PlanCache {
	if shards < 1 {
		shards = 1
	}
	shardMax := 0
	if maxEntries > 0 {
		shardMax = (maxEntries + shards - 1) / shards
	}
	core := &cacheCore{enabled: enabled, shardMax: shardMax}
	core.shards = make([]*cacheShard, shards)
	for i := range core.shards {
		core.shards[i] = &cacheShard{ops: map[uint64]*cplan.Operator{}}
	}
	return &PlanCache{core: core}
}

// View returns a new view over the same underlying store with fresh
// hit/miss counters. Views share compiled operators, eviction and the
// class-name sequence; only the accounting is per-view.
func (pc *PlanCache) View() *PlanCache { return &PlanCache{core: pc.core} }

// NextClassID returns the next compiled-class sequence number, unique
// across all views of this cache's core (generated operator names must not
// collide between tenants compiling concurrently).
func (pc *PlanCache) NextClassID() int { return int(pc.core.classSeq.Add(1)) }

func (c *cacheCore) shardFor(h uint64) *cacheShard {
	return c.shards[h%uint64(len(c.shards))]
}

// GetOrCompile returns the cached operator for an equivalent CPlan or
// compiles a new one via the configured compiler path. Compilation happens
// outside the shard lock, so concurrent misses on the same plan may compile
// twice; the first insert wins and the duplicate is dropped.
func (pc *PlanCache) GetOrCompile(p *cplan.Plan, cfg *Config, nextClass func() string) (op *cplan.Operator, hit bool, err error) {
	core := pc.core
	h := p.Hash()
	var sh *cacheShard
	if core.enabled {
		sh = core.shardFor(h)
		sh.mu.Lock()
		cached, ok := sh.ops[h]
		sh.mu.Unlock()
		if ok {
			pc.hits.Add(1)
			core.hits.Add(1)
			return cached, true, nil
		}
		pc.misses.Add(1)
		core.misses.Add(1)
	}
	name := nextClass()
	if cfg.Compiler == CompilerJavac {
		op, err = cplan.CompileSlow(p, name)
		if err != nil {
			return nil, false, err
		}
	} else {
		op = cplan.Compile(p, name)
	}
	if core.enabled {
		sh.mu.Lock()
		if _, exists := sh.ops[h]; !exists {
			if core.shardMax > 0 {
				for len(sh.order) >= core.shardMax {
					delete(sh.ops, sh.order[0])
					sh.order = sh.order[1:]
					core.evictions.Add(1)
				}
				sh.order = append(sh.order, h)
			}
			sh.ops[h] = op
		}
		sh.mu.Unlock()
	}
	return op, false, nil
}

// Invalidate removes the compiled operators for the given plan hashes from
// the shared store, returning how many were actually present. Used by
// mid-script re-optimization: when a block's plan is recompiled under
// corrected estimates, its stale operators must not be served to any view.
//
// Removal is symmetric across the shard's two structures — ops and the FIFO
// order. Dropping only the ops entry would leave a ghost hash in order that
// a later eviction pass "evicts" (inflating the eviction counter shown in
// per-tenant stats) while silently shrinking the shard's effective
// capacity.
func (pc *PlanCache) Invalidate(hashes ...uint64) int {
	core := pc.core
	if !core.enabled {
		return 0
	}
	removed := 0
	for _, h := range hashes {
		sh := core.shardFor(h)
		sh.mu.Lock()
		if _, ok := sh.ops[h]; ok {
			delete(sh.ops, h)
			for i, v := range sh.order {
				if v == h {
					sh.order = append(sh.order[:i], sh.order[i+1:]...)
					break
				}
			}
			removed++
		}
		sh.mu.Unlock()
	}
	if removed > 0 {
		pc.invals.Add(int64(removed))
		core.invalidations.Add(int64(removed))
	}
	return removed
}

// Invalidations returns the number of operators this view invalidated.
func (pc *PlanCache) Invalidations() int64 { return pc.invals.Load() }

// Contains reports whether an operator for plan hash h is currently in
// the store.
func (pc *PlanCache) Contains(h uint64) bool {
	sh := pc.core.shardFor(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.ops[h]
	return ok
}

// Size returns the number of cached operators across all shards.
func (pc *PlanCache) Size() int {
	n := 0
	for _, sh := range pc.core.shards {
		sh.mu.Lock()
		n += len(sh.ops)
		sh.mu.Unlock()
	}
	return n
}

// Counters returns this view's lifetime hit/miss counts and the core's
// eviction count (evictions are a property of the shared store, not of any
// one view). A disabled cache counts nothing (every compile bypasses it).
func (pc *PlanCache) Counters() (hits, misses, evictions int64) {
	return pc.hits.Load(), pc.misses.Load(), pc.core.evictions.Load()
}

// WriteMetrics writes this view's plancache.* instruments into snap (the
// evictions and size are the shared store's).
func (pc *PlanCache) WriteMetrics(snap obs.Snapshot) {
	pc.writeMetrics(snap, pc.hits.Load(), pc.misses.Load(), pc.invals.Load())
}

// WriteTotalMetrics writes the plancache.* instruments aggregated across
// every view of the underlying store: the engine-wide cache picture.
func (pc *PlanCache) WriteTotalMetrics(snap obs.Snapshot) {
	c := pc.core
	pc.writeMetrics(snap, c.hits.Load(), c.misses.Load(), c.invalidations.Load())
}

func (pc *PlanCache) writeMetrics(snap obs.Snapshot, hits, misses, invals int64) {
	snap.Counters["plancache.hits"] = hits
	snap.Counters["plancache.misses"] = misses
	snap.Counters["plancache.evictions"] = pc.core.evictions.Load()
	snap.Counters["plancache.invalidations"] = invals
	if lookups := hits + misses; lookups > 0 {
		snap.Gauges["plancache.hitrate"] = float64(hits) / float64(lookups)
	}
	snap.Gauges["plancache.size"] = float64(pc.Size())
}

// PlanHashes collects the CPlan hashes of every fused operator spliced
// into the DAG, deduplicated in topological order — the plan-cache keys a
// mid-script re-optimization must Invalidate when it discards the DAG.
func PlanHashes(d *hop.DAG) []uint64 {
	var hashes []uint64
	seen := map[uint64]bool{}
	for _, h := range hop.TopoOrder(d.Roots()) {
		if h.Kind != hop.OpSpoof {
			continue
		}
		op, ok := h.Spoof.(*cplan.Operator)
		if !ok || op == nil || op.Plan == nil {
			continue
		}
		hv := op.Plan.Hash()
		if !seen[hv] {
			seen[hv] = true
			hashes = append(hashes, hv)
		}
	}
	return hashes
}

// Stats aggregates codegen statistics across DAG compilations (paper
// Table 3, Figs. 11-12).
type Stats struct {
	DAGsOptimized     int64
	CPlansConstructed int64
	OperatorsCompiled int64
	CacheHits         int64

	PlansEvaluated    int64
	HypotheticalPlans *big.Int

	CodegenTime time.Duration
	CompileTime time.Duration
}

// NewStats returns zeroed statistics.
func NewStats() *Stats { return &Stats{HypotheticalPlans: new(big.Int)} }
