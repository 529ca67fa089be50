package codegen

import (
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"sysml/internal/cplan"
	"sysml/internal/obs"
)

// A PlanCache caches compiled fused operators keyed by CPlan hash, avoiding
// redundant code generation and compilation across DAGs and during dynamic
// recompilation (§2.1). The hash covers every field of a CPlan, so a cached
// operator never goes stale: re-optimizing or discarding a block plan
// leaves the operators it used in place for the next equivalent plan.
//
// A PlanCache is a view over one store: the store owns the operators, the
// FIFO eviction and the compiled-class name sequence; each view carries its
// own hit/miss counters. A single-tenant session uses one view over its
// private store; a serving engine hands every tenant its own View() over one
// shared store, which gives tenants shared compiled plans but isolated
// accounting.
type PlanCache struct {
	store *planStore

	hits   atomic.Int64 // this view's lookups served from the store
	misses atomic.Int64 // this view's lookups that compiled
}

type planStore struct {
	enabled    bool
	maxEntries int // 0 = unbounded

	mu    sync.Mutex
	ops   map[uint64]*cplan.Operator
	order []uint64 // insertion order for FIFO eviction when bounded

	classSeq  atomic.Int64 // compiled-class name sequence (TMP%d)
	hits      atomic.Int64 // aggregated across all views
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewPlanCacheSized returns a plan cache holding at most maxEntries compiled
// operators (0 = unbounded); when full, the oldest entry is evicted. When
// disabled it compiles every request fresh (the Fig. 11 "without plan
// cache" configuration).
func NewPlanCacheSized(enabled bool, maxEntries int) *PlanCache {
	return &PlanCache{store: &planStore{enabled: enabled, maxEntries: maxEntries, ops: map[uint64]*cplan.Operator{}}}
}

// View returns a new view over the same underlying store with fresh
// hit/miss counters. Views share compiled operators, eviction and the
// class-name sequence; only the accounting is per-view.
func (pc *PlanCache) View() *PlanCache { return &PlanCache{store: pc.store} }

// NextClassID returns the next compiled-class sequence number, unique
// across all views of this cache's store (generated operator names must not
// collide between tenants compiling concurrently).
func (pc *PlanCache) NextClassID() int { return int(pc.store.classSeq.Add(1)) }

// GetOrCompile returns the cached operator for an equivalent CPlan or
// compiles a new one via the configured compiler path. Compilation happens
// outside the lock, so concurrent misses on the same plan may compile
// twice; the first insert wins and the duplicate is dropped.
func (pc *PlanCache) GetOrCompile(p *cplan.Plan, cfg *Config, nextClass func() string) (op *cplan.Operator, hit bool, err error) {
	st := pc.store
	h := p.Hash()
	if st.enabled {
		st.mu.Lock()
		cached, ok := st.ops[h]
		st.mu.Unlock()
		if ok {
			pc.hits.Add(1)
			st.hits.Add(1)
			return cached, true, nil
		}
		pc.misses.Add(1)
		st.misses.Add(1)
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
	if st.enabled {
		st.mu.Lock()
		if _, exists := st.ops[h]; !exists {
			if st.maxEntries > 0 {
				for len(st.order) >= st.maxEntries {
					delete(st.ops, st.order[0])
					st.order = st.order[1:]
					st.evictions.Add(1)
				}
				st.order = append(st.order, h)
			}
			st.ops[h] = op
		}
		st.mu.Unlock()
	}
	return op, false, nil
}

// Size returns the number of cached operators.
func (pc *PlanCache) Size() int {
	pc.store.mu.Lock()
	defer pc.store.mu.Unlock()
	return len(pc.store.ops)
}

// Counters returns this view's lifetime hit/miss counts and the store's
// eviction count (evictions are a property of the shared store, not of any
// one view). A disabled cache counts nothing (every compile bypasses it).
func (pc *PlanCache) Counters() (hits, misses, evictions int64) {
	return pc.hits.Load(), pc.misses.Load(), pc.store.evictions.Load()
}

// WriteMetrics writes this view's plancache.* instruments into snap (the
// evictions and size are the shared store's).
func (pc *PlanCache) WriteMetrics(snap obs.Snapshot) {
	pc.writeMetrics(snap, pc.hits.Load(), pc.misses.Load())
}

// WriteTotalMetrics writes the plancache.* instruments aggregated across
// every view of the underlying store: the engine-wide cache picture.
func (pc *PlanCache) WriteTotalMetrics(snap obs.Snapshot) {
	pc.writeMetrics(snap, pc.store.hits.Load(), pc.store.misses.Load())
}

func (pc *PlanCache) writeMetrics(snap obs.Snapshot, hits, misses int64) {
	snap.Counters["plancache.hits"] = hits
	snap.Counters["plancache.misses"] = misses
	snap.Counters["plancache.evictions"] = pc.store.evictions.Load()
	// Nothing invalidates a cached operator; the counter stays a recorded
	// metric name at 0.
	snap.Counters["plancache.invalidations"] = 0
	if lookups := hits + misses; lookups > 0 {
		snap.Gauges["plancache.hitrate"] = float64(hits) / float64(lookups)
	}
	snap.Gauges["plancache.size"] = float64(pc.Size())
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
