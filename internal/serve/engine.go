// Package serve is the multi-tenant scoring frontend: a long-lived Engine
// that owns what used to be process-globals — a worker pool, a buffer
// pool, and a sharded compiled-plan cache — plus a per-tenant session pool
// with quotas, and an HTTP server (/v1/run) with request micro-batching
// and memory-pressure load shedding.
//
// The Engine is the isolation unit: two engines in one process share
// nothing mutable, so a serving binary can dedicate one engine per service
// tier (different worker caps, memory budgets, cache sizes) and run them
// concurrently. Tenants within an engine share its pools and compiled
// plans but keep isolated accounting (plan-cache views) and quotas.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sysml/internal/codegen"
	"sysml/internal/dml"
	"sysml/internal/matrix"
	"sysml/internal/obs"
	"sysml/internal/par"
)

// TenantQuota bounds one tenant's slice of an engine.
type TenantQuota struct {
	// MaxSessions caps concurrent in-flight sessions (0 = DefaultMaxSessions).
	MaxSessions int
	// MaxPlans, when > 0, gives the tenant a private bounded plan cache of
	// that many compiled operators instead of a view over the engine's
	// shared cache: the tenant's plans can never evict another tenant's.
	MaxPlans int
	// MemBytes, when > 0, gives the tenant a private buffer pool and sheds
	// the tenant's requests while its live (handed-out, unreturned) bytes
	// exceed this budget.
	MemBytes int64
}

// DefaultMaxSessions is the per-tenant concurrent-session cap when the
// quota leaves MaxSessions zero.
const DefaultMaxSessions = 8

// Engine owns the execution resources a serving process used to hold in
// process-globals. The zero Engine is not usable; construct with NewEngine.
type Engine struct {
	cfg   codegen.Config
	par   *par.Pool       // nil = process-wide par.Default
	alloc *matrix.BufPool // nil = process-wide matrix.DefaultPool
	cache *codegen.PlanCache
	// shareSessions: NewSession hands out views of the engine cache rather
	// than private per-session caches (set by WithSharedPlanCache).
	shareSessions bool
	budget        int64 // engine-wide live-bytes shed threshold (0 = never shed)
	quota         TenantQuota
	sloTarget     time.Duration // per-request total-latency SLO (0 = no SLO)

	mu      sync.Mutex
	tenants map[string]*Tenant

	requests atomic.Int64
	shed     atomic.Int64

	// obsm holds the engine's serving instruments: per-tenant latency
	// histograms (queue/exec/total, labeled by tenant) plus SLO burn
	// counters. Engine.Metrics folds the remaining engine state (request
	// counters, plan cache, pools) into its snapshot.
	obsm *obs.Metrics

	// calib, when non-nil (WithCalibration), is the engine-level shared
	// cost-model calibrator: every tenant session streams its execution
	// observations into it and adopts its fitted constants. One engine =
	// one machine profile.
	calib *codegen.Calibrator
	// calibPath, when set, is where SaveProfile persists the fitted profile.
	calibPath string
}

// EngineOption configures an Engine at construction time.
type EngineOption func(*Engine)

// WithMaxWorkers gives the engine a private worker pool capped at n
// goroutines (n <= 0 means GOMAXPROCS). Without it the engine schedules on
// the process-wide default pool.
func WithMaxWorkers(n int) EngineOption {
	return func(e *Engine) { e.par = par.NewPool(n) }
}

// WithMemoryBudget gives the engine a private buffer pool and a live-bytes
// budget: while more than budget bytes of pooled buffers are handed out
// and unreturned, the engine's server sheds new requests (429).
func WithMemoryBudget(bytes int64) EngineOption {
	return func(e *Engine) {
		e.alloc = matrix.NewBufPool(bytes)
		e.budget = bytes
	}
}

// WithTenantQuota sets the default quota applied to tenants that are not
// registered explicitly via Engine.TenantWithQuota.
func WithTenantQuota(q TenantQuota) EngineOption {
	return func(e *Engine) { e.quota = q }
}

// WithSharedPlanCache sizes the engine's shared compiled-plan cache:
// maxEntries total (0 = unbounded) split across shards lock domains. It also
// makes Engine.NewSession hand out views of this cache, so direct sessions
// share compiled operators with the serving path.
func WithSharedPlanCache(maxEntries, shards int) EngineOption {
	return func(e *Engine) {
		e.cache = codegen.NewSharedPlanCache(e.cfg.PlanCache, maxEntries, shards)
		e.shareSessions = true
	}
}

// WithConfig replaces the optimizer configuration tenant sessions run
// under (default DefaultConfig). Apply before WithSharedPlanCache.
func WithConfig(cfg codegen.Config) EngineOption {
	return func(e *Engine) { e.cfg = cfg }
}

// WithCalibration attaches an engine-level cost-model calibrator shared by
// every tenant session. When path is non-empty, a valid non-stale profile
// at that location seeds the constants (an unreadable, corrupt, or stale
// profile is ignored — the calibrator starts from the paper defaults and
// re-measures); the path is also the default SaveProfile destination.
func WithCalibration(path string) EngineOption {
	return func(e *Engine) {
		e.calib = codegen.NewCalibrator(e.cfg.Costs)
		e.calibPath = path
		if path != "" {
			if p, err := codegen.LoadProfile(path); err == nil {
				e.calib.ApplyProfile(p)
			}
		}
	}
}

// WithSLOTarget sets a per-request total-latency SLO. Requests whose
// arrival-to-completion latency exceeds target increment the tenant's SLO
// burn counter (TenantStats.SLOBurn and the serve.slo.burn metric); zero
// disables SLO accounting.
func WithSLOTarget(target time.Duration) EngineOption {
	return func(e *Engine) { e.sloTarget = target }
}

// defaultPlanCacheSize bounds the engine's shared plan cache when neither
// Config.PlanCacheSize nor WithSharedPlanCache sizes it: a long-lived server
// must not keep a compiled operator for every script it has ever seen.
const defaultPlanCacheSize = 1024

// NewEngine builds an engine. With no options it delegates to the process
// defaults (worker pool, buffer pool), never sheds, and gives tenants
// views over a fresh shared plan cache of defaultPlanCacheSize operators
// (Config.PlanCacheSize overrides) — behaviorally a superset of the old
// one-global-everything layout, but instance-scoped.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{cfg: codegen.DefaultConfig(), tenants: map[string]*Tenant{}, obsm: obs.NewMetrics()}
	for _, opt := range opts {
		opt(e)
	}
	if e.cache == nil {
		size := e.cfg.PlanCacheSize
		if size == 0 {
			size = defaultPlanCacheSize
		}
		e.cache = codegen.NewSharedPlanCache(e.cfg.PlanCache, size, 8)
	}
	return e
}

// MaxWorkers reports the worker cap of the engine's pool (the process
// default's cap when the engine has no private pool).
func (e *Engine) MaxWorkers() int { return e.par.MaxWorkers() }

// MemoryBudget reports the live-bytes shed threshold (0 = shedding off).
func (e *Engine) MemoryBudget() int64 { return e.budget }

// Cache returns the engine's shared plan cache (its aggregate counters
// span every tenant view).
func (e *Engine) Cache() *codegen.PlanCache { return e.cache }

// LiveBytes reports pooled bytes currently handed out and unreturned
// across the engine pool and every tenant's private pool — the admission
// gauge behind load shedding.
func (e *Engine) LiveBytes() int64 {
	live := e.alloc.LiveBytes()
	e.mu.Lock()
	for _, t := range e.tenants {
		if t.alloc != e.alloc {
			live += t.alloc.LiveBytes()
		}
	}
	e.mu.Unlock()
	if live < 0 {
		live = 0
	}
	return live
}

// OverBudget reports whether the engine should shed new work.
func (e *Engine) OverBudget() bool { return e.budget > 0 && e.LiveBytes() > e.budget }

// NewSession creates a standalone script session on this engine's worker
// and buffer pools. Under WithSharedPlanCache the session gets a view of
// the engine's plan cache (shared operators, private counters); otherwise
// a private cache per the engine config, exactly like dml.NewSession.
func (e *Engine) NewSession(cfg codegen.Config) *dml.Session {
	s := dml.NewSession(cfg)
	s.Par = e.par
	s.Alloc = e.alloc
	if e.shareSessions {
		s.Cache = e.cache.View()
	}
	if e.calib != nil {
		s.Calib = e.calib
		s.Config.Costs = e.calib.Model()
	}
	return s
}

// Calibrator returns the engine's shared cost-model calibrator (nil
// without WithCalibration).
func (e *Engine) Calibrator() *codegen.Calibrator { return e.calib }

// SaveProfile persists the calibrator's current constants to path (the
// WithCalibration path when path is empty). It is an error without an
// attached calibrator or when neither path is set.
func (e *Engine) SaveProfile(path string) error {
	if e.calib == nil {
		return errors.New("serve: engine has no calibrator (use WithCalibration)")
	}
	if path == "" {
		path = e.calibPath
	}
	if path == "" {
		return errors.New("serve: no profile path configured")
	}
	return e.calib.Profile().Save(path)
}

// Tenant returns the named tenant, creating it under the engine's default
// quota on first use.
func (e *Engine) Tenant(name string) *Tenant {
	e.mu.Lock()
	defer e.mu.Unlock()
	if t, ok := e.tenants[name]; ok {
		return t
	}
	t := e.newTenantLocked(name, e.quota)
	e.tenants[name] = t
	return t
}

// TenantWithQuota registers (or re-quotas an idle) tenant with an explicit
// quota. Re-quotaing a tenant with in-flight sessions returns an error.
func (e *Engine) TenantWithQuota(name string, q TenantQuota) (*Tenant, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if old, ok := e.tenants[name]; ok {
		if old.Active() > 0 {
			return nil, fmt.Errorf("serve: tenant %q has active sessions", name)
		}
	}
	t := e.newTenantLocked(name, q)
	e.tenants[name] = t
	return t, nil
}

func (e *Engine) newTenantLocked(name string, q TenantQuota) *Tenant {
	if q.MaxSessions <= 0 {
		q.MaxSessions = DefaultMaxSessions
	}
	t := &Tenant{
		name:      name,
		eng:       e,
		quota:     q,
		alloc:     e.alloc,
		cache:     e.cache.View(),
		slots:     make(chan struct{}, q.MaxSessions),
		histQueue: obs.LabeledName("serve.request.queue.seconds", "tenant", name),
		histExec:  obs.LabeledName("serve.request.exec.seconds", "tenant", name),
		histTotal: obs.LabeledName("serve.request.total.seconds", "tenant", name),
	}
	if q.MemBytes > 0 {
		t.alloc = matrix.NewBufPool(q.MemBytes)
	}
	if q.MaxPlans > 0 {
		t.cache = codegen.NewSharedPlanCache(e.cfg.PlanCache, q.MaxPlans, 1)
	}
	return t
}

// Tenants snapshots per-tenant serving statistics, keyed by tenant name.
func (e *Engine) Tenants() map[string]TenantStats {
	tenants := e.tenantList()
	out := make(map[string]TenantStats, len(tenants))
	for _, t := range tenants {
		out[t.name] = t.Stats()
	}
	return out
}

// tenantList returns the engine's tenants, read under the lock.
func (e *Engine) tenantList() []*Tenant {
	e.mu.Lock()
	defer e.mu.Unlock()
	tenants := make([]*Tenant, 0, len(e.tenants))
	for _, t := range e.tenants {
		tenants = append(tenants, t)
	}
	return tenants
}

// SLOTarget reports the per-request total-latency SLO (0 = no SLO).
func (e *Engine) SLOTarget() time.Duration { return e.sloTarget }

// Metrics snapshots the engine's full serving instrument set in one
// obs.Snapshot: per-tenant latency histograms and SLO burn counters (from
// the engine registry), engine-wide request/shed counters, shared
// plan-cache counters, buffer-pool usage, and capacity gauges. The
// snapshot renders as JSON, human text (Snapshot.String), or Prometheus
// exposition (obs.WritePrometheus).
func (e *Engine) Metrics() obs.Snapshot {
	snap := e.obsm.Snapshot()
	snap.Counters["serve.requests"] = e.Requests()
	snap.Counters["serve.shed"] = e.Shed()
	e.cache.WriteTotalMetrics(snap)
	if e.calib != nil {
		e.calib.WriteMetrics(snap)
	}
	e.par.WriteMetrics(snap)
	e.alloc.WriteMetrics(snap)
	// Engine-level overrides: live bytes span every tenant's private pool,
	// and the budget they are shed against.
	snap.Gauges["pool.bytes.live"] = float64(e.LiveBytes())
	snap.Gauges["pool.bytes.budget"] = float64(e.budget)
	tenants := e.tenantList()
	snap.Gauges["serve.tenants"] = float64(len(tenants))
	for _, t := range tenants {
		snap.Counters[obs.LabeledName("serve.tenant.requests", "tenant", t.name)] = t.requests.Load()
		snap.Counters[obs.LabeledName("serve.tenant.shed", "tenant", t.name)] = t.shed.Load()
		snap.Counters[obs.LabeledName("serve.tenant.batched", "tenant", t.name)] = t.batched.Load()
		snap.Gauges[obs.LabeledName("serve.tenant.active", "tenant", t.name)] = float64(t.Active())
	}
	return snap
}

// Requests and Shed report engine-wide accepted and shed request counts.
func (e *Engine) Requests() int64 { return e.requests.Load() }

// Shed reports requests rejected for capacity (memory pressure or a full
// tenant session pool) across the engine's lifetime.
func (e *Engine) Shed() int64 { return e.shed.Load() }

// Close drains every tenant's pooled idle sessions back to the buffer
// pool. In-flight sessions are unaffected (their Release returns slots as
// usual); the engine may keep serving afterwards.
func (e *Engine) Close() {
	tenants := e.tenantList()
	for _, t := range tenants {
		t.drainIdle()
	}
}

// ErrTenantBusy is returned by Tenant.Acquire when the tenant is at its
// concurrent-session quota for the whole wait window.
var ErrTenantBusy = errors.New("serve: tenant at session quota")

// ErrTenantOverBudget is returned by Tenant.Acquire when the tenant's
// private pool is over its memory quota.
var ErrTenantOverBudget = errors.New("serve: tenant over memory budget")

// Tenant is one named principal's slice of an engine: a quota-bounded pool
// of reusable sessions plus isolated plan-cache accounting.
type Tenant struct {
	name  string
	eng   *Engine
	quota TenantQuota
	alloc *matrix.BufPool    // engine pool, or private under a MemBytes quota
	cache *codegen.PlanCache // engine-cache view, or private under MaxPlans

	slots chan struct{} // session-concurrency semaphore (cap MaxSessions)

	mu   sync.Mutex
	idle []*dml.Session

	requests atomic.Int64
	shed     atomic.Int64
	batched  atomic.Int64 // requests that rode a batch behind a leader
	sloBurn  atomic.Int64 // requests that blew the engine's SLO target

	// histQueue/histExec/histTotal are the tenant's labeled latency
	// instrument names in the engine registry, precomputed once.
	histQueue, histExec, histTotal string
}

// Name returns the tenant name.
func (t *Tenant) Name() string { return t.name }

// Quota returns the tenant's quota.
func (t *Tenant) Quota() TenantQuota { return t.quota }

// Active reports sessions currently acquired and not yet released.
func (t *Tenant) Active() int { return len(t.slots) }

// LiveBytes reports the tenant's pool-live bytes (the engine gauge when
// the tenant has no private pool).
func (t *Tenant) LiveBytes() int64 { return t.alloc.LiveBytes() }

// OverBudget reports whether the tenant's private memory quota is blown.
func (t *Tenant) OverBudget() bool {
	return t.quota.MemBytes > 0 && t.alloc.LiveBytes() > t.quota.MemBytes
}

// Acquire checks out a session, waiting up to wait for a concurrency slot.
// The session runs on the engine's worker pool, the tenant's buffer pool,
// and the tenant's plan-cache view; its environment is clean. Callers must
// Release it. Errors: ErrTenantOverBudget (immediately, memory quota) or
// ErrTenantBusy (after the wait window, session quota).
func (t *Tenant) Acquire(wait time.Duration) (*dml.Session, error) {
	return t.acquire(wait, true)
}

// acquire is Acquire with explicit accounting: when count is false the
// caller owns request/shed counting (the batch executor counts every job
// it carries — leader and followers alike — so per-tenant totals stay
// exact under micro-batching).
func (t *Tenant) acquire(wait time.Duration, count bool) (*dml.Session, error) {
	if t.OverBudget() {
		if count {
			t.shed.Add(1)
			t.eng.shed.Add(1)
		}
		return nil, ErrTenantOverBudget
	}
	select {
	case t.slots <- struct{}{}:
	default:
		if wait <= 0 {
			if count {
				t.shed.Add(1)
				t.eng.shed.Add(1)
			}
			return nil, ErrTenantBusy
		}
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case t.slots <- struct{}{}:
		case <-timer.C:
			if count {
				t.shed.Add(1)
				t.eng.shed.Add(1)
			}
			return nil, ErrTenantBusy
		}
	}
	if count {
		t.requests.Add(1)
		t.eng.requests.Add(1)
	}
	t.mu.Lock()
	if n := len(t.idle); n > 0 {
		s := t.idle[n-1]
		t.idle = t.idle[:n-1]
		t.mu.Unlock()
		return s, nil
	}
	t.mu.Unlock()
	return t.newSession(), nil
}

// newSession builds a session on the engine's worker pool, the tenant's
// buffer pool and the tenant's plan-cache view.
func (t *Tenant) newSession() *dml.Session {
	s := dml.NewSession(t.eng.cfg)
	s.Par = t.eng.par
	s.Alloc = t.alloc
	s.Cache = t.cache
	if t.eng.calib != nil {
		s.Calib = t.eng.calib
		s.Config.Costs = t.eng.calib.Model()
	}
	return s
}

// Release resets the session (its pooled intermediates return to the
// tenant's buffer pool; the block-plan cache stays warm), parks it for
// reuse, and frees the concurrency slot.
func (t *Tenant) Release(s *dml.Session) {
	s.Reset()
	t.mu.Lock()
	if len(t.idle) < cap(t.slots) {
		t.idle = append(t.idle, s)
	}
	t.mu.Unlock()
	<-t.slots
}

// observe records one completed request's latency split into the tenant's
// labeled histograms and the engine-wide total histogram, and burns the
// SLO counter when total latency exceeds the engine target.
func (t *Tenant) observe(queue, exec, total time.Duration) {
	m := t.eng.obsm
	m.Observe(t.histQueue, queue.Seconds())
	m.Observe(t.histExec, exec.Seconds())
	m.Observe(t.histTotal, total.Seconds())
	m.Observe("serve.request.total.seconds", total.Seconds())
	if target := t.eng.sloTarget; target > 0 && total > target {
		t.sloBurn.Add(1)
		m.Inc(obs.LabeledName("serve.slo.burn", "tenant", t.name))
	}
}

func (t *Tenant) drainIdle() {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.mu.Unlock()
	for _, s := range idle {
		s.Close()
	}
}

// TenantStats is a point-in-time snapshot of one tenant's serving state.
type TenantStats struct {
	Requests       int64 `json:"requests"`
	Shed           int64 `json:"shed"`
	Batched        int64 `json:"batched"`
	ActiveSessions int   `json:"active_sessions"`
	LiveBytes      int64 `json:"live_bytes"`
	CacheHits      int64 `json:"plancache_hits"`
	CacheMisses    int64 `json:"plancache_misses"`
	// CacheInvalidations counts compiled operators this tenant's
	// re-optimizations removed from the shared store.
	CacheInvalidations int64 `json:"plancache_invalidations"`
	// P50MS/P95MS/P99MS estimate the tenant's total-latency quantiles in
	// milliseconds over the engine's lifetime (bucket interpolation; 0
	// until the tenant has served a request).
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	// SLOBurn counts requests over the engine's SLO target (0 without one).
	SLOBurn int64 `json:"slo_burn"`
}

// Stats snapshots the tenant: request/shed/batch counts, in-flight
// sessions, pool-live bytes, the tenant's own plan-cache hit/miss
// counters (isolated per tenant even though the store is shared), and
// total-latency quantiles with SLO burn.
func (t *Tenant) Stats() TenantStats {
	hits, misses, _ := t.cache.Counters()
	lat := t.eng.obsm.Hist(t.histTotal).Snapshot()
	return TenantStats{
		Requests:           t.requests.Load(),
		Shed:               t.shed.Load(),
		Batched:            t.batched.Load(),
		ActiveSessions:     t.Active(),
		LiveBytes:          t.LiveBytes(),
		CacheHits:          hits,
		CacheMisses:        misses,
		CacheInvalidations: t.cache.Invalidations(),
		P50MS:              lat.Quantile(0.50) * 1e3,
		P95MS:              lat.Quantile(0.95) * 1e3,
		P99MS:              lat.Quantile(0.99) * 1e3,
		SLOBurn:            t.sloBurn.Load(),
	}
}
