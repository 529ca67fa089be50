package serve

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"sysml/internal/dml"
	"sysml/internal/matrix"
)

const stressScript = `s = sum(X * Y)
w = t(X) %*% (X %*% t(colSums(Y / 100)))`

// runStress executes the fusible stress script once on a tenant session.
func runStress(t *testing.T, tn *Tenant, rows int, seed int64) {
	t.Helper()
	s, err := tn.Acquire(time.Second)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer tn.Release(s)
	ec := matrix.Ctx{Par: s.Par, Buf: s.Alloc}
	s.Env["X"] = ec.Rand(rows, 20, 1, -1, 1, seed)
	s.Env["Y"] = ec.Rand(rows, 20, 1, -1, 1, seed+1)
	if err := s.Run(stressScript); err != nil {
		t.Errorf("run: %v", err)
	}
}

// TestTwoEnginesConcurrentIsolation runs two engines with different worker
// caps, memory budgets, and quotas concurrently (the -race stress of the
// issue): results must stay correct and neither engine's pools, cache, or
// counters may observe the other's traffic.
func TestTwoEnginesConcurrentIsolation(t *testing.T) {
	a := NewEngine(
		WithMaxWorkers(2),
		WithMemoryBudget(64<<20),
		WithTenantQuota(TenantQuota{MaxSessions: 2}),
		WithSharedPlanCache(0),
	)
	b := NewEngine(
		WithMaxWorkers(4),
		WithMemoryBudget(256<<20),
		WithTenantQuota(TenantQuota{MaxSessions: 4}),
		WithSharedPlanCache(0),
	)
	if a.MaxWorkers() != 2 || b.MaxWorkers() != 4 {
		t.Fatalf("worker caps leaked: a=%d b=%d", a.MaxWorkers(), b.MaxWorkers())
	}

	const tenantsPer, repsPer = 3, 4
	var wg sync.WaitGroup
	for _, eng := range []*Engine{a, b} {
		for ti := 0; ti < tenantsPer; ti++ {
			wg.Add(1)
			go func(e *Engine, ti int) {
				defer wg.Done()
				tn := e.Tenant(fmt.Sprintf("tenant-%d", ti))
				for r := 0; r < repsPer; r++ {
					runStress(t, tn, 64, int64(ti*100+r))
				}
			}(eng, ti)
		}
	}
	wg.Wait()

	for name, e := range map[string]*Engine{"a": a, "b": b} {
		if got := e.Requests(); got != tenantsPer*repsPer {
			t.Errorf("engine %s: %d requests, want %d", name, got, tenantsPer*repsPer)
		}
		if e.Shed() != 0 {
			t.Errorf("engine %s shed %d requests at nominal load", name, e.Shed())
		}
		snap := e.Metrics()
		if snap.Counters["plancache.hits"]+snap.Counters["plancache.misses"] == 0 {
			t.Errorf("engine %s: plan cache saw no traffic", name)
		}
		// All sessions were released: nothing may still hold pooled bytes.
		if live := e.LiveBytes(); live != 0 {
			t.Errorf("engine %s: %d live bytes after all releases", name, live)
		}
	}
	// Per-tenant accounting stayed per-tenant.
	for name, st := range a.Tenants() {
		if st.Requests != repsPer {
			t.Errorf("engine a tenant %s: %d requests, want %d", name, st.Requests, repsPer)
		}
	}
}

// TestTenantSessionQuota: at MaxSessions the tenant sheds instead of
// oversubscribing, and releasing frees the slot.
func TestTenantSessionQuota(t *testing.T) {
	e := NewEngine(WithTenantQuota(TenantQuota{MaxSessions: 1}))
	tn := e.Tenant("q")
	s, err := tn.Acquire(0)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if _, err := tn.Acquire(5 * time.Millisecond); err != ErrTenantBusy {
		t.Fatalf("second acquire: got %v, want ErrTenantBusy", err)
	}
	if tn.Stats().Shed != 1 {
		t.Errorf("shed count %d, want 1", tn.Stats().Shed)
	}
	tn.Release(s)
	s2, err := tn.Acquire(0)
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	tn.Release(s2)
}

// TestTenantMemoryQuota: a tenant with a private memory budget sheds while
// its live bytes exceed it and recovers once buffers come back.
func TestTenantMemoryQuota(t *testing.T) {
	e := NewEngine()
	tn, err := e.TenantWithQuota("m", TenantQuota{MaxSessions: 4, MemBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	buf := tn.alloc.Get(4096) // 32 KiB live > 4 KiB quota
	if !tn.OverBudget() {
		t.Fatal("tenant not over budget with 32 KiB live")
	}
	if _, err := tn.Acquire(0); err != ErrTenantOverBudget {
		t.Fatalf("acquire over budget: got %v, want ErrTenantOverBudget", err)
	}
	tn.alloc.Put(buf)
	s, err := tn.Acquire(0)
	if err != nil {
		t.Fatalf("acquire after recovery: %v", err)
	}
	tn.Release(s)
}

// TestTenantCacheAccountingIsolation: two tenants sharing the engine plan
// cache see shared compiled operators but isolated hit/miss counters.
func TestTenantCacheAccountingIsolation(t *testing.T) {
	e := NewEngine(WithSharedPlanCache(0))
	ta, tb := e.Tenant("a"), e.Tenant("b")

	run := func(tn *Tenant) {
		s, err := tn.Acquire(0)
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		defer tn.Release(s)
		ec := matrix.Ctx{Par: s.Par, Buf: s.Alloc}
		s.Env["X"] = ec.Rand(32, 8, 1, -1, 1, 1)
		s.Env["Y"] = ec.Rand(32, 8, 1, -1, 1, 2)
		if err := s.Run(`s = sum(X * Y * 2)`); err != nil {
			t.Fatalf("run: %v", err)
		}
		s.Close() // drop the block cache so the next run re-enters codegen
	}

	run(ta)
	run(ta)
	run(tb)

	as, bs := ta.Stats(), tb.Stats()
	if as.CacheMisses != 1 || as.CacheHits < 1 {
		t.Errorf("tenant a: (%d hits, %d misses), want >=1 hit and exactly 1 miss",
			as.CacheHits, as.CacheMisses)
	}
	// b's first lookup hits the operator a compiled — shared store — but
	// the hit lands in b's own counters, not a's.
	if bs.CacheMisses != 0 || bs.CacheHits < 1 {
		t.Errorf("tenant b: (%d hits, %d misses), want >=1 hit and 0 misses",
			bs.CacheHits, bs.CacheMisses)
	}
	snap := e.Metrics()
	hits, misses := snap.Counters["plancache.hits"], snap.Counters["plancache.misses"]
	if hits != as.CacheHits+bs.CacheHits || misses != as.CacheMisses+bs.CacheMisses {
		t.Errorf("aggregate (%d, %d) != tenant sums (%d, %d)",
			hits, misses, as.CacheHits+bs.CacheHits, as.CacheMisses+bs.CacheMisses)
	}
}

// TestTenantPrivatePlanQuota: MaxPlans gives the tenant a private bounded
// cache whose evictions cannot touch other tenants.
func TestTenantPrivatePlanQuota(t *testing.T) {
	e := NewEngine(WithSharedPlanCache(0))
	shared := e.Tenant("shared")
	private, err := e.TenantWithQuota("private", TenantQuota{MaxSessions: 2, MaxPlans: 1})
	if err != nil {
		t.Fatal(err)
	}
	if private.cache == shared.cache {
		t.Fatal("MaxPlans tenant shares the engine cache view")
	}
	if private.cache.Size() != 0 {
		t.Fatal("private cache not empty at start")
	}
}

// TestSessionResetReturnsBuffers: Reset must return pooled intermediates
// so the engine's live-bytes gauge falls back to zero (the admission
// signal the server sheds on).
func TestSessionResetReturnsBuffers(t *testing.T) {
	e := NewEngine(WithMemoryBudget(64 << 20))
	tn := e.Tenant("r")
	s, err := tn.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	ec := matrix.Ctx{Par: s.Par, Buf: s.Alloc}
	s.Env["X"] = ec.Rand(128, 64, 1, -1, 1, 3)
	if err := s.Run(`Y = X %*% t(X)`); err != nil {
		t.Fatal(err)
	}
	if e.LiveBytes() == 0 {
		t.Fatal("no live bytes while results are held")
	}
	tn.Release(s)
	if live := e.LiveBytes(); live != 0 {
		t.Errorf("%d live bytes after release, want 0", live)
	}
}

// TestServerBoundedPlanState: a default engine fed scripts it has never
// seen, through /v1/run, keeps bounded state — every tenant session holds at
// most its bound of block plans and of parsed scripts, the shared plan cache
// evicts at its default capacity, and no request leaves pool bytes live.
// (What the sessions hold is asserted directly: the live heap of the test
// process moves by more than any sensible bound with the collector's
// timing.)
func TestServerBoundedPlanState(t *testing.T) {
	e := NewEngine()
	srv := startServer(t, e)
	const scripts, tenants = 5000, 16
	for i := 0; i < scripts; i++ {
		req := sumReq(fmt.Sprintf("t%d", i%tenants), 2, 1)
		req.Script = fmt.Sprintf("s = sum(X * %d + X)\nr = rowSums(abs(X) / %d.5)", i+2, i+1)
		if r := post(srv, "", req); r.status != http.StatusOK {
			t.Fatalf("script %d: status %d err %v", i, r.status, r.err)
		}
	}
	sessions, fullPlans, fullPrograms := 0, 0, 0
	e.mu.Lock()
	for _, tn := range e.tenants {
		tn.mu.Lock()
		for _, sess := range tn.idle {
			g := sess.Metrics().Gauges
			plans, programs := int(g["block.cache.size"]), int(g["program.cache.size"])
			if plans > dml.MaxBlockPlans || programs > dml.MaxPrograms {
				t.Errorf("tenant %s: a session holds %d block plans (bound %d) and %d parsed scripts (bound %d)",
					tn.name, plans, dml.MaxBlockPlans, programs, dml.MaxPrograms)
			}
			sessions++
			if plans == dml.MaxBlockPlans {
				fullPlans++
			}
			if programs == dml.MaxPrograms {
				fullPrograms++
			}
		}
		tn.mu.Unlock()
	}
	e.mu.Unlock()
	// 312 scripts per tenant: the bounds were reached, and held.
	if sessions == 0 || fullPlans == 0 || fullPrograms == 0 {
		t.Errorf("%d idle sessions, %d at the block-plan bound, %d at the parsed-script bound: the bounds were never exercised",
			sessions, fullPlans, fullPrograms)
	}
	if live := e.LiveBytes(); live != 0 {
		t.Errorf("%d pool bytes live with every request answered", live)
	}
	snap := e.Metrics()
	if snap.Counter("plancache.evictions") == 0 {
		t.Error("plancache.evictions = 0: the default engine's plan cache is unbounded")
	}
	if size := snap.Gauges["plancache.size"]; size > defaultPlanCacheSize {
		t.Errorf("plancache.size = %g, over the default capacity %d", size, defaultPlanCacheSize)
	}
}
