package codegen_test

import (
	"sync"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/cplan"
	"sysml/internal/obs"
)

// litPlan builds a minimal distinct Cell plan (hash varies with v).
func litPlan(v float64) *cplan.Plan {
	return &cplan.Plan{Type: cplan.TemplateCell, Root: cplan.Lit(v), SparseSafe: true}
}

// TestSharedPlanCacheConcurrentViews hammers one shared store through one
// view per tenant from concurrent goroutines: per-tenant hit/miss counters
// must account for exactly that tenant's lookups, aggregate counters must
// equal the per-view sums, and generated class IDs must never collide.
func TestSharedPlanCacheConcurrentViews(t *testing.T) {
	const tenants, plans, reps = 8, 16, 10
	cfg := codegen.DefaultConfig()
	shared := codegen.NewSharedPlanCache(true, 0, 4)
	views := make([]*codegen.PlanCache, tenants)
	for i := range views {
		views[i] = shared.View()
	}
	ids := make([][]int, tenants)
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			v := views[ti]
			for r := 0; r < reps; r++ {
				for p := 0; p < plans; p++ {
					_, _, err := v.GetOrCompile(litPlan(float64(p)), &cfg, func() string { return "T" })
					if err != nil {
						t.Errorf("tenant %d: %v", ti, err)
						return
					}
				}
				ids[ti] = append(ids[ti], v.NextClassID())
			}
		}(ti)
	}
	wg.Wait()

	var sumHits, sumMisses int64
	for ti, v := range views {
		hits, misses, _ := v.Counters()
		if hits+misses != plans*reps {
			t.Errorf("tenant %d: %d lookups accounted, want %d", ti, hits+misses, plans*reps)
		}
		sumHits += hits
		sumMisses += misses
	}
	total := obs.NewMetrics().Snapshot()
	shared.WriteTotalMetrics(total)
	hits, misses := total.Counters["plancache.hits"], total.Counters["plancache.misses"]
	if hits != sumHits || misses != sumMisses {
		t.Errorf("aggregate (%d, %d) != per-view sums (%d, %d)", hits, misses, sumHits, sumMisses)
	}
	if got := shared.Size(); got != plans {
		t.Errorf("store holds %d plans, want %d", got, plans)
	}
	seen := map[int]bool{}
	for _, tenantIDs := range ids {
		for _, id := range tenantIDs {
			if seen[id] {
				t.Fatalf("class ID %d issued twice", id)
			}
			seen[id] = true
		}
	}
}

// TestPlanCacheViewIsolation: lookups through one view must not move
// another view's counters, even though the store is shared.
func TestPlanCacheViewIsolation(t *testing.T) {
	cfg := codegen.DefaultConfig()
	shared := codegen.NewSharedPlanCache(true, 0, 2)
	a, b := shared.View(), shared.View()
	for i := 0; i < 5; i++ {
		a.GetOrCompile(litPlan(1), &cfg, func() string { return "T" })
	}
	if hits, misses, _ := b.Counters(); hits != 0 || misses != 0 {
		t.Errorf("idle view counted (%d hits, %d misses)", hits, misses)
	}
	aHits, aMisses, _ := a.Counters()
	if aMisses != 1 || aHits != 4 {
		t.Errorf("active view counted (%d hits, %d misses), want (4, 1)", aHits, aMisses)
	}
	// The second view shares the store: its first lookup is a hit.
	_, hit, _ := b.GetOrCompile(litPlan(1), &cfg, func() string { return "T" })
	if !hit {
		t.Error("shared store did not serve the other view's plan")
	}
}

// TestPlanCacheInvalidate: invalidation must remove the entry from the
// store and the FIFO order symmetrically — a ghost order entry would shrink
// the effective capacity.
func TestPlanCacheInvalidate(t *testing.T) {
	cfg := codegen.DefaultConfig()
	const maxEntries = 8
	pc := codegen.NewSharedPlanCache(true, maxEntries, 1)
	p := litPlan(3)
	pc.GetOrCompile(p, &cfg, func() string { return "T" })
	if !pc.Contains(p.Hash()) {
		t.Fatal("plan not in the store after its compile")
	}

	v := pc.View()
	if removed := v.Invalidate(p.Hash()); removed != 1 {
		t.Fatalf("Invalidate removed %d entries, want 1", removed)
	}
	if pc.Contains(p.Hash()) {
		t.Error("plan still in the store after invalidation")
	}
	if got := pc.Size(); got != 0 {
		t.Errorf("store size %d after invalidating its only entry", got)
	}
	if got := v.Invalidations(); got != 1 {
		t.Errorf("view counted %d invalidations, want 1", got)
	}
	total := obs.NewMetrics().Snapshot()
	pc.WriteTotalMetrics(total)
	if got := total.Counters["plancache.invalidations"]; got != 1 {
		t.Errorf("store counted %d invalidations, want 1", got)
	}
	if _, hit, _ := pc.GetOrCompile(p, &cfg, func() string { return "T" }); hit || !pc.Contains(p.Hash()) {
		t.Error("an invalidated plan must compile afresh and re-enter the store")
	}
	// Unknown hashes are a no-op, not a phantom removal.
	if removed := v.Invalidate(0xdead); removed != 0 {
		t.Errorf("Invalidate removed %d entries for an unknown hash", removed)
	}

	// No phantom capacity loss: fill the bounded store, invalidate half,
	// refill — the freed slots must absorb the new plans without evictions.
	pc2 := codegen.NewSharedPlanCache(true, maxEntries, 1)
	hashes := make([]uint64, maxEntries)
	for i := 0; i < maxEntries; i++ {
		p := litPlan(float64(100 + i))
		hashes[i] = p.Hash()
		pc2.GetOrCompile(p, &cfg, func() string { return "T" })
	}
	v2 := pc2.View()
	if removed := v2.Invalidate(hashes[:maxEntries/2]...); removed != maxEntries/2 {
		t.Fatalf("bulk Invalidate removed %d, want %d", removed, maxEntries/2)
	}
	for i := 0; i < maxEntries/2; i++ {
		pc2.GetOrCompile(litPlan(float64(200+i)), &cfg, func() string { return "T" })
	}
	if _, _, evictions := pc2.Counters(); evictions != 0 {
		t.Errorf("%d evictions after refilling invalidated slots (ghost order entries)", evictions)
	}
	if got := pc2.Size(); got != maxEntries {
		t.Errorf("store size %d, want %d", got, maxEntries)
	}
}

// TestPlanCacheInvalidateViewIsolation: per-tenant invalidation counters
// move only on the invoking view, mirroring hit/miss isolation.
func TestPlanCacheInvalidateViewIsolation(t *testing.T) {
	cfg := codegen.DefaultConfig()
	shared := codegen.NewSharedPlanCache(true, 0, 2)
	a, b := shared.View(), shared.View()
	p := litPlan(9)
	a.GetOrCompile(p, &cfg, func() string { return "T" })
	b.Invalidate(p.Hash())
	if got := a.Invalidations(); got != 0 {
		t.Errorf("idle view counted %d invalidations", got)
	}
	if got := b.Invalidations(); got != 1 {
		t.Errorf("invoking view counted %d invalidations, want 1", got)
	}
	total := obs.NewMetrics().Snapshot()
	shared.WriteTotalMetrics(total)
	if got := total.Counters["plancache.invalidations"]; got != 1 {
		t.Errorf("aggregate %d invalidations, want 1", got)
	}
}

// TestPlanCacheBounded: a bounded sharded store evicts FIFO per shard and
// never exceeds its per-shard ceilings.
func TestPlanCacheBounded(t *testing.T) {
	cfg := codegen.DefaultConfig()
	const maxEntries, shards = 8, 4
	pc := codegen.NewSharedPlanCache(true, maxEntries, shards)
	for i := 0; i < 100; i++ {
		pc.GetOrCompile(litPlan(float64(i)), &cfg, func() string { return "T" })
	}
	// shardMax = ceil(8/4) = 2 per shard, so at most 8 total survive.
	if got := pc.Size(); got > maxEntries {
		t.Errorf("bounded cache holds %d entries, cap %d", got, maxEntries)
	}
	if _, _, evictions := pc.Counters(); evictions == 0 {
		t.Error("no evictions counted after overflowing a bounded cache")
	}
}
