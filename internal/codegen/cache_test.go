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
	shared := codegen.NewPlanCacheSized(true, 0)
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
	shared := codegen.NewPlanCacheSized(true, 0)
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

// TestPlanCacheBounded: a bounded store evicts FIFO, never exceeds its
// bound, and keeps the newest operators.
func TestPlanCacheBounded(t *testing.T) {
	cfg := codegen.DefaultConfig()
	const maxEntries, plans = 8, 100
	pc := codegen.NewPlanCacheSized(true, maxEntries)
	for i := 0; i < plans; i++ {
		pc.GetOrCompile(litPlan(float64(i)), &cfg, func() string { return "T" })
	}
	if got := pc.Size(); got != maxEntries {
		t.Errorf("bounded cache holds %d entries, want %d", got, maxEntries)
	}
	if _, _, evictions := pc.Counters(); evictions != plans-maxEntries {
		t.Errorf("%d evictions after %d plans into %d slots, want %d", evictions, plans, maxEntries, plans-maxEntries)
	}
	v := pc.View()
	if _, hit, _ := v.GetOrCompile(litPlan(plans-1), &cfg, func() string { return "T" }); !hit {
		t.Error("the newest plan was evicted")
	}
	if _, hit, _ := v.GetOrCompile(litPlan(0), &cfg, func() string { return "T" }); hit {
		t.Error("the oldest plan survived a full store")
	}
}
