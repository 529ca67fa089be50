package serve

import (
	"io"
	"math"
	"testing"
	"time"

	"sysml/internal/codegen"
	"sysml/internal/dist"
	"sysml/internal/dml"
	"sysml/internal/matrix"
	"sysml/internal/obs"
	"sysml/internal/par"
)

// The instrument names Session.Metrics and Engine.Metrics return for the
// runs of TestMetricNamesAreAContract ("c" counter, "g" gauge, "h"
// histogram), recorded before each component came to write its own. The
// benchmark reads plancache.*, compress.exec.*, compress.auto.declined and
// phase.* by name and Prometheus scrapes the rest, so a name may be added
// but disappears only with the component that writes it.
var (
	sessionMetricNames = []string{
		"c block.cache.misses", "c block.optimized", "c block.reused",
		"c codegen.cplans.constructed", "c codegen.dags.optimized",
		"c codegen.operators.compiled", "c codegen.plancache.hits", "c codegen.plans.evaluated",
		"c compress.auto.compressed", "c compress.auto.sampled", "c compress.exec.fallback",
		"c dist.bcast.hits", "c dist.bcast.invalidations", "c dist.bcast.misses", "c dist.bcast.reship.bytes",
		"c dist.bcast.reships", "c dist.bytes.broadcast", "c dist.bytes.shuffled", "c dist.degraded",
		"c dist.fault.kills", "c dist.fault.reassigned", "c dist.fault.stragglers", "c dist.fault.transient",
		"c dist.retry.attempts", "c dist.retry.backoff.ns", "c dist.shuffle.bytes.spoof", "c dist.spec.launched",
		"c dist.spec.wins", "c exec.actual.bytes", "c exec.actual.flops", "c exec.dist.ops", "c exec.est.bytes",
		"c exec.est.flops", "c exec.ops", "c par.calls", "c par.goroutines", "c par.sequential",
		"c plancache.evictions", "c plancache.hits", "c plancache.invalidations", "c plancache.misses",
		"c pool.bytes.recycled", "c pool.gets", "c pool.hits", "c pool.misses", "c pool.puts", "c spoof.Cell",
		"c spoof.Row", "c spoof.bind.view", "c spoof.invocations",
		"g block.cache.size", "g codegen.compile.seconds", "g codegen.time.seconds",
		"g compress.ratio", "g dist.bcast.hitrate", "g dist.net.seconds", "g par.utilization",
		"g plancache.hitrate", "g plancache.size", "g pool.bytes.live", "g pool.bytes.parked", "g pool.hitrate",
		"g program.cache.size",
		"h op.b", "h op.data", "h op.r(t)", "h op.spoof", "h op.spoof.Cell", "h op.spoof.Row", "h op.ua",
		"h phase.compile", "h phase.compress", "h phase.execute", "h phase.optimize", "h phase.parse",
	}
	engineMetricNames = []string{
		"c plancache.evictions",
		"c plancache.hits", "c plancache.invalidations", "c plancache.misses", "c pool.discards", "c pool.gets",
		"c pool.hits", "c pool.misses", "c pool.puts", "c serve.requests", "c serve.shed",
		`c serve.tenant.batched{tenant="a"}`, `c serve.tenant.requests{tenant="a"}`, `c serve.tenant.shed{tenant="a"}`,
		"g par.workers", "g plancache.size", "g pool.bytes.budget", "g pool.bytes.live", "g pool.bytes.parked",
		`g serve.tenant.active{tenant="a"}`, "g serve.tenants",
	}
)

// checkMetrics fails for every recorded name snap lacks and every value in
// want that snap does not carry.
func checkMetrics(t *testing.T, surface string, snap obs.Snapshot, names []string, want map[string]float64) {
	t.Helper()
	for _, n := range names {
		var ok bool
		switch kind, name := n[0], n[2:]; kind {
		case 'c':
			_, ok = snap.Counters[name]
		case 'g':
			_, ok = snap.Gauges[name]
		case 'h':
			_, ok = snap.Hists[name]
		}
		if !ok {
			t.Errorf("%s.Metrics no longer returns %q", surface, n)
		}
	}
	for name, v := range want {
		got, ok := snap.Gauges[name]
		if c, isCounter := snap.Counters[name]; isCounter {
			got, ok = float64(c), true
		}
		if !ok || got != v {
			t.Errorf("%s.Metrics %s = %v (present %v), the component reports %v", surface, name, got, ok, v)
		}
	}
}

// TestMetricNamesAreAContract runs a session with a faulty cluster and
// private pools, and an engine with one tenant:
// every recorded name is still returned, and what each component writes is
// the value the component reports itself.
func TestMetricNamesAreAContract(t *testing.T) {
	cl := dist.NewCluster(dist.WithExecutors(3), dist.WithFaultPlan(&dist.FaultPlan{
		Seed: 5, TransientRate: 0.1, BackoffBase: time.Microsecond, BackoffCap: 50 * time.Microsecond,
	}))
	cl.Blocksize = 64
	cfg := codegen.DefaultConfig()
	cfg.Exec.MemBudgetBytes = 100_000
	cfg.Reopt.MinSec = math.Inf(1) // no time trigger: the names must not depend on the host's speed
	s := dml.NewSession(cfg)
	s.Dist = cl
	s.Alloc = matrix.NewBufPool(1 << 26)
	s.Par = par.NewPool(2)
	s.Out = io.Discard
	x := matrix.Rand(3000, 8, 1, 0, 4, 11)
	d := x.Dense()
	for i := range d {
		d[i] = math.Trunc(d[i])
	}
	s.Bind("X", x)
	s.Bind("v", matrix.Rand(8, 1, 1, -1, 1, 12))
	if err := s.Run("y = abs(X %*% v)\nz = colSums(X * 2)\nr = X * t(v)\nq = sum(X ^ 2)\nprint(sum(y) + sum(z) + sum(r) + q)"); err != nil {
		t.Fatal(err)
	}
	pu, pr := s.Alloc.Stats(), s.Par.Stats()
	ph, pm, pe := s.Cache.Counters()
	bh, bm, bi := cl.BroadcastCacheStats()
	ft := cl.FaultStats()
	checkMetrics(t, "Session", s.Metrics(), sessionMetricNames, map[string]float64{
		"pool.gets": float64(pu.Gets), "pool.hits": float64(pu.Hits), "pool.puts": float64(pu.Puts),
		"pool.bytes.recycled": float64(pu.BytesRecycled), "pool.bytes.parked": float64(pu.BytesParked),
		"par.calls": float64(pr.Calls), "par.goroutines": float64(pr.Goroutines),
		"plancache.hits": float64(ph), "plancache.misses": float64(pm), "plancache.evictions": float64(pe),
		"plancache.size": float64(s.Cache.Size()), "block.optimized": float64(s.Blocks),
		"dist.bytes.broadcast": float64(cl.BytesBroadcast()), "dist.bytes.shuffled": float64(cl.BytesShuffled()),
		"dist.net.seconds": cl.NetTime().Seconds(), "dist.bcast.hits": float64(bh),
		"dist.bcast.misses": float64(bm), "dist.bcast.invalidations": float64(bi),
		"dist.fault.transient": float64(ft.TransientInjected), "dist.retry.attempts": float64(ft.Retries),
		"dist.degraded": float64(ft.Degraded),
	})

	e := NewEngine(WithMaxWorkers(2), WithMemoryBudget(1<<26))
	tn := e.Tenant("a")
	sess, err := tn.Acquire(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ec := matrix.Ctx{Par: sess.Par, Buf: sess.Alloc}
	sess.Env["X"] = ec.Rand(512, 64, 1, -1, 1, 3)
	if err := sess.Run(`s = sum(X * X)`); err != nil {
		t.Fatal(err)
	}
	tn.Release(sess)
	ta := e.Tenants()["a"] // the only tenant: its view's counters are the totals
	checkMetrics(t, "Engine", e.Metrics(), engineMetricNames, map[string]float64{
		"plancache.hits": float64(ta.CacheHits), "plancache.misses": float64(ta.CacheMisses),
		"pool.bytes.live": float64(e.LiveBytes()), "pool.bytes.budget": 1 << 26, "par.workers": 2,
	})
}
