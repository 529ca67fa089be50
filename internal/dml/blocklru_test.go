package dml

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"sysml/internal/codegen"
	"sysml/internal/matrix"
)

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestBlockCacheBounded: a session fed a stream of scripts it has never
// seen keeps at most MaxBlockPlans block plans and a flat heap, and a script
// that keeps running between them stays cached throughout.
func TestBlockCacheBounded(t *testing.T) {
	cfg := codegen.DefaultConfig()
	cfg.Reopt.Enabled = false // a time-triggered re-optimization would count as a miss
	s := NewSession(cfg)
	s.Out = io.Discard
	s.Bind("X", matrix.Rand(16, 8, 1, -1, 1, 1))
	const scripts, hotEvery = 5000, 10
	hot := "h = sum(X * X)\nc = colSums(X * X + 1)"
	var heapAt1000 uint64
	hotRuns := int64(0)
	for i := 0; i < scripts; i++ {
		if i == 1000 {
			heapAt1000 = liveHeap()
		}
		if i%hotEvery == 0 {
			if err := s.Run(hot); err != nil {
				t.Fatal(err)
			}
			hotRuns++
		}
		cold := fmt.Sprintf("s = sum(X * %d + X)\nr = rowSums(abs(X) / %d.5)", i+2, i+1)
		if err := s.Run(cold); err != nil {
			t.Fatalf("script %d: %v", i, err)
		}
		if s.blockLRU.Len() > MaxBlockPlans || len(s.blockCache) > s.blockLRU.Len() || len(s.programs) > MaxPrograms {
			t.Fatalf("script %d: %d cached plans of %d blocks (bound %d), %d parsed scripts (bound %d)",
				i, s.blockLRU.Len(), len(s.blockCache), MaxBlockPlans, len(s.programs), MaxPrograms)
		}
	}
	grown := int64(liveHeap()) - int64(heapAt1000)
	if grown > 2<<20 || grown < -(2<<20) {
		t.Errorf("live heap moved by %d KiB between script 1000 and %d, want within 2 MiB", grown>>10, scripts)
	}
	snap := s.Metrics()
	if got := snap.Counter("block.cache.hits"); got != hotRuns-1 {
		t.Errorf("block.cache.hits = %d, want %d (the repeated script, every run after its first)", got, hotRuns-1)
	}
	if got, want := snap.Counter("block.cache.evictions"), int64(scripts+1-MaxBlockPlans); got != want {
		t.Errorf("block.cache.evictions = %d, want %d", got, want)
	}
	if got := snap.Counter("reopt.invalidations"); got != 0 {
		t.Errorf("reopt.invalidations = %d: an eviction is not a re-optimization", got)
	}
	if size := s.Cache.Size(); size > 4*MaxBlockPlans {
		t.Errorf("plan cache holds %d operators for %d cached blocks", size, s.blockLRU.Len())
	}
}
