package compress

import (
	"runtime"
	"testing"

	"sysml/internal/matrix"
)

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDeclinesNeitherEvictNorPin: the loop intermediates that
// auto-compression declines (some 130 per batch_mix pass) must not push a
// bound input's compressed form out of the registry, and must not stay
// reachable once the script has dropped them.
func TestDeclinesNeitherEvictNorPin(t *testing.T) {
	defer DropAll()
	in := lowCardinality(2000, 8, 5, 1)
	Attach(in, Compress(in, DefaultOptions()))
	before := liveHeap()
	for i := 0; i < 2000; i++ {
		tmp := matrix.Rand(128, 64, 1, -1, 1, int64(i)) // 64 KiB, the interpreter's compression floor
		Decline(tmp, "estimated ratio 1.00 < 3.00")
		if _, ok := DeclineReason(tmp); !ok {
			t.Fatal("a decline did not stick to its matrix")
		}
	}
	if Of(in) == nil {
		t.Fatal("2000 declines evicted the attached input")
	}
	// 2000 transients are 125 MiB; a registry that kept the last 512 of
	// them alive held 32 MiB.
	if grown := int64(liveHeap()) - int64(before); grown > 4<<20 {
		t.Fatalf("live heap grew by %d KiB over 2000 declined transients", grown>>10)
	}
	runtime.KeepAlive(in)
}

// TestAttachmentsEvictLeastRecentlyUsed: the registry is bounded on its
// own, and a form that operators keep reading outlives newer ones that
// nobody reads.
func TestAttachmentsEvictLeastRecentlyUsed(t *testing.T) {
	defer DropAll()
	cm := Compress(lowCardinality(64, 2, 3, 2), DefaultOptions())
	hot := matrix.NewDense(1, 1)
	Attach(hot, cm)
	var cold []*matrix.Matrix
	for i := 0; i < attachCap+10; i++ {
		m := matrix.NewDense(1, 1)
		cold = append(cold, m)
		Attach(m, cm)
		if Of(hot) == nil {
			t.Fatalf("the form read before every Attach was evicted at %d", i)
		}
	}
	if n := attachLen.Load(); n != attachCap {
		t.Fatalf("registry holds %d entries, cap %d", n, attachCap)
	}
	if Of(cold[0]) != nil || Of(cold[len(cold)-1]) == nil {
		t.Fatal("eviction did not take the oldest unread entries")
	}
	cold[len(cold)-1].Release()
	if Of(cold[len(cold)-1]) != nil {
		t.Fatal("Release left the attachment behind")
	}
}
