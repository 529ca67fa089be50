package compress

import (
	"runtime"
	"sync"
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
// bound input's compressed form out, and must not stay reachable once the
// script has dropped them.
func TestDeclinesNeitherEvictNorPin(t *testing.T) {
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

// TestAttachmentsDieWithTheirMatrices: a compressed form lives exactly as
// long as its matrix, so forms attached to transients the caller then drops
// leave the live heap flat.
func TestAttachmentsDieWithTheirMatrices(t *testing.T) {
	before := liveHeap()
	for i := 0; i < 2000; i++ {
		tmp := lowCardinality(1024, 8, 5, int64(i)) // 64 KiB
		Attach(tmp, Compress(tmp, DefaultOptions()))
		if Of(tmp) == nil {
			t.Fatal("an attachment did not stick to its matrix")
		}
	}
	// 2000 transients are 125 MiB; a 512-entry registry kept 32 MiB of
	// them and their forms alive.
	if grown := int64(liveHeap()) - int64(before); grown > 4<<20 {
		t.Fatalf("live heap grew by %d KiB over 2000 attached transients", grown>>10)
	}
}

// TestAttachmentsAreNotShared: one engine's attachments cannot evict
// another's. A form attached to a matrix of one engine's pool survives 600
// attachments made later on another engine's matrices.
func TestAttachmentsAreNotShared(t *testing.T) {
	engA, engB := matrix.NewBufPool(0), matrix.NewBufPool(0)
	cm := Compress(lowCardinality(64, 2, 3, 2), DefaultOptions())
	bound := engA.NewDense(64, 2)
	Attach(bound, cm)
	session := make([]*matrix.Matrix, 600)
	for i := range session {
		session[i] = engB.NewDense(64, 2)
		Attach(session[i], cm)
	}
	if Of(bound) != cm {
		t.Fatal("600 attachments of one session evicted another engine's form")
	}
	for _, m := range session {
		if Of(m) != cm {
			t.Fatal("a session's own attachment was lost")
		}
	}
}

// TestStateConcurrent: sessions sharing a bound input attach, read and
// decline it concurrently (run under -race). Each of 8 goroutines attaches,
// reads and declines; one of them also releases the matrix, since Release
// recycles the storage and has a single caller by contract.
func TestStateConcurrent(t *testing.T) {
	cm := Compress(lowCardinality(64, 2, 3, 4), DefaultOptions())
	m := matrix.NewDense(64, 2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				switch (g + i) % 3 {
				case 0:
					Attach(m, cm)
				case 1:
					Decline(m, "declined")
				default:
					Drop(m)
				}
				if got := Of(m); got != nil && got != cm {
					t.Error("Of returned a form nobody attached")
					return
				}
				if reason, ok := DeclineReason(m); ok && reason != "declined" {
					t.Errorf("DeclineReason returned %q", reason)
					return
				}
				if g == 0 && i%100 == 99 {
					m.Release()
				}
			}
		}(g)
	}
	wg.Wait()
}
