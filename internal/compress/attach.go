package compress

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sysml/internal/matrix"
)

// The attachment registry associates a compressed form with a dense matrix
// by identity: the runtime executes fused operators over it, the dist
// backend ships its encoded bytes. It lives here rather than as a field on
// matrix.Matrix because the compressed form is this package's type; all
// access is mutex-guarded, a release hook drops the entry when the backing
// storage is recycled, and the registry holds at most attachCap entries,
// evicting the one used least recently. An entry keeps its matrix and the
// compressed form reachable, which is the point: it is the bound input of a
// session that will read it again.
//
// A decline (auto-compression sampled the matrix and passed, so that the
// estimator runs once per binding and not once per loop iteration) is not a
// registry entry: it is a field of the matrix itself (Matrix.CompressDeclined). The scripts of one
// batch_mix pass decline some 130 loop intermediates; as registry entries
// those pushed the compressed inputs out of a shared FIFO and kept every
// dead intermediate reachable through its map key.
type attachment struct {
	cm   *CMatrix
	used int64 // attachTick at the last Attach or Of
}

const attachCap = 512

var (
	attachMu   sync.Mutex
	attached   map[*matrix.Matrix]*attachment
	attachTick int64
	attachLen  atomic.Int64 // fast-path guard: most matrices have no attachment
)

func init() {
	// Release clears the decline verdict itself.
	matrix.OnRelease(detach)
}

// Attach records cm as the compressed form of m, replacing any prior
// attachment or decline marker. Beyond attachCap entries the least recently
// used one is evicted.
func Attach(m *matrix.Matrix, cm *CMatrix) {
	if m == nil || cm == nil {
		return
	}
	m.SetCompressDeclined("")
	attachMu.Lock()
	defer attachMu.Unlock()
	if attached == nil {
		attached = make(map[*matrix.Matrix]*attachment)
	}
	attachTick++
	attached[m] = &attachment{cm: cm, used: attachTick}
	if len(attached) > attachCap {
		var oldest *matrix.Matrix
		used := attachTick
		for k, a := range attached {
			if a.used < used {
				oldest, used = k, a.used
			}
		}
		delete(attached, oldest)
	}
	attachLen.Store(int64(len(attached)))
}

// Decline marks m as not worth compressing, with a human-readable reason
// surfaced by EXPLAIN. Later Attach calls override the marker.
func Decline(m *matrix.Matrix, reason string) {
	if m == nil {
		return
	}
	if reason == "" {
		reason = "declined"
	}
	detach(m)
	m.SetCompressDeclined(reason)
}

// Of returns the compressed form attached to m, or nil.
func Of(m *matrix.Matrix) *CMatrix {
	if m == nil || attachLen.Load() == 0 {
		return nil
	}
	attachMu.Lock()
	defer attachMu.Unlock()
	if a := attached[m]; a != nil {
		attachTick++
		a.used = attachTick
		return a.cm
	}
	return nil
}

// DeclineReason reports whether m carries a decline marker and its reason.
func DeclineReason(m *matrix.Matrix) (string, bool) {
	if m == nil {
		return "", false
	}
	reason := m.CompressDeclined()
	return reason, reason != ""
}

// Drop removes any attachment or decline marker for m.
func Drop(m *matrix.Matrix) {
	if m == nil {
		return
	}
	m.SetCompressDeclined("")
	detach(m)
}

func detach(m *matrix.Matrix) {
	if attachLen.Load() == 0 {
		return
	}
	attachMu.Lock()
	defer attachMu.Unlock()
	if _, ok := attached[m]; ok {
		delete(attached, m)
		attachLen.Store(int64(len(attached)))
	}
}

// DropAll drops every attachment (test hygiene, and the benchmark between
// set-ups so that one copy of its inputs is reachable). Decline verdicts
// survive it: they are fields of their matrices, cleared by Release, Drop
// or Attach, so a matrix declined before DropAll is not estimated again.
func DropAll() {
	attachMu.Lock()
	defer attachMu.Unlock()
	attached = nil
	attachLen.Store(0)
}

// Summary describes the encoding mix of a compressed matrix, e.g.
// "DDC×12 RLE×3 OLE×2" — the per-input encoding line of the COMPRESSED
// EXPLAIN section.
func Summary(cm *CMatrix) string {
	if cm == nil {
		return ""
	}
	byKind := map[string]int{}
	for _, g := range cm.Groups {
		switch g.(type) {
		case *DDCGroup:
			byKind["DDC"]++
		case *RLEGroup:
			byKind["RLE"]++
		case *OLEGroup:
			byKind["OLE"]++
		case *UCGroup:
			byKind["UC"]++
		default:
			byKind["?"]++
		}
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s×%d", k, byKind[k]))
	}
	return strings.Join(parts, " ")
}
