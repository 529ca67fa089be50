package compress

import (
	"fmt"
	"sort"
	"strings"

	"sysml/internal/matrix"
)

// A matrix carries its compression state itself (Matrix.CompressState):
// nothing, a decline verdict, or an attached compressed form. The runtime
// executes fused operators over an attached form and the dist backend
// charges a transfer of the matrix at its priced size (WireSizeBytes). A
// decline (auto-compression sampled the matrix and passed, or the script
// produced it) is cached so that the estimator runs once per binding and
// not once per loop iteration. Both last exactly as long as the matrix: Release
// clears the state with the storage, and a dropped matrix takes its form
// with it. A lookup is one atomic load.

// declined is the state of a matrix auto-compression passed on: the reason
// EXPLAIN prints.
type declined string

// Attach records cm as the compressed form of m, replacing any prior
// attachment or decline marker.
func Attach(m *matrix.Matrix, cm *CMatrix) {
	if m == nil || cm == nil {
		return
	}
	m.SetCompressState(cm)
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
	m.SetCompressState(declined(reason))
}

// Of returns the compressed form attached to m, or nil.
func Of(m *matrix.Matrix) *CMatrix {
	if m == nil {
		return nil
	}
	cm, _ := m.CompressState().(*CMatrix)
	return cm
}

// DeclineReason reports whether m carries a decline marker and its reason.
func DeclineReason(m *matrix.Matrix) (string, bool) {
	if m == nil {
		return "", false
	}
	reason, ok := m.CompressState().(declined)
	return string(reason), ok
}

// Drop removes any attachment or decline marker for m.
func Drop(m *matrix.Matrix) {
	if m != nil {
		m.SetCompressState(nil)
	}
}

// DropAll does nothing. Attachments used to live in a process-wide
// registry that this emptied; they are now fields of their matrices and go
// with them. It is kept for callers outside this module.
func DropAll() {}

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
