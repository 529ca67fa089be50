package dml

import (
	"math"
	"strconv"

	"sysml/internal/matrix"
	"sysml/internal/runtime"
)

// An access is one thing a block compile learned from the symbol table. The
// compiler logs every one (compile.go), the plan it produced is cached under
// the log, and the next execution of the same statements replays the log
// against its own symbol table before any hop exists: when every access
// observes what it observed then, the compile would repeat itself, and the
// cached plan is taken instead.
type access struct {
	kind accessKind
	name string // accShape, accDims: the variable

	// accShape, accDims: the variable's dimensions (bound: it exists).
	// accShape also holds what the optimizer sees of its non-zero count: the
	// BindWithNnz estimate when there is one, else the sparsityClass of the
	// scanned count.
	rows, cols int
	bound      bool
	hinted     bool
	hint       int64
	sparse     bool
	bucket     int

	// accConst: a constant as constEval resolved it, and its value.
	// accRows: the resolved row bounds of an index, 1-based inclusive.
	lo, hi Expr
	value  float64

	// accRows: the rows of the indexed value and of the selection, and the
	// first earlier accRows of the log that selected the same rows (such
	// index hops may have been merged into one), -1 for none. rl and ru are
	// the selection as of the last rowRange, 0-based half-open.
	of, extent int64
	same       int
	rl, ru     int64
}

type accessKind uint8

const (
	accShape accessKind = iota // a variable read into the DAG (varHop)
	accDims                    // a variable constEval asked the dimensions of
	accConst                   // a constant whose value went into the DAG (site)
	// accRows: the row bounds of an index. The DAG depends on how many rows
	// they select, not on where the selection starts: a cached plan takes
	// the offsets as parameters (blockEntry.slices).
	accRows
)

// sparsityClass is what a block plan depends on of a read's non-zero count:
// the storage format the optimizer assumes (hop.IsSparse) and the sparsity
// to one decimal, as %.1f rounds it, in tenths.
func sparsityClass(rows, cols int, nnz int64) (sparse bool, bucket int) {
	cells := float64(rows) * float64(cols)
	if nnz < 0 || cells == 0 || float64(nnz) == cells {
		return false, 10
	}
	sp := float64(nnz) / cells
	var buf [32]byte
	for _, ch := range strconv.AppendFloat(buf[:0], sp, 'f', 1, 64) {
		if ch != '.' {
			bucket = bucket*10 + int(ch-'0')
		}
	}
	return cols > 1 && sp < matrix.SparsityThreshold, bucket
}

// rowRange evaluates an accRows' bounds under env into rl and ru.
func (a *access) rowRange(env runtime.Env) bool {
	lo, ok1 := evalConst(a.lo, env)
	hi, ok2 := evalConst(a.hi, env)
	a.rl, a.ru = int64(lo)-1, int64(hi)
	return ok1 && ok2
}

// sameRows returns the first accRows of log that selects rows [rl, ru), or -1.
func sameRows(log []access, rl, ru int64) int {
	for i := range log {
		if a := &log[i]; a.kind == accRows && a.rl == rl && a.ru == ru {
			return i
		}
	}
	return -1
}

// replay reports whether a compile under env and hints would log what log
// holds. It leaves the current row selections in the log's accRows.
func replay(log []access, env runtime.Env, hints map[string]int64) bool {
	for i := range log {
		a := &log[i]
		switch a.kind {
		case accShape, accDims:
			m, bound := env[a.name]
			if bound != a.bound || bound && (m.Rows != a.rows || m.Cols != a.cols) {
				return false
			}
			if a.kind == accDims {
				continue
			}
			if hint, hinted := hints[a.name]; hinted != a.hinted || hint != a.hint {
				return false
			}
			if !a.hinted {
				if sparse, bucket := sparsityClass(m.Rows, m.Cols, int64(m.Nnz())); sparse != a.sparse || bucket != a.bucket {
					return false
				}
			}
		case accConst:
			if v, ok := evalConst(a.lo, env); !ok || math.Float64bits(v) != math.Float64bits(a.value) {
				return false
			}
		case accRows:
			if !a.rowRange(env) || a.rl < 0 || a.ru > a.of || a.ru-a.rl != a.extent || sameRows(log[:i], a.rl, a.ru) != a.same {
				return false
			}
		}
	}
	return true
}
