package main

import (
	"io"
	"time"

	"sysml/internal/codegen"
	"sysml/internal/data"
	"sysml/internal/dml"
	"sysml/internal/hop"
	"sysml/internal/matrix"
)

// fusedSpec is one fused_ops program: the script, the same expression
// written with the hop.DAG builder (for the layer replay), a naive
// reference, and what one run computes.
type fusedSpec struct {
	name, tag string
	script    string
	outputs   []string
	inputs    []string // names bound from the shared input set
	// dag builds the script's expression; read returns the transient read
	// of a bound input.
	dag func(d *hop.DAG, read func(string) *hop.Hop)
	ref func(in map[string]*matrix.Matrix) map[string]mat
	// work returns the bytes one run must read and write and the flops it
	// must do ("computed bytes": sizes of the operands, not measured
	// traffic).
	work func(in map[string]*matrix.Matrix) (bytes, flops float64)
}

func mul(d *hop.DAG, a, b *hop.Hop) *hop.Hop { return d.Binary(matrix.BinMul, a, b) }

func bytesOf(ms ...*matrix.Matrix) float64 {
	var b int64
	for _, m := range ms {
		b += m.SizeBytes()
	}
	return float64(b)
}

// storedCells is the number of cells a sparse-aware kernel touches.
func storedCells(m *matrix.Matrix) float64 {
	if csr := m.Sparse(); csr != nil {
		return float64(csr.Nnz())
	}
	return float64(m.Rows * m.Cols)
}

// cellSpec is sum(X*Y*Z) (Fig 8a/b): a sparse X lets the skeleton touch
// only X's non-zeros in Y and Z.
func cellSpec(name, tag, x string) fusedSpec {
	return fusedSpec{
		name: name, tag: tag, script: "s = sum(X * Y * Z)", outputs: []string{"s"},
		inputs: []string{x, "Y", "Z"},
		dag: func(d *hop.DAG, read func(string) *hop.Hop) {
			d.Output("s", d.Sum(mul(d, mul(d, read("X"), read("Y")), read("Z"))))
		},
		ref: func(in map[string]*matrix.Matrix) map[string]mat {
			return map[string]mat{"s": scalarMat(refCell(in["X"], in["Y"], in["Z"]))}
		},
		work: func(in map[string]*matrix.Matrix) (float64, float64) {
			n := storedCells(in["X"])
			return bytesOf(in["X"]) + 2*8*n, 3 * n
		},
	}
}

// maggSpec is the multi-aggregate pair sum(X*Y), sum(X*Z) (Fig 8c/d).
func maggSpec(name, tag, x string) fusedSpec {
	return fusedSpec{
		name: name, tag: tag, script: "s1 = sum(X * Y)\ns2 = sum(X * Z)", outputs: []string{"s1", "s2"},
		inputs: []string{x, "Y", "Z"},
		dag: func(d *hop.DAG, read func(string) *hop.Hop) {
			d.Output("s1", d.Sum(mul(d, read("X"), read("Y"))))
			d.Output("s2", d.Sum(mul(d, read("X"), read("Z"))))
		},
		ref: func(in map[string]*matrix.Matrix) map[string]mat {
			s1, s2 := refMAgg(in["X"], in["Y"], in["Z"])
			return map[string]mat{"s1": scalarMat(s1), "s2": scalarMat(s2)}
		},
		work: func(in map[string]*matrix.Matrix) (float64, float64) {
			n := storedCells(in["X"])
			return bytesOf(in["X"]) + 2*8*n, 4 * n
		},
	}
}

// rowSpec is t(X) %*% (X %*% v) (Fig 8e/f), and with a 100x2 V Fig 8g.
func rowSpec(name, tag, x, v, vFrom, out string) fusedSpec {
	return fusedSpec{
		name: name, tag: tag, script: out + " = t(X) %*% (X %*% " + v + ")", outputs: []string{out},
		inputs: []string{x, v + "=" + vFrom},
		dag: func(d *hop.DAG, read func(string) *hop.Hop) {
			d.Output(out, d.MatMult(d.Transpose(read("X")), d.MatMult(read("X"), read(v))))
		},
		ref: func(in map[string]*matrix.Matrix) map[string]mat {
			return map[string]mat{out: refRowMM(in["X"], in[v])}
		},
		work: func(in map[string]*matrix.Matrix) (float64, float64) {
			return bytesOf(in["X"]), 4 * storedCells(in["X"]) * float64(in[v].Cols)
		},
	}
}

// outerSpec is sum(X * log(U %*% t(V) + 1e-15)) (Fig 8h): the Outer
// template computes U V^T only at X's non-zeros.
func outerSpec(name, x string) fusedSpec {
	return fusedSpec{
		name: name, tag: "sparse", script: "s = sum(X * log(U %*% t(V) + 1e-15))", outputs: []string{"s"},
		inputs: []string{x, "U", "V"},
		dag: func(d *hop.DAG, read func(string) *hop.Hop) {
			uv := d.MatMult(read("U"), d.Transpose(read("V")))
			d.Output("s", d.Sum(mul(d, read("X"), d.Unary(matrix.UnLog, d.Binary(matrix.BinAdd, uv, d.Lit(1e-15))))))
		},
		ref: func(in map[string]*matrix.Matrix) map[string]mat {
			return map[string]mat{"s": scalarMat(refOuter(in["X"], in["U"], in["V"]))}
		},
		work: func(in map[string]*matrix.Matrix) (float64, float64) {
			n := storedCells(in["X"])
			return bytesOf(in["X"], in["U"], in["V"]), n * float64(2*in["U"].Cols+3)
		},
	}
}

// fusedSpecs lists the thirteen programs of fused_ops. An input name such
// as "X=Xs" binds the shared matrix Xs as X.
func fusedSpecs() []fusedSpec {
	return []fusedSpec{
		cellSpec("cell.dense", "dense", "X"),
		cellSpec("cell.sparse", "sparse", "X=Xs"),
		maggSpec("magg.dense", "dense", "X"),
		maggSpec("magg.sparse", "sparse", "X=Xs"),
		rowSpec("row.dense", "dense", "X", "v", "v", "w"),
		rowSpec("row.sparse", "sparse", "X=Xs", "v", "v", "w"),
		rowSpec("rowmm.dense", "dense", "X", "V", "V2", "W"),
		outerSpec("outer.sp0.1", "X=Xo1"),
		outerSpec("outer.sp0.001", "X=Xo3"),
		{
			// Three siblings over X that horizontal fusion merges into one scan.
			name: "hfuse.dense", tag: "dense", script: "C = colSums(X)\ns = sum(X^2)\nY = X*3+1",
			outputs: []string{"C", "s", "Y"}, inputs: []string{"X"},
			dag: func(d *hop.DAG, read func(string) *hop.Hop) {
				x := read("X")
				d.Output("C", d.ColSums(x))
				d.Output("s", d.Sum(d.Binary(matrix.BinPow, x, d.Lit(2))))
				d.Output("Y", d.Binary(matrix.BinAdd, mul(d, x, d.Lit(3)), d.Lit(1)))
			},
			ref: func(in map[string]*matrix.Matrix) map[string]mat { return refHFuse(in["X"]) },
			work: func(in map[string]*matrix.Matrix) (float64, float64) {
				n := storedCells(in["X"])
				return 2 * bytesOf(in["X"]), 5 * n
			},
		},
		// Fig 9, sum(X^2) three ways. Uncompressed: random data, which
		// auto-compression declines; a known Gen > Fused regret (ROADMAP
		// item 3).
		sumSqSpec("sumsq.ula", "dense", "X"),
		// Compressed: integer codes, which auto-compress to DDC groups, so
		// the operator runs over column-group dictionaries.
		sumSqSpec("sumsq.cla", "compressed", "X=Xcodes"),
		// The dense Mnist-like input also auto-compresses, to OLE groups:
		// the other dictionary skeleton.
		sumSqSpec("sumsq.ole", "compressed", "X=Xmnist"),
	}
}

func sumSqSpec(name, tag, x string) fusedSpec {
	return fusedSpec{
		name: name, tag: tag, script: "s = sum(X^2)", outputs: []string{"s"}, inputs: []string{x},
		dag: func(d *hop.DAG, read func(string) *hop.Hop) {
			d.Output("s", d.Sum(d.Binary(matrix.BinPow, read("X"), d.Lit(2))))
		},
		ref: func(in map[string]*matrix.Matrix) map[string]mat {
			return map[string]mat{"s": scalarMat(refSumSq(in["X"]))}
		},
		work: func(in map[string]*matrix.Matrix) (float64, float64) {
			return bytesOf(in["X"]), 2 * storedCells(in["X"])
		},
	}
}

// Sizes of fused_ops at scale 1: 100000x100 dense is 80 MB, ten times the
// 2x4 MiB of L2 on the 2-core reference host; L3 there is a 260 MiB cache
// shared with other tenants, so "GB/s" below is computed bytes over time,
// not DRAM traffic.
const (
	fusedRows  = 100000
	fusedCols  = 100
	outerN     = 2000
	outerRank  = 100
	mnistRows  = 20000
	sparsity01 = 0.1
)

// fusedState is the shared input set of fused_ops and its prepared
// programs.
type fusedState struct {
	shared   map[string]*matrix.Matrix
	programs []*program
	specs    map[string]fusedSpec
	inputs   map[string]map[string]*matrix.Matrix // program -> bound inputs
}

// fusedInputs generates the shared inputs at the given scale.
func fusedInputs(seed int64, scale float64) map[string]*matrix.Matrix {
	rows := scaled(fusedRows, scale, 500)
	n := scaled(outerN, scale, 100)
	return map[string]*matrix.Matrix{
		"X":      matrix.Rand(rows, fusedCols, 1, -1, 1, seed+1),
		"Y":      matrix.Rand(rows, fusedCols, 1, -1, 1, seed+2),
		"Z":      matrix.Rand(rows, fusedCols, 1, -1, 1, seed+3),
		"Xs":     matrix.Rand(rows, fusedCols, sparsity01, -1, 1, seed+4),
		"v":      matrix.Rand(fusedCols, 1, 1, -1, 1, seed+5),
		"V2":     matrix.Rand(fusedCols, 2, 1, -1, 1, seed+6),
		"U":      matrix.Rand(n, outerRank, 1, 0.1, 1, seed+7),
		"V":      matrix.Rand(n, outerRank, 1, 0.1, 1, seed+8),
		"Xo1":    matrix.Rand(n, n, 0.1, 1, 2, seed+9),
		"Xo3":    matrix.Rand(n, n, 0.001, 1, 2, seed+10),
		"Xmnist": data.MnistLike(scaled(mnistRows, scale, 200), seed+11).ToDense(),
		"Xcodes": codesLike(scaled(fusedRows, scale, 2500), seed+12),
	}
}

// bind resolves a spec's input list ("X=Xs" binds shared Xs as X).
func bind(spec fusedSpec, shared map[string]*matrix.Matrix) map[string]*matrix.Matrix {
	in := map[string]*matrix.Matrix{}
	for _, item := range spec.inputs {
		name, from := item, item
		for i := 0; i < len(item); i++ {
			if item[i] == '=' {
				name, from = item[:i], item[i+1:]
			}
		}
		in[name] = shared[from]
	}
	return in
}

// prepared returns a session with in bound once, for repeated runs of one
// script (the paper's prepared-script setup: plan and block caches warm
// after the first run).
func prepared(cfg codegen.Config, in map[string]*matrix.Matrix) *dml.Session {
	s := dml.NewSession(cfg)
	s.Out = io.Discard
	for name, m := range in {
		s.Bind(name, m)
	}
	return s
}

// buildFused generates the inputs and prepares one session per program.
func buildFused(cfg config) (*batchState, error) {
	fs := &fusedState{
		shared: fusedInputs(cfg.seed*1000, cfg.scale),
		specs:  map[string]fusedSpec{},
		inputs: map[string]map[string]*matrix.Matrix{},
	}
	st := &batchState{fused: fs}
	if cfg.checksums {
		for _, name := range []string{"X", "Y", "Z", "Xs", "v", "V2", "U", "V", "Xo1", "Xo3", "Xmnist", "Xcodes"} {
			st.inputSum = checksum(st.inputSum, fs.shared[name])
		}
	}
	for _, spec := range fusedSpecs() {
		spec := spec
		in := bind(spec, fs.shared)
		sess := prepared(cfg.optimizer(codegen.ModeGen), in)
		p := &program{
			name: spec.name, tag: spec.tag, script: spec.script, outputs: spec.outputs, sess: sess, regretReps: 3,
			exec:  func() (*dml.Session, error) { return sess, sess.Run(spec.script) },
			check: func(map[string]mat, int) error { return nil },
			runMode: func(mode codegen.Mode, reps int) (float64, error) {
				s := prepared(cfg.optimizer(mode), in)
				defer s.Close()
				if err := s.Run(spec.script); err != nil {
					return 0, err
				}
				ds := make([]float64, reps)
				for i := range ds {
					t := time.Now()
					if err := s.Run(spec.script); err != nil {
						return 0, err
					}
					ds[i] = time.Since(t).Seconds()
				}
				return median(ds), nil
			},
		}
		p.bytes, p.flops = spec.work(in)
		p.reference = func() error {
			ref := spec.ref(in)
			p.also(func(got map[string]mat, stride int) error {
				return compareAll(got, ref, tolFused, stride)
			})
			return nil
		}
		fs.programs = append(fs.programs, p)
		fs.specs[spec.name] = spec
		fs.inputs[spec.name] = in
	}
	st.programs = fs.programs
	return st, nil
}
