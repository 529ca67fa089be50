package main

import (
	"fmt"
	"io"
	"time"

	"sysml/internal/algos"
	"sysml/internal/codegen"
	"sysml/internal/data"
	"sysml/internal/dml"
	"sysml/internal/matrix"
)

// scaled multiplies a row count by the run's scale (1 for real runs, tiny
// for tests and the self-check), with a floor that keeps every script
// valid (mini-batches, k-means centroids, factor ranks).
func scaled(base int, scale float64, floor int) int {
	if n := int(float64(base) * scale); n > floor {
		return n
	}
	return floor
}

// codesLike is a synthetic table of 29 dense columns of small integer codes
// (4..127 distinct values each) that auto-compression accepts. It stands
// beside data.AirlineLike, the repository's Airline78-like table, which
// auto-compression declines today (the sampled estimator reads 1.87 where
// the actual ratio is 3.7; README.md, Findings): the programs named
// <algo>.airline run AirlineLike and show that decline in
// compress.auto_declined, the programs named <algo>.codes run this table
// and are the ones tagged compressed.
func codesLike(rows int, seed int64) *matrix.Matrix {
	const cols = 29
	card := matrix.Rand(1, cols, 1, 4, 128, seed).Dense()
	m := matrix.Rand(rows, cols, 1, 0, 1, seed+1)
	d := m.Dense()
	for k := range d {
		d[k] = float64(int(d[k] * float64(int(card[k%cols]))))
	}
	return m
}

// algoProgram builds the program that runs algorithm a on inputs in, from
// script text in a fresh session, as Algorithm.Run does. With base set,
// the reference is the same script run once under ModeBase, which bypasses
// codegen, cplan and the fused runtime skeletons.
func algoProgram(cfg config, name, tag string, a algos.Algorithm, in map[string]*matrix.Matrix, ov map[string]float64, base bool) *program {
	under := func(mode codegen.Mode) (*dml.Session, error) {
		return a.Run(cfg.optimizer(mode), in, ov, nil, io.Discard)
	}
	p := &program{
		name: name, tag: tag, script: a.Script, outputs: a.Outputs,
		exec:  func() (*dml.Session, error) { return under(codegen.ModeGen) },
		check: func(map[string]mat, int) error { return nil },
		runMode: func(mode codegen.Mode, reps int) (float64, error) {
			ds := make([]float64, reps)
			for i := range ds {
				t := time.Now()
				if _, err := under(mode); err != nil {
					return 0, err
				}
				ds[i] = time.Since(t).Seconds()
			}
			return median(ds), nil
		},
		noBase: !base, regretReps: 1,
	}
	if base {
		p.reference = func() error {
			t := time.Now()
			s, err := under(codegen.ModeBase)
			if err != nil {
				return fmt.Errorf("%s under Base: %w", name, err)
			}
			p.baseSec = time.Since(t).Seconds()
			ref := map[string]mat{}
			for _, out := range a.Outputs {
				m, err := s.Get(out)
				if err != nil {
					return err
				}
				ref[out] = copyMat(m)
			}
			p.also(func(got map[string]mat, stride int) error {
				return compareAll(got, ref, tolAlgo, stride)
			})
			return nil
		}
	}
	return p
}

// inputsSum checksums the inputs of the programs in name order of
// construction.
func inputsSum(h uint64, in map[string]*matrix.Matrix, names ...string) uint64 {
	for _, n := range names {
		h = checksum(h, in[n])
	}
	return h
}

// Table-4 iteration overrides (internal/bench Table4DataIntensive).
var table4 = []struct {
	a  algos.Algorithm
	ov map[string]float64
}{
	{algos.L2SVM, map[string]float64{"maxiter": 10}},
	{algos.MLogreg, map[string]float64{"maxiter": 5, "inneriter": 5, "k": 3}},
	{algos.GLM, map[string]float64{"maxiter": 5, "inneriter": 5}},
	{algos.KMeans, map[string]float64{"maxiter": 10}},
}

// buildAlgosDense sets up Table 4: four data-intensive algorithms over a
// dense synthetic, an Airline78-like and a sparse Mnist-like input, and over
// the compressible codes table; 16 programs named <algo>.<data>. A tag says
// how the program's X is stored when the operators run.
func buildAlgosDense(cfg config) (*batchState, error) {
	seed := cfg.seed * 1000
	datasets := []struct {
		name, tag string
		x         *matrix.Matrix
	}{
		{"syn", "dense", data.Dense(scaled(150000, cfg.scale, 600), 10, seed+1)},
		{"airline", "dense", data.AirlineLike(scaled(25000, cfg.scale, 600), seed+2)},
		{"mnist", "sparse", data.MnistLike(scaled(4000, cfg.scale, 200), seed+3)},
		{"codes", "compressed", codesLike(scaled(25000, cfg.scale, 600), seed+4)},
	}
	st := &batchState{}
	for _, job := range table4 {
		for i, ds := range datasets {
			in := map[string]*matrix.Matrix{"X": ds.x}
			ls := seed + 10 + int64(i)
			var second string
			switch job.a.Name {
			case "L2SVM":
				second, in["Y"] = "Y", data.BinaryLabels(ds.x, 0.05, ls)
			case "GLM":
				second, in["Y"] = "Y", data.ZeroOneLabels(data.BinaryLabels(ds.x, 0.05, ls))
			case "MLogreg":
				second, in["Yfull"] = "Yfull", data.MultiClassIndicator(ds.x, 3, ls)
			case "KMeans":
				second, in["C0"] = "C0", matrix.Rand(5, ds.x.Cols, 1, -1, 1, ls)
			}
			name := shortName[job.a.Name] + "." + ds.name
			st.programs = append(st.programs, algoProgram(cfg, name, ds.tag, job.a, in, job.ov, true))
			if cfg.checksums {
				st.inputSum = inputsSum(st.inputSum, in, "X", second)
			}
		}
	}
	return st, nil
}

var shortName = map[string]string{
	"L2SVM": "l2svm", "MLogreg": "mlogreg", "GLM": "glm", "KMeans": "kmeans",
	"ALS-CG": "alscg", "AutoEncoder": "autoenc",
}

// buildAlgosSparse sets up Table 5: ALS-CG over three sparse rating
// matrices and the mini-batch AutoEncoder over two dense inputs and the
// compressible codes table.
func buildAlgosSparse(cfg config) (*batchState, error) {
	seed := cfg.seed * 1000
	st := &batchState{}
	const rank = 10
	alsOv := map[string]float64{"maxiter": 2, "rank": rank}
	als := func(name string, x *matrix.Matrix, base bool) {
		in := map[string]*matrix.Matrix{
			"X":  x,
			"U0": matrix.Rand(x.Rows, rank, 1, 0.01, 0.1, seed+61),
			"V0": matrix.Rand(x.Cols, rank, 1, 0.01, 0.1, seed+62),
		}
		p := algoProgram(cfg, name, "sparse", algos.ALSCG, in, alsOv, base)
		initLoss := refALSLoss(x, matOf(in["U0"]), matOf(in["V0"]))
		p.also(func(got map[string]mat, _ int) error { return checkALS(x, got, initLoss) })
		st.programs = append(st.programs, p)
		if cfg.checksums {
			st.inputSum = inputsSum(st.inputSum, in, "X", "U0", "V0")
		}
	}
	n := scaled(1000, cfg.scale, 100)
	als("alscg.syn", matrix.Unary(matrix.UnAbs, data.Sparse(n, n, 0.01, seed+63)), true)
	als("alscg.netflix", data.NetflixLike(scaled(2000, cfg.scale, 100), scaled(1000, cfg.scale, 100), seed+64), true)
	// Base takes 10 s here (no sparsity exploitation over 10000x4000), so
	// the only reference is the loss recomputed from the returned factors.
	als("alscg.amazon", data.AmazonLike(scaled(10000, cfg.scale, 200), scaled(4000, cfg.scale, 100), seed+65), false)

	ae := func(name, tag string, x *matrix.Matrix) {
		batch := 512.0
		if x.Rows < 2048 {
			batch = float64(x.Rows / 4)
		}
		ov := map[string]float64{"epochs": 1, "batch": batch, "H1": 64, "H2": 2}
		in := map[string]*matrix.Matrix{"X": x}
		st.programs = append(st.programs, algoProgram(cfg, name, tag, algos.AutoEncoder, in, ov, true))
		if cfg.checksums {
			st.inputSum = inputsSum(st.inputSum, in, "X")
		}
	}
	ae("autoenc.syn", "dense", data.Dense(scaled(10000, cfg.scale, 256), 50, seed+66))
	ae("autoenc.mnist", "dense", data.MnistLike(scaled(3000, cfg.scale, 128), seed+67).ToDense())
	// Not in Table 5: the codes table, which auto-compresses but is only
	// read through mini-batch slices, so its compressed form never pays
	// off. Every workload must report compressed_ms (builder contract), and
	// this is what the auto-compression decision costs on a loop of small
	// blocks.
	ae("autoenc.codes", "compressed", codesLike(scaled(20000, cfg.scale, 256), seed+68))
	return st, nil
}
