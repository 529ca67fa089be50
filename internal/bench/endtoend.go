package bench

import (
	"fmt"
	"io"
	"time"

	"sysml/internal/algos"
	"sysml/internal/codegen"
	"sysml/internal/data"
	"sysml/internal/matrix"
)

// namedInput is one dataset configuration for an algorithm.
type namedInput struct {
	name   string
	inputs map[string]*matrix.Matrix
}

func timeAlgo(a algos.Algorithm, mode codegen.Mode, inputs map[string]*matrix.Matrix,
	overrides map[string]float64) (time.Duration, error) {
	cfg := codegen.DefaultConfig()
	cfg.Mode = mode
	start := time.Now()
	_, err := a.Run(cfg, inputs, overrides, nil, io.Discard)
	return time.Since(start), err
}

func endToEndRow(t *Table, a algos.Algorithm, in namedInput, overrides map[string]float64) {
	row := []string{a.Name, in.name}
	for _, mode := range Modes {
		d, err := timeAlgo(a, mode, in.inputs, overrides)
		if err != nil {
			row = append(row, "ERR")
			continue
		}
		row = append(row, secs(d))
	}
	t.Add(row...)
}

// labelled pairs x with what algorithm a reads beside it: labels, a class
// indicator, or initial centroids.
func labelled(a algos.Algorithm, x *matrix.Matrix, seed int64) map[string]*matrix.Matrix {
	in := map[string]*matrix.Matrix{"X": x}
	switch a.Name {
	case "L2SVM":
		in["Y"] = data.BinaryLabels(x, 0.05, seed)
	case "GLM":
		in["Y"] = data.ZeroOneLabels(data.BinaryLabels(x, 0.05, seed))
	case "MLogreg":
		in["Yfull"] = data.MultiClassIndicator(x, 3, seed)
	case "KMeans":
		in["C0"] = matrix.Rand(5, x.Cols, 1, -1, 1, seed)
	}
	return in
}

// classificationInputs builds the Table 4 dataset list for one algorithm:
// synthetic dense (two scales), Airline78-like, and Mnist-like.
func classificationInputs(o Options, a algos.Algorithm) []namedInput {
	return []namedInput{
		{fmt.Sprintf("%dx10 dense", o.rows(100000)), labelled(a, data.Dense(o.rows(100000), 10, 31), 41)},
		{fmt.Sprintf("%dx10 dense", o.rows(300000)), labelled(a, data.Dense(o.rows(300000), 10, 32), 42)},
		{"Airline78-like", labelled(a, data.AirlineLike(o.rows(50000), 33), 43)},
		{"Mnist-like", labelled(a, data.MnistLike(o.rows(8000), 34), 44)},
	}
}

// table4Jobs are the data-intensive algorithms with their iteration counts.
var table4Jobs = []struct {
	a         algos.Algorithm
	overrides map[string]float64
}{
	{algos.L2SVM, map[string]float64{"maxiter": 10}},
	{algos.MLogreg, map[string]float64{"maxiter": 5, "inneriter": 5, "k": 3}},
	{algos.GLM, map[string]float64{"maxiter": 5, "inneriter": 5}},
	{algos.KMeans, map[string]float64{"maxiter": 10}},
}

// Table4DataIntensive reproduces Table 4: end-to-end runtimes of the four
// data-intensive algorithms across datasets and system variants.
func Table4DataIntensive(o Options) *Table {
	t := &Table{
		Title:   "Table 4: Runtime of Data-Intensive Algorithms [s]",
		Columns: append([]string{"algorithm", "data"}, ModeNames()...),
	}
	for _, job := range table4Jobs {
		for _, in := range classificationInputs(o, job.a) {
			endToEndRow(t, job.a, in, job.overrides)
		}
	}
	return t
}

// Fig13Hybrid reproduces Fig. 13: MLogreg and KMeans runtime with an
// increasing number of classes/centroids (growing intermediates shift the
// workload from memory-bandwidth- to compute-bound).
func Fig13Hybrid(o Options) []*Table {
	rows, cols := o.rows(50000), 100
	x := data.Dense(rows, cols, 51)
	sweep := func(title string, a algos.Algorithm, inputs func(k int) map[string]*matrix.Matrix, ov map[string]float64) *Table {
		t := &Table{Title: title, Columns: append([]string{"k"}, ModeNames()...)}
		for _, k := range []int{2, 4, 8, 16, 32} {
			ov["k"] = float64(k)
			endToEndRow(t, a, namedInput{fmt.Sprintf("%d", k), inputs(k)}, ov)
			t.Rows[len(t.Rows)-1] = t.Rows[len(t.Rows)-1][1:] // no algorithm column
		}
		return t
	}
	return []*Table{
		sweep("Fig 13a: MLogreg, increasing #classes", algos.MLogreg, func(k int) map[string]*matrix.Matrix {
			return map[string]*matrix.Matrix{"X": x, "Yfull": data.MultiClassIndicator(x, k, 52)}
		}, map[string]float64{"maxiter": 3, "inneriter": 4}),
		sweep("Fig 13b: KMeans, increasing #centroids", algos.KMeans, func(k int) map[string]*matrix.Matrix {
			return map[string]*matrix.Matrix{"X": x, "C0": matrix.Rand(k, cols, 1, -1, 1, 53)}
		}, map[string]float64{"maxiter": 5}),
	}
}

// Table5ComputeIntensive reproduces Table 5: ALS-CG over synthetic sparse,
// Netflix-like, and Amazon-like data, and AutoEncoder over dense and
// Mnist-like data.
func Table5ComputeIntensive(o Options) *Table {
	t := &Table{
		Title:   "Table 5: Runtime of Compute-Intensive Algorithms [s]",
		Columns: append([]string{"algorithm", "data"}, ModeNames()...),
	}
	alsFactors := func(rows, cols int) map[string]*matrix.Matrix {
		return map[string]*matrix.Matrix{
			"U0": matrix.Rand(rows, 20, 1, 0.01, 0.1, 61),
			"V0": matrix.Rand(cols, 20, 1, 0.01, 0.1, 62),
		}
	}
	alsInputs := []namedInput{}
	addALS := func(name string, x *matrix.Matrix) {
		in := alsFactors(x.Rows, x.Cols)
		in["X"] = x
		alsInputs = append(alsInputs, namedInput{name, in})
	}
	n1 := o.rows(2000)
	addALS(fmt.Sprintf("%dx%d sparse(0.01)", n1, n1),
		matrix.Unary(matrix.UnAbs, data.Sparse(n1, n1, 0.01, 63)))
	addALS("Netflix-like", data.NetflixLike(o.rows(4000), o.rows(2000), 64))
	addALS("Amazon-like", data.AmazonLike(o.rows(20000), o.rows(8000), 65))
	for _, in := range alsInputs {
		endToEndRow(t, algos.ALSCG, in, map[string]float64{"maxiter": 2, "rank": 10})
	}
	aeInputs := []namedInput{
		{fmt.Sprintf("%dx50 dense", o.rows(20000)),
			map[string]*matrix.Matrix{"X": data.Dense(o.rows(20000), 50, 66)}},
		{"Mnist1m-like", map[string]*matrix.Matrix{"X": data.MnistLike(o.rows(6000), 67).ToDense()}},
	}
	for _, in := range aeInputs {
		batch := 512.0
		if n := in.inputs["X"].Rows; n < 2048 {
			batch = float64(n / 4)
		}
		endToEndRow(t, algos.AutoEncoder, in,
			map[string]float64{"epochs": 1, "batch": batch, "H1": 64, "H2": 2})
	}
	return t
}
