package bench

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"sysml/internal/algos"
	"sysml/internal/codegen"
	"sysml/internal/data"
	"sysml/internal/dml"
	"sysml/internal/matrix"
)

// mixProgram is one program of the benchmark's batch_mix at seed 3: an
// algorithm run from script text in a fresh session per operation, or (warm)
// a Fig 8/9 operator re-run in a session prepared once.
type mixProgram struct {
	name    string
	script  string
	inputs  map[string]*matrix.Matrix
	scalars map[string]float64
	warm    bool
}

// session returns a session with the program's inputs bound.
func (p mixProgram) session(cfg codegen.Config) *dml.Session {
	cfg.Reopt.MinSec = math.Inf(1) // the counts of a run must not depend on the clock
	return newSessionCfg(cfg, p.inputs, p.scalars)
}

// mixSeed is what benchmark/ derives its inputs from at seed 3.
const mixSeed = 3000

// batchMixAlgorithms builds the 22 algorithm programs of batch_mix (Tables 4
// and 5) in the order a pass runs them, from the generators and seeds
// benchmark/ uses.
func batchMixAlgorithms(o Options) []mixProgram {
	var ps []mixProgram
	add := func(name string, a algos.Algorithm, in map[string]*matrix.Matrix, ov map[string]float64) {
		sc := map[string]float64{}
		for _, m := range []map[string]float64{a.Scalars, ov} {
			for k, v := range m {
				sc[k] = v
			}
		}
		ps = append(ps, mixProgram{name: name, script: a.Script, inputs: in, scalars: sc})
	}
	xs := []*matrix.Matrix{data.Dense(o.rows(150000), 10, mixSeed+1), data.AirlineLike(o.rows(25000), mixSeed+2),
		data.MnistLike(o.rows(4000), mixSeed+3), data.CodesLike(o.rows(25000), mixSeed+4)}
	for _, job := range table4Jobs {
		for i, ds := range []string{"syn", "airline", "mnist", "codes"} {
			add(strings.ToLower(job.a.Name)+"."+ds, job.a, labelled(job.a, xs[i], mixSeed+10+int64(i)), job.overrides)
		}
	}
	n := o.rows(1000)
	for _, ds := range []struct {
		name string
		x    *matrix.Matrix
	}{
		{"alscg.syn", matrix.Unary(matrix.UnAbs, data.Sparse(n, n, 0.01, mixSeed+63))},
		{"alscg.netflix", data.NetflixLike(o.rows(2000), n, mixSeed+64)},
		{"alscg.amazon", data.AmazonLike(o.rows(10000), o.rows(4000), mixSeed+65)},
		{"autoenc.syn", data.Dense(o.rows(10000), 50, mixSeed+66)},
		{"autoenc.mnist", data.MnistLike(o.rows(3000), mixSeed+67).ToDense()},
		{"autoenc.codes", data.CodesLike(o.rows(20000), mixSeed+68)},
	} {
		if strings.HasPrefix(ds.name, "autoenc") {
			add(ds.name, algos.AutoEncoder, map[string]*matrix.Matrix{"X": ds.x},
				map[string]float64{"epochs": 1, "batch": min(512, float64(ds.x.Rows/4)), "H1": 64, "H2": 2})
			continue
		}
		add(ds.name, algos.ALSCG, map[string]*matrix.Matrix{"X": ds.x, "U0": matrix.Rand(ds.x.Rows, 10, 1, 0.01, 0.1, mixSeed+61),
			"V0": matrix.Rand(ds.x.Cols, 10, 1, 0.01, 0.1, mixSeed+62)}, map[string]float64{"maxiter": 2, "rank": 10})
	}
	return ps
}

// batchMixOperators builds the 13 Fig 8/9 operator programs of batch_mix.
func batchMixOperators(o Options) []mixProgram {
	rows, on := o.rows(100000), o.rows(2000)
	shared := map[string]*matrix.Matrix{
		"X": matrix.Rand(rows, 100, 1, -1, 1, mixSeed+1), "Y": matrix.Rand(rows, 100, 1, -1, 1, mixSeed+2),
		"Z": matrix.Rand(rows, 100, 1, -1, 1, mixSeed+3), "Xs": matrix.Rand(rows, 100, 0.1, -1, 1, mixSeed+4),
		"v": matrix.Rand(100, 1, 1, -1, 1, mixSeed+5), "V2": matrix.Rand(100, 2, 1, -1, 1, mixSeed+6),
		"U": matrix.Rand(on, 100, 1, 0.1, 1, mixSeed+7), "V": matrix.Rand(on, 100, 1, 0.1, 1, mixSeed+8),
		"Xo1": matrix.Rand(on, on, 0.1, 1, 2, mixSeed+9), "Xo3": matrix.Rand(on, on, 0.001, 1, 2, mixSeed+10),
		"Xmnist": data.MnistLike(o.rows(20000), mixSeed+11).ToDense(), "Xcodes": data.CodesLike(rows, mixSeed+12),
	}
	const cell, magg, row, outer, sumsq = scriptCell, scriptMAgg, scriptRow, scriptOuter, "s = sum(X^2)"
	var ps []mixProgram
	for _, f := range [][]string{ // name, script, bindings ("X=Xs" binds the shared matrix Xs as X)
		{"cell.dense", cell, "X", "Y", "Z"}, {"cell.sparse", cell, "X=Xs", "Y", "Z"},
		{"magg.dense", magg, "X", "Y", "Z"}, {"magg.sparse", magg, "X=Xs", "Y", "Z"},
		{"row.dense", row, "X", "v"}, {"row.sparse", row, "X=Xs", "v"}, {"rowmm.dense", row, "X", "v=V2"},
		{"outer.sp0.1", outer, "X=Xo1", "U", "V"}, {"outer.sp0.001", outer, "X=Xo3", "U", "V"},
		{"hfuse.dense", "C = colSums(X)\ns = sum(X^2)\nY = X*3+1", "X"},
		{"sumsq.ula", sumsq, "X"}, {"sumsq.cla", sumsq, "X=Xcodes"}, {"sumsq.ole", sumsq, "X=Xmnist"},
	} {
		in := map[string]*matrix.Matrix{}
		for _, b := range f[2:] {
			name, from, renamed := strings.Cut(b, "=")
			if !renamed {
				from = name
			}
			in[name] = shared[from]
		}
		ps = append(ps, mixProgram{name: f[0], script: f[1], inputs: in, warm: true})
	}
	return ps
}

// Regret runs the 35 batch_mix programs under the five modes and reports how
// far Gen is from the best of them: t(Gen) / best (ROADMAP 11d). The modes
// of a program are interleaved, one run each per repetition in an order that
// changes, so that all five see the same caches and the same drift of the
// host; a program counts as regretted when the ratio of the medians is above
// 1.15 and Gen lost at least nine tenths of the paired repetitions. Each
// such program gets one class: search (under the model, the plans Gen ran
// cost more than a heuristic's, or than those of the search with every
// pruning off), overhead (optimization and operator compilation make up the
// gap), execution (the same model cost, so the same plan, and another time)
// or model (Gen is cheapest under the model and slower on the clock), with
// the operator of Gen's cost audit whose prediction is furthest off.
func Regret(o Options) *Table {
	reps := max(o.Reps, 1)
	t := &Table{
		Title:   fmt.Sprintf("Plan regret, batch_mix programs, median of %d interleaved runs [ms]", reps),
		Columns: append(append([]string{"program"}, ModeNames()...), "Gen/best", "Gen/heur", "lost", "class"),
	}
	const gen, fa, fnr = 2, 3, 4
	var logAll, logAlgo, algorithms float64
	for _, p := range append(batchMixAlgorithms(o), batchMixOperators(o)...) {
		times := make([][]float64, len(Modes))
		sess := make([]*dml.Session, len(Modes))
		for rep := -1; rep < reps; rep++ { // repetition -1 warms up
			for k := range Modes {
				// A stride coprime with five: every repetition another order.
				m := (k*(1+(rep+1)%4) + rep + 1) % len(Modes)
				if Modes[m] == codegen.ModeBase && p.name == "alscg.amazon" {
					continue // 10 s: no sparsity exploitation over 10000x4000
				}
				start := time.Now()
				if sess[m] == nil || !p.warm {
					sess[m] = p.session(modeConfig(Modes[m]))
				}
				if err := sess[m].Run(p.script); err != nil {
					panic(fmt.Sprintf("%s under %v: %v", p.name, Modes[m], err))
				}
				if rep >= 0 {
					times[m] = append(times[m], time.Since(start).Seconds())
				}
			}
		}
		med := make([]float64, len(Modes))
		row := []string{p.name}
		for m := range Modes {
			med[m] = math.Inf(1)
			if len(times[m]) == 0 {
				row = append(row, "-")
				continue
			}
			sorted := slices.Clone(times[m])
			slices.Sort(sorted)
			med[m] = sorted[len(sorted)/2]
			row = append(row, fmt.Sprintf("%.2f", med[m]*1e3))
		}
		best := fa
		for m := range Modes {
			if m != gen && med[m] < med[best] {
				best = m
			}
		}
		lost := 0
		for i := range times[gen] {
			if times[gen][i] > times[best][i] {
				lost++
			}
		}
		ratio := med[gen] / med[best]
		logAll += math.Log(max(ratio, 1))
		if !p.warm {
			logAlgo += math.Log(max(ratio, 1))
			algorithms++
		}
		class := ""
		if ratio > 1.15 && 10*lost >= 9*reps {
			class = regretClass(p, reps+1, sess[gen], sess[best], sess[fa], sess[fnr], med[gen]-med[best])
		}
		t.Add(append(row, fmt.Sprintf("%.2f", ratio), fmt.Sprintf("%.2f", med[gen]/min(med[fa], med[fnr])),
			fmt.Sprintf("%d/%d", lost, reps), class)...)
	}
	t.Add("geomean", "", "", "", "", "", fmt.Sprintf("%.3f", math.Exp(logAll/float64(len(t.Rows)))),
		fmt.Sprintf("algorithms %.3f", math.Exp(logAlgo/algorithms)))
	return t
}

// regretClass names why Gen lost gap seconds to the session best, from the
// cost audits of the sessions the modes ran last (a warm one runs times).
func regretClass(p mixProgram, runs int, gen, best, fa, fnr *dml.Session, gap float64) string {
	if !p.warm {
		runs = 1
	}
	pred := func(s *dml.Session) float64 { return s.CostAudit().TotalPredSec / float64(runs) }
	exhaustive := codegen.DefaultConfig()
	exhaustive.EnablePartition, exhaustive.EnableCostPrune, exhaustive.EnableStructPrune = false, false, false
	full := p.session(exhaustive)
	if err := full.Run(p.script); err != nil {
		panic(fmt.Sprintf("%s with pruning off: %v", p.name, err))
	}
	const tol = 1 + 1e-6
	unpruned := full.CostAudit().TotalPredSec
	switch g := pred(gen); {
	case g > pred(fa)*tol || g > pred(fnr)*tol || g > unpruned*tol:
		return fmt.Sprintf("search (model: Gen %.3g, Gen-FA %.3g, Gen-FNR %.3g, unpruned %.3g s)", g, pred(fa), pred(fnr), unpruned)
	case (gen.Stats.CodegenTime - best.Stats.CodegenTime).Seconds() >= gap/2:
		return fmt.Sprintf("overhead (optimize+compile %.2f ms)", gen.Stats.CodegenTime.Seconds()*1e3)
	case math.Abs(g-pred(best)) <= 1e-6*g:
		return "execution"
	}
	if groups := gen.CostAudit().Groups; len(groups) > 0 {
		w := groups[0]
		return fmt.Sprintf("model (%s: predicted %.3g s, ran %.3g s over %d calls)", w.Op, w.PredSec, w.ActualSec, w.Count)
	}
	return "model"
}
