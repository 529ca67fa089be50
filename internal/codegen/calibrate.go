package codegen

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"sysml/internal/obs"
)

// Cost calibration: the analytical cost model (§4.3) prices plans with four
// hardware constants (ReadBW, WriteBW, ComputeBW, BroadcastBW) that the paper
// measured on its cluster. On any other machine those constants are wrong by
// an unknown factor each, and mis-costed plans follow. Fit derives them once
// per machine from the cost-audit ledger of a streaming microbenchmark; the
// result persists as a small JSON Profile (written by `fusebench -exp
// calibrate`) that sessions and engines load at start.

// Fit tuning constants. The floors guard the fit against clock noise.
const (
	// calibMinSec drops operator groups whose mean execution is faster than
	// 20µs: at that scale the wall time is clock granularity and dispatch
	// overhead, not bandwidth.
	calibMinSec = 20e-6
	// calibMinSamples is the weighted observation count below which Fit
	// returns the prior.
	calibMinSamples = 16
	// calibPriorWeight is the pseudo-sample count of the prior constants in
	// the ridge blend: with n real observations the data-vs-prior mix is
	// n/(n+calibPriorWeight).
	calibPriorWeight = 8.0
	// calibMinDistObs is the minimum number of distributed observations
	// with broadcast traffic required before BroadcastBW is fitted.
	calibMinDistObs = 3
)

// Bandwidth/compute plausibility bounds: fitted constants outside
// [calibMinRate, calibMaxRate] are rejected (the fit degenerated).
const (
	calibMinRate = 1e6
	calibMaxRate = 1e15
)

// calObs is one calibration observation: an operator group's mean measured
// wall time against the byte and flop volumes the model charges, weighted by
// the group's execution count.
type calObs struct {
	sec    float64
	flops  float64
	readB  float64 // input bytes read at ReadBW (excludes broadcast side)
	writeB float64 // output bytes written at WriteBW
	bcastB float64 // broadcast side-input bytes (distributed only)
	weight float64
}

// Fit fits ReadBW, WriteBW, ComputeBW and BroadcastBW to a cost-audit ledger
// roll-up: each operator group contributes one observation at its
// per-execution mean volumes, weighted by its count. It returns the fitted
// model and the number of usable groups; below calibMinSamples weighted
// observations (or three distinct ones, the floor for a three-parameter
// fit) the model is prior.
//
// Method: weighted least squares on the additive surrogate
// sec ≈ readB/R + writeB/W + flops/C with relative-error weights and a ridge
// pull toward the prior (which also keeps the system well-posed when a
// column is absent), hardened by two IRLS rounds with Cauchy weights against
// outliers; BroadcastBW from the median residual rate of distributed
// observations; and a final median rescale under the model's true
// tw + max(tr, tc) form so the median signed error of the fit window is
// centered at zero (BroadcastBW only rescales when it was fitted: a window
// without broadcast bytes leaves it at the prior).
func Fit(prior CostModel, s obs.AuditSummary) (CostModel, int) {
	var obsv []calObs
	var totalWeight float64
	for _, g := range s.Groups {
		if g.Count == 0 {
			continue
		}
		n := float64(g.Count)
		sec := g.ActualSec / n
		if sec < calibMinSec {
			continue
		}
		obsv = append(obsv, calObs{
			sec:    sec,
			flops:  g.ActualFlops / n,
			readB:  max(float64(g.ActualInBytes-g.BcastBytes)/n, 0),
			writeB: float64(g.ActualOutBytes) / n,
			bcastB: float64(g.BcastBytes) / n,
			weight: n,
		})
		totalWeight += n
	}
	if len(obsv) < 3 || totalWeight < calibMinSamples {
		return prior, len(obsv)
	}

	x0 := [3]float64{1 / prior.ReadBW, 1 / prior.WriteBW, 1 / prior.ComputeBW}
	x := x0
	w := make([]float64, len(obsv))
	for i, o := range obsv {
		w[i] = o.weight / (o.sec * o.sec)
	}
	tau := calibPriorWeight / (calibPriorWeight + totalWeight)
	for round := 0; round < 3; round++ {
		if round > 0 {
			// IRLS: down-weight observations the current fit misses badly.
			for i, o := range obsv {
				pred := o.readB*x[0] + o.writeB*x[1] + o.flops*x[2]
				r := (pred - o.sec) / o.sec
				w[i] = o.weight / (o.sec * o.sec) / (1 + r*r)
			}
		}
		var ata [3][3]float64
		var atb [3]float64
		for i, o := range obsv {
			a := [3]float64{o.readB, o.writeB, o.flops}
			for j := 0; j < 3; j++ {
				for k := 0; k < 3; k++ {
					ata[j][k] += w[i] * a[j] * a[k]
				}
				atb[j] += w[i] * a[j] * o.sec
			}
		}
		lambda := tau * (ata[0][0] + ata[1][1] + ata[2][2]) / 3
		if lambda <= 0 {
			return prior, len(obsv) // no byte/flop signal at all
		}
		for j := 0; j < 3; j++ {
			// Per-column ridge scaled to the prior's magnitude so absent
			// columns resolve exactly to the prior constant.
			lj := lambda
			if ata[j][j] == 0 {
				lj = 1 // any positive value pins x[j] = x0[j]
			}
			ata[j][j] += lj
			atb[j] += lj * x0[j]
		}
		sol, ok := solve3(ata, atb)
		if !ok {
			return prior, len(obsv)
		}
		x = sol
	}
	for j := 0; j < 3; j++ {
		if !(x[j] > 0) || math.IsInf(x[j], 0) {
			x[j] = x0[j]
		}
	}

	// BroadcastBW from distributed observations: the residual after the
	// local terms, attributed to broadcast bytes.
	xb := 1 / prior.BroadcastBW
	var rates []float64
	for _, o := range obsv {
		if o.bcastB <= 0 {
			continue
		}
		resid := o.sec - o.writeB*x[1] - math.Max(o.readB*x[0], o.flops*x[2])
		if resid > 0 {
			rates = append(rates, resid/o.bcastB)
		}
	}
	fitB := len(rates) >= calibMinDistObs
	if fitB {
		xb = median(rates)
	}

	// Median rescale under the true prediction form: makes the median
	// signed relative error of the fit window zero, correcting the additive
	// surrogate's systematic over-count versus max(tr, tc).
	var ratios []float64
	for _, o := range obsv {
		tr := o.readB*x[0] + o.bcastB*xb
		pred := o.writeB*x[1] + math.Max(tr, o.flops*x[2])
		if pred > 0 {
			ratios = append(ratios, o.sec/pred)
		}
	}
	if len(ratios) > 0 {
		med := median(ratios)
		if med > 0 && !math.IsInf(med, 0) {
			for j := 0; j < 3; j++ {
				x[j] *= med
			}
			if fitB {
				xb *= med
			}
		}
	}

	return CostModel{
		ReadBW:      clampRate(1/x[0], prior.ReadBW),
		WriteBW:     clampRate(1/x[1], prior.WriteBW),
		ComputeBW:   clampRate(1/x[2], prior.ComputeBW),
		BroadcastBW: clampRate(1/xb, prior.BroadcastBW),
	}, len(obsv)
}

func clampRate(v, fallback float64) float64 {
	if math.IsNaN(v) || v < calibMinRate || v > calibMaxRate {
		return fallback
	}
	return v
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// solve3 solves a 3×3 linear system by Gaussian elimination with partial
// pivoting; ok is false when the system is singular.
func solve3(a [3][3]float64, b [3]float64) ([3]float64, bool) {
	for col := 0; col < 3; col++ {
		piv := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-300 {
			return [3]float64{}, false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for k := col; k < 3; k++ {
				a[r][k] -= f * a[col][k]
			}
			b[r] -= f * b[col]
		}
	}
	var x [3]float64
	for i := 0; i < 3; i++ {
		x[i] = b[i] / a[i][i]
	}
	return x, true
}

// ProfileVersion is the calibration profile version; LoadProfile rejects
// files written under a different one. It counts what the fitted constants
// mean as well as how they are laid out: version 1 profiles were fitted
// against the scalar Go vector primitives, whose flop rate is 4-6x below
// that of the AVX2+FMA kernels, so loading one would price every
// compute-bound operator several times too dear. Version 3 added
// compress_bw and version 4 re-timed it; the field is gone, but the four
// fitted constants of a version 4 file mean what they meant, so it still
// loads (encoding/json ignores compress_bw).
const ProfileVersion = 4

// ProfileMaxAge is the staleness bound: profiles older than this are
// rejected by LoadProfile (hardware and build characteristics drift; a
// months-old fit is worse than re-measuring).
const ProfileMaxAge = 90 * 24 * time.Hour

// Profile is the persisted per-machine calibration result: the four fitted
// cost-model constants plus provenance (schema version, creation time,
// sample count). See docs/COST_MODEL.md for the on-disk contract.
type Profile struct {
	Version     int     `json:"version"`
	CreatedUnix int64   `json:"created_unix"`
	Samples     int64   `json:"samples"`
	ReadBW      float64 `json:"read_bw"`
	WriteBW     float64 `json:"write_bw"`
	FlopRate    float64 `json:"flop_rate"`
	BroadcastBW float64 `json:"broadcast_bw"`
}

// CostModel converts the profile to optimizer constants.
func (p Profile) CostModel() CostModel {
	return CostModel{ReadBW: p.ReadBW, WriteBW: p.WriteBW, ComputeBW: p.FlopRate,
		BroadcastBW: p.BroadcastBW}
}

// Validate checks the profile's schema version and that every constant is
// a finite positive rate within plausible hardware bounds.
func (p Profile) Validate() error {
	if p.Version != ProfileVersion {
		return fmt.Errorf("calibration profile version %d (want %d)", p.Version, ProfileVersion)
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"read_bw", p.ReadBW}, {"write_bw", p.WriteBW},
		{"flop_rate", p.FlopRate}, {"broadcast_bw", p.BroadcastBW},
	} {
		if math.IsNaN(c.v) || c.v < calibMinRate || c.v > calibMaxRate {
			return fmt.Errorf("calibration profile %s %g outside [%g, %g]", c.name, c.v, float64(calibMinRate), float64(calibMaxRate))
		}
	}
	return nil
}

// LoadProfile reads and validates a calibration profile. It returns an
// error — and callers fall back to DefaultCostModel — for unreadable or
// corrupt JSON, a schema version mismatch, implausible constants, or a
// creation time in the future or older than ProfileMaxAge.
func LoadProfile(path string) (Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Profile{}, err
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return Profile{}, fmt.Errorf("calibration profile %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return Profile{}, fmt.Errorf("calibration profile %s: %w", path, err)
	}
	age := time.Since(time.Unix(p.CreatedUnix, 0))
	if age < 0 {
		return Profile{}, fmt.Errorf("calibration profile %s is stamped %s in the future", path, (-age).Round(time.Second))
	}
	if age > ProfileMaxAge {
		return Profile{}, fmt.Errorf("calibration profile %s is stale (%s old, max %s)", path, age.Round(time.Hour), ProfileMaxAge)
	}
	return p, nil
}

// Save writes the profile as indented JSON (atomic enough for a config
// file: full rewrite, no partial append).
func (p Profile) Save(path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
