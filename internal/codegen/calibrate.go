package codegen

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"sysml/internal/obs"
)

// Feedback-driven cost calibration: the analytical cost model (§4.3) prices
// plans with four hardware constants (ReadBW, WriteBW, ComputeBW,
// BroadcastBW) that the paper measured on its cluster. On any other machine
// those constants are wrong by an unknown factor each, and mis-costed plans
// follow. The Calibrator closes the loop: it consumes the cost-audit
// ledger's measured bytes/flops-vs-wall-time observations, fits the four
// constants by robust regression, and republishes them so the interpreter
// can re-optimize cached block plans under the corrected model. A fifth
// constant, CompressBW, is the median rate of the compressions the
// interpreter timed (ObserveCompress). Fitted constants persist to a small per-machine JSON profile (Profile) that
// NewSession/NewEngine callers can load to start warm.

// Calibration tuning constants. The floors guard the fit against clock
// noise and cold-start effects; the cadence bounds refit work.
const (
	// calibMinSec drops observations faster than 20µs: at that scale the
	// wall time is clock granularity and dispatch overhead, not bandwidth.
	calibMinSec = 20e-6
	// calibWarmupPerOp skips the first observation of every operator label
	// (cold caches, first-touch page faults).
	calibWarmupPerOp = 1
	// calibMinSamples is the observation count below which Refit declines.
	calibMinSamples = 16
	// calibRefitEvery triggers an automatic refit after this many fresh
	// observations.
	calibRefitEvery = 32
	// calibReservoirCap bounds the retained observation window (a ring:
	// newest observations overwrite the oldest).
	calibReservoirCap = 1024
	// calibPriorWeight is the pseudo-sample count of the prior constants in
	// the ridge blend: with n real observations the data-vs-prior mix is
	// n/(n+calibPriorWeight).
	calibPriorWeight = 8.0
	// calibGenBumpRatio is the per-constant change factor above which a
	// refit bumps the generation counter (invalidating optimized plans);
	// smaller drifts keep plans stable.
	calibGenBumpRatio = 1.25
	// calibMinDistObs is the minimum number of distributed observations
	// with broadcast traffic required before BroadcastBW is refit.
	calibMinDistObs = 3
	// calibMinCompressObs is the number of timed compressions required
	// before CompressBW leaves its prior; calibCompressCap bounds the
	// retained window of their rates.
	calibMinCompressObs = 3
	calibCompressCap    = 64
)

// Bandwidth/compute plausibility bounds: fitted constants outside
// [calibMinRate, calibMaxRate] are rejected (the fit degenerated).
const (
	calibMinRate = 1e6
	calibMaxRate = 1e15
)

// calObs is one calibration observation: measured wall time against the
// byte and flop volumes the model charges, weighted (summary-derived
// observations carry their group's count).
type calObs struct {
	sec    float64
	flops  float64
	readB  float64 // input bytes read at ReadBW (excludes broadcast side)
	writeB float64 // output bytes written at WriteBW
	bcastB float64 // broadcast side-input bytes (distributed only)
	weight float64
}

// Calibrator fits the cost model's hardware constants from measured
// operator executions. It is safe for concurrent use: a serving engine
// shares one calibrator across every tenant session (runtime executors call
// Observe; interpreters poll Model/Gen before optimizing).
type Calibrator struct {
	mu      sync.Mutex
	prior   CostModel // fallback and ridge target (defaults or loaded profile)
	model   CostModel // current published constants
	gen     uint64    // bumped when a refit materially changes the model
	samples int64     // observations accepted into the reservoir
	skipped int64     // observations rejected by warm-up or the time floor
	refits  int64
	source  string // "defaults", "profile <path>", or "summary"

	obs      []calObs
	next     int       // ring write index once the reservoir is full
	compress []float64 // bytes/s of the last timed compressions (ObserveCompress)
	compNext int
	fresh    int // accepted observations since the last refit
	seenOps  map[string]int64
	profiled int64 // pseudo-samples carried in from an applied profile
}

// NewCalibrator returns a calibrator whose prior (and initial published
// model) is base — typically DefaultCostModel or a loaded Profile's model.
func NewCalibrator(base CostModel) *Calibrator {
	return &Calibrator{prior: base, model: base, source: "defaults", seenOps: map[string]int64{}}
}

// Observe feeds one cost-audit entry into the calibrator. Warm-up guarded:
// the first observation of each operator label and any observation below
// the 20µs floor are dropped. Every calibRefitEvery accepted observations
// the constants are refit automatically. Nil-safe.
func (c *Calibrator) Observe(e obs.AuditEntry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.seenOps) >= 4096 {
		c.seenOps = map[string]int64{}
	}
	c.seenOps[e.Op]++
	if c.seenOps[e.Op] <= calibWarmupPerOp || e.ActualSec < calibMinSec {
		c.skipped++
		return
	}
	c.addLocked(calObs{
		sec:    e.ActualSec,
		flops:  e.ActualFlops,
		readB:  float64(e.ActualInBytes - e.BcastBytes),
		writeB: float64(e.ActualOutBytes),
		bcastB: float64(e.BcastBytes),
		weight: 1,
	})
	if c.fresh >= calibRefitEvery && len(c.obs) >= calibMinSamples {
		c.refitLocked()
	}
}

// ObserveCompress feeds one timed compress.Compress call (the bytes of the
// matrix it read, the wall seconds it took) into the calibrator. CompressBW
// is the median of the retained rates once calibMinCompressObs of them
// exist; it prices a decision the interpreter takes per value, not a plan,
// so a change of it never bumps the generation. Nil-safe.
func (c *Calibrator) ObserveCompress(bytes int64, sec float64) {
	if c == nil || bytes <= 0 || sec < calibMinSec {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rate := float64(bytes) / sec
	if len(c.compress) < calibCompressCap {
		c.compress = append(c.compress, rate)
	} else {
		c.compress[c.compNext] = rate
		c.compNext = (c.compNext + 1) % calibCompressCap
	}
	c.model.CompressBW = c.compressBWLocked()
}

// compressBWLocked is the fitted CompressBW: the median observed rate, or
// the prior while there are too few observations.
func (c *Calibrator) compressBWLocked() float64 {
	if len(c.compress) < calibMinCompressObs {
		return c.prior.CompressBW
	}
	return clampRate(median(append([]float64(nil), c.compress...)), c.prior.CompressBW)
}

// FitSummary fits the constants directly from a cost-audit ledger roll-up:
// each operator group contributes one observation at its per-execution mean
// volumes, weighted by its count. It returns the number of usable groups;
// when at least calibMinSamples observations (weighted) are present the
// model is refit immediately. This is the offline path ("calibrate from
// the ledger of a finished run"); Observe is the online path.
func (c *Calibrator) FitSummary(s obs.AuditSummary) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	added := 0
	for _, g := range s.Groups {
		if g.Count == 0 {
			continue
		}
		n := float64(g.Count)
		sec := g.ActualSec / n
		if sec < calibMinSec {
			continue
		}
		c.addLocked(calObs{
			sec:    sec,
			flops:  g.ActualFlops / n,
			readB:  float64(g.ActualInBytes-g.BcastBytes) / n,
			writeB: float64(g.ActualOutBytes) / n,
			bcastB: float64(g.BcastBytes) / n,
			weight: n,
		})
		added++
	}
	if added > 0 {
		c.source = "summary"
		c.refitLocked()
	}
	return added
}

func (c *Calibrator) addLocked(o calObs) {
	if o.readB < 0 {
		o.readB = 0
	}
	if len(c.obs) < calibReservoirCap {
		c.obs = append(c.obs, o)
	} else {
		c.obs[c.next] = o
		c.next = (c.next + 1) % calibReservoirCap
	}
	c.samples++
	c.fresh++
}

// Refit forces a fit from the retained observation window; it reports
// whether the published constants changed materially (generation bumped).
func (c *Calibrator) Refit() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.gen
	c.refitLocked()
	return c.gen != before
}

// refitLocked solves for the four constants. Method: weighted least squares
// on the additive surrogate sec ≈ readB/R + writeB/W + flops/C with
// relative-error weights and a ridge pull toward the prior (which also
// keeps the system well-posed when a column is absent), hardened by two
// IRLS rounds with Cauchy weights against outliers; BroadcastBW from the
// median residual rate of distributed observations; and a final median
// rescale under the model's true tw + max(tr, tc) form so the median
// signed error of the fit window is centered at zero.
func (c *Calibrator) refitLocked() {
	c.fresh = 0
	// The sample floor counts weighted observations: summary-derived entries
	// carry their group's execution count, so a short ledger with heavy
	// groups is as informative as many single observations. Three distinct
	// entries are the floor for a three-parameter fit.
	var totalWeight float64
	for _, o := range c.obs {
		totalWeight += o.weight
	}
	if len(c.obs) < 3 || totalWeight < calibMinSamples {
		return
	}
	c.refits++

	x0 := [3]float64{1 / c.prior.ReadBW, 1 / c.prior.WriteBW, 1 / c.prior.ComputeBW}
	x := x0
	w := make([]float64, len(c.obs))
	for i, o := range c.obs {
		w[i] = o.weight / (o.sec * o.sec)
	}
	tau := calibPriorWeight / (calibPriorWeight + totalWeight)
	for round := 0; round < 3; round++ {
		if round > 0 {
			// IRLS: down-weight observations the current fit misses badly.
			for i, o := range c.obs {
				pred := o.readB*x[0] + o.writeB*x[1] + o.flops*x[2]
				r := (pred - o.sec) / o.sec
				w[i] = o.weight / (o.sec * o.sec) / (1 + r*r)
			}
		}
		var ata [3][3]float64
		var atb [3]float64
		for i, o := range c.obs {
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
			return // no byte/flop signal at all; keep the current model
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
			return
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
	xb := 1 / c.prior.BroadcastBW
	var rates []float64
	for _, o := range c.obs {
		if o.bcastB <= 0 {
			continue
		}
		resid := o.sec - o.writeB*x[1] - math.Max(o.readB*x[0], o.flops*x[2])
		if resid > 0 {
			rates = append(rates, resid/o.bcastB)
		}
	}
	if len(rates) >= calibMinDistObs {
		xb = median(rates)
	}

	// Median rescale under the true prediction form: makes the median
	// signed relative error of the fit window zero, correcting the additive
	// surrogate's systematic over-count versus max(tr, tc).
	var ratios []float64
	for _, o := range c.obs {
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
			xb *= med
		}
	}

	fitted := CostModel{
		ReadBW:      clampRate(1/x[0], c.prior.ReadBW),
		WriteBW:     clampRate(1/x[1], c.prior.WriteBW),
		ComputeBW:   clampRate(1/x[2], c.prior.ComputeBW),
		BroadcastBW: clampRate(1/xb, c.prior.BroadcastBW),
		CompressBW:  c.compressBWLocked(),
	}
	if materialChange(c.model, fitted) {
		c.gen++
	}
	c.model = fitted
}

// materialChange reports whether any constant moved by more than the
// generation-bump ratio.
func materialChange(a, b CostModel) bool {
	moved := func(x, y float64) bool {
		r := x / y
		return r > calibGenBumpRatio || r < 1/calibGenBumpRatio
	}
	return moved(a.ReadBW, b.ReadBW) || moved(a.WriteBW, b.WriteBW) ||
		moved(a.ComputeBW, b.ComputeBW) || moved(a.BroadcastBW, b.BroadcastBW)
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

// Model returns the currently published constants.
func (c *Calibrator) Model() CostModel {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.model
}

// Gen returns the model generation: interpreters that cached an optimized
// plan under an older generation re-optimize it under the current
// constants (the "loops pick the better plan next iteration" hook).
func (c *Calibrator) Gen() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// CalibState is a point-in-time snapshot of a calibrator, surfaced in
// session metrics (calib.* counters and gauges) and the EXPLAIN
// CALIBRATION section.
type CalibState struct {
	Model   CostModel
	Prior   CostModel
	Gen     uint64
	Samples int64
	Skipped int64
	Refits  int64
	Source  string
}

// State snapshots the calibrator.
func (c *Calibrator) State() CalibState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CalibState{
		Model: c.model, Prior: c.prior, Gen: c.gen,
		Samples: c.samples, Skipped: c.skipped, Refits: c.refits,
		Source: c.source,
	}
}

// ProfileVersion is the calibration profile version; LoadProfile rejects
// files written under a different one. It counts what the fitted constants
// mean as well as how they are laid out: version 1 profiles were fitted
// against the scalar Go vector primitives, whose flop rate is 4-6x below
// that of the AVX2+FMA kernels, so loading one would price every
// compute-bound operator several times too dear. Version 3 added
// compress_bw, which a version 2 file does not carry; version 4 profiles
// time the compressor that codes columns through per-column tables, 5-12x
// faster than the one whose rate a version 3 file carries.
const ProfileVersion = 4

// ProfileMaxAge is the staleness bound: profiles older than this are
// rejected by LoadProfile (hardware and build characteristics drift; a
// months-old fit is worse than re-measuring).
const ProfileMaxAge = 90 * 24 * time.Hour

// Profile is the persisted per-machine calibration result: the five fitted
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
	CompressBW  float64 `json:"compress_bw"`
}

// CostModel converts the profile to optimizer constants.
func (p Profile) CostModel() CostModel {
	return CostModel{ReadBW: p.ReadBW, WriteBW: p.WriteBW, ComputeBW: p.FlopRate,
		BroadcastBW: p.BroadcastBW, CompressBW: p.CompressBW}
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
		{"compress_bw", p.CompressBW},
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
// profile older than ProfileMaxAge.
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
	if age := time.Since(time.Unix(p.CreatedUnix, 0)); age > ProfileMaxAge {
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

// Profile exports the calibrator's current constants as a persistable
// profile stamped with the current time.
func (c *Calibrator) Profile() Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Profile{
		Version:     ProfileVersion,
		CreatedUnix: time.Now().Unix(),
		Samples:     c.samples + c.profiled,
		ReadBW:      c.model.ReadBW,
		WriteBW:     c.model.WriteBW,
		FlopRate:    c.model.ComputeBW,
		BroadcastBW: c.model.BroadcastBW,
		CompressBW:  c.model.CompressBW,
	}
}

// ApplyProfile validates p and, on success, adopts its constants as both
// the published model and the fit prior (subsequent refits blend toward
// the profile rather than the paper defaults). The generation is bumped so
// sessions re-optimize under the loaded constants.
func (c *Calibrator) ApplyProfile(p Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prior = p.CostModel()
	c.model = c.prior
	c.profiled = p.Samples
	c.source = "profile"
	c.gen++
	return nil
}
