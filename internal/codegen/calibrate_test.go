package codegen_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sysml/internal/codegen"
	"sysml/internal/obs"
)

// synthEntry builds a cost-audit entry whose wall time follows the model's
// true prediction form tw + max(tr, tc) under the given ground-truth
// constants.
func synthEntry(op string, truth codegen.CostModel, readB, writeB, bcastB, flops float64) obs.AuditEntry {
	tr := readB/truth.ReadBW + bcastB/truth.BroadcastBW
	sec := writeB/truth.WriteBW + math.Max(tr, flops/truth.ComputeBW)
	return obs.AuditEntry{
		Op:             op,
		PredSec:        sec, // prediction quality is not under test here
		ActualSec:      sec,
		ActualFlops:    flops,
		ActualInBytes:  int64(readB + bcastB),
		ActualOutBytes: int64(writeB),
		BcastBytes:     int64(bcastB),
		Dist:           bcastB > 0,
	}
}

// feedSynthetic streams a mixed diet of read-bound, write-heavy,
// compute-bound, and broadcast-heavy observations generated from truth.
func feedSynthetic(c *codegen.Calibrator, truth codegen.CostModel) {
	for i := 0; i < 9; i++ {
		scale := 1 + float64(i)/8
		c.Observe(synthEntry("read", truth, 8e6*scale, 64, 0, 1e5))
		c.Observe(synthEntry("write", truth, 1e6, 8e6*scale, 0, 1e5))
		c.Observe(synthEntry("flop", truth, 1e6, 64, 0, 1e8*scale))
		c.Observe(synthEntry("bcast", truth, 1e6, 64, 4e6*scale, 1e5))
	}
}

// TestCalibratorRecoversConstants: fitting a clean synthetic workload must
// land every constant within 2x of the ground truth that generated it,
// even though the truth sits 4-8x away from the paper-default prior.
func TestCalibratorRecoversConstants(t *testing.T) {
	truth := codegen.CostModel{ReadBW: 8e9, WriteBW: 4e9, ComputeBW: 2e10, BroadcastBW: 1e9}
	cal := codegen.NewCalibrator(codegen.DefaultCostModel())
	feedSynthetic(cal, truth)
	// 32 accepted observations trip the automatic refit; the explicit call
	// only needs to be a no-op on the already-fitted window.
	cal.Refit()
	if cal.Gen() == 0 {
		t.Fatal("no refit changed the model generation")
	}
	got := cal.Model()
	check := func(name string, got, want float64) {
		t.Helper()
		if r := got / want; r < 0.5 || r > 2 {
			t.Errorf("%s fitted %.3g, truth %.3g (off %.2fx)", name, got, want, r)
		}
	}
	check("ReadBW", got.ReadBW, truth.ReadBW)
	check("WriteBW", got.WriteBW, truth.WriteBW)
	check("ComputeBW", got.ComputeBW, truth.ComputeBW)
	check("BroadcastBW", got.BroadcastBW, truth.BroadcastBW)

	st := cal.State()
	if st.Gen == 0 || st.Refits == 0 {
		t.Errorf("state gen=%d refits=%d after a material refit", st.Gen, st.Refits)
	}
	// Warm-up guard: the first observation of each of the 4 labels skipped.
	if st.Skipped != 4 {
		t.Errorf("skipped %d observations, want 4 warm-ups", st.Skipped)
	}
	if st.Samples != 4*9-4 {
		t.Errorf("accepted %d observations, want %d", st.Samples, 4*9-4)
	}
}

// TestCalibratorTooFewSamples: below the weighted sample floor the model
// must stay at the prior and the generation must not move.
func TestCalibratorTooFewSamples(t *testing.T) {
	truth := codegen.CostModel{ReadBW: 8e9, WriteBW: 4e9, ComputeBW: 2e10, BroadcastBW: 1e9}
	cal := codegen.NewCalibrator(codegen.DefaultCostModel())
	for i := 0; i < 5; i++ {
		cal.Observe(synthEntry("read", truth, 8e6, 64, 0, 1e5))
	}
	if cal.Refit() {
		t.Error("refit reported a model change on 4 accepted samples")
	}
	if got := cal.Model(); got != codegen.DefaultCostModel() {
		t.Errorf("model moved off the prior on insufficient data: %+v", got)
	}
}

// TestProfileRoundTrip: fitted constants survive Save -> LoadProfile ->
// ApplyProfile bit-exactly, and the applied profile becomes both model and
// prior of the receiving calibrator.
func TestProfileRoundTrip(t *testing.T) {
	truth := codegen.CostModel{ReadBW: 8e9, WriteBW: 4e9, ComputeBW: 2e10, BroadcastBW: 1e9}
	cal := codegen.NewCalibrator(codegen.DefaultCostModel())
	feedSynthetic(cal, truth)
	cal.Refit()
	p := cal.Profile()
	if p.Version != codegen.ProfileVersion {
		t.Fatalf("profile version %d, want %d", p.Version, codegen.ProfileVersion)
	}
	if p.Samples == 0 {
		t.Fatal("profile carries zero samples")
	}

	path := filepath.Join(t.TempDir(), "profile.json")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := codegen.LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != p {
		t.Errorf("round-trip mismatch:\nsaved  %+v\nloaded %+v", p, loaded)
	}

	fresh := codegen.NewCalibrator(codegen.DefaultCostModel())
	genBefore := fresh.Gen()
	if err := fresh.ApplyProfile(loaded); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Model(); got != p.CostModel() {
		t.Errorf("applied model %+v != profile constants %+v", got, p.CostModel())
	}
	st := fresh.State()
	if st.Prior != p.CostModel() {
		t.Errorf("profile did not become the fit prior: %+v", st.Prior)
	}
	if st.Source != "profile" {
		t.Errorf("source %q, want \"profile\"", st.Source)
	}
	if fresh.Gen() == genBefore {
		t.Error("applying a profile did not bump the generation")
	}
}

// TestCompressBWFit: CompressBW stays at its prior until three compressions
// were timed, then is their median rate, survives a refit of the other
// constants, never bumps the generation, and lands in the profile.
func TestCompressBWFit(t *testing.T) {
	prior := codegen.DefaultCostModel()
	cal := codegen.NewCalibrator(prior)
	gen := cal.Gen()
	cal.ObserveCompress(1<<20, 0.01)  // ~105 MB/s
	cal.ObserveCompress(1<<20, 0.005) // ~210 MB/s
	cal.ObserveCompress(1<<20, 1e-9)  // below the clock floor: dropped
	if got := cal.Model().CompressBW; got != prior.CompressBW {
		t.Fatalf("CompressBW %g left its prior %g after two observations", got, prior.CompressBW)
	}
	cal.ObserveCompress(1<<20, 0.02) // ~52 MB/s
	want := float64(1<<20) / 0.01
	if got := cal.Model().CompressBW; got != want {
		t.Fatalf("CompressBW %g, want the median rate %g", got, want)
	}
	feedSynthetic(cal, codegen.CostModel{ReadBW: 8e9, WriteBW: 4e9, ComputeBW: 2e10, BroadcastBW: 1e9})
	cal.Refit()
	if got := cal.Model().CompressBW; got != want {
		t.Errorf("refit moved CompressBW to %g", got)
	}
	if p := cal.Profile(); p.CompressBW != want {
		t.Errorf("profile carries compress_bw %g, want %g", p.CompressBW, want)
	}
	fresh := codegen.NewCalibrator(prior)
	fresh.ObserveCompress(1<<20, 0.01)
	fresh.ObserveCompress(1<<20, 0.01)
	fresh.ObserveCompress(1<<20, 0.01)
	if fresh.Gen() != gen {
		t.Error("a compression rate bumped the plan generation")
	}
}

// TestLoadProfileRejects: unreadable files, corrupt JSON, schema version
// mismatches, implausible constants, and stale profiles must all fail
// LoadProfile so callers fall back to defaults.
func TestLoadProfileRejects(t *testing.T) {
	dir := t.TempDir()
	now := time.Now().Unix()
	good := codegen.Profile{
		Version: codegen.ProfileVersion, CreatedUnix: now, Samples: 10,
		ReadBW: 8e9, WriteBW: 4e9, FlopRate: 2e10, BroadcastBW: 1e9, CompressBW: 1e8,
	}
	cases := []struct {
		name    string
		prepare func(path string) error
	}{
		{"missing", func(path string) error { return nil }},
		{"corrupt", func(path string) error {
			return os.WriteFile(path, []byte("{not json"), 0o644)
		}},
		{"wrong-version", func(path string) error {
			p := good
			p.Version = codegen.ProfileVersion + 1
			return p.Save(path)
		}},
		{"without-compress-bw", func(path string) error {
			p := good
			p.Version, p.CompressBW = 2, 0 // a version 2 file
			return p.Save(path)
		}},
		{"old-compressor-rate", func(path string) error {
			p := good
			p.Version = 3 // compress_bw timed the map-based compressor
			return p.Save(path)
		}},
		{"fitted-against-scalar-kernels", func(path string) error {
			p := good
			p.Version = 1 // what every profile saved before the assembly kernels says
			return p.Save(path)
		}},
		{"implausible-rate", func(path string) error {
			p := good
			p.ReadBW = -1
			return p.Save(path)
		}},
		{"zero-rate", func(path string) error {
			p := good
			p.FlopRate = 0
			return p.Save(path)
		}},
		{"stale", func(path string) error {
			p := good
			p.CreatedUnix = time.Now().Add(-codegen.ProfileMaxAge - time.Hour).Unix()
			return p.Save(path)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".json")
			if err := tc.prepare(path); err != nil {
				t.Fatal(err)
			}
			if _, err := codegen.LoadProfile(path); err == nil {
				t.Fatalf("LoadProfile accepted a %s profile", tc.name)
			}
			// The fallback a rejecting caller takes: defaults, untouched.
			cal := codegen.NewCalibrator(codegen.DefaultCostModel())
			if cal.Model() != codegen.DefaultCostModel() {
				t.Error("fallback calibrator does not publish the defaults")
			}
		})
	}
	// Sanity: the unmodified profile loads.
	path := filepath.Join(dir, "good.json")
	if err := good.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := codegen.LoadProfile(path); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
}
