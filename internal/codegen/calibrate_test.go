package codegen_test

import (
	"fmt"
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

// synthSummary rolls up a mixed diet of read-bound, write-heavy,
// compute-bound, and (with bcast) broadcast-heavy executions generated from
// truth, one operator group per execution.
func synthSummary(truth codegen.CostModel, bcast bool) obs.AuditSummary {
	a := obs.NewAudit()
	for i := 0; i < 9; i++ {
		scale := 1 + float64(i)/8
		a.Record(synthEntry(fmt.Sprint("read", i), truth, 8e6*scale, 64, 0, 1e5))
		a.Record(synthEntry(fmt.Sprint("write", i), truth, 1e6, 8e6*scale, 0, 1e5))
		a.Record(synthEntry(fmt.Sprint("flop", i), truth, 1e6, 64, 0, 1e8*scale))
		if bcast {
			a.Record(synthEntry(fmt.Sprint("bcast", i), truth, 1e6, 64, 4e6*scale, 1e5))
		}
	}
	return a.Summary()
}

var synthTruth = codegen.CostModel{ReadBW: 8e9, WriteBW: 4e9, ComputeBW: 2e10, BroadcastBW: 1e9}

// TestFitRecoversConstants: fitting a clean synthetic workload must land
// every constant within 2x of the ground truth that generated it, even
// though the truth sits 4-8x away from the paper-default prior.
func TestFitRecoversConstants(t *testing.T) {
	got, n := codegen.Fit(codegen.DefaultCostModel(), synthSummary(synthTruth, true))
	if n != 4*9 {
		t.Errorf("fit used %d groups, want %d", n, 4*9)
	}
	check := func(name string, got, want float64) {
		t.Helper()
		if r := got / want; r < 0.5 || r > 2 {
			t.Errorf("%s fitted %.3g, truth %.3g (off %.2fx)", name, got, want, r)
		}
	}
	check("ReadBW", got.ReadBW, synthTruth.ReadBW)
	check("WriteBW", got.WriteBW, synthTruth.WriteBW)
	check("ComputeBW", got.ComputeBW, synthTruth.ComputeBW)
	check("BroadcastBW", got.BroadcastBW, synthTruth.BroadcastBW)
}

// TestFitTooFewSamples: below the weighted sample floor, or with fewer than
// three distinct observations however heavy, the fit returns the prior.
func TestFitTooFewSamples(t *testing.T) {
	few, heavy := obs.NewAudit(), obs.NewAudit()
	for i := 0; i < 5; i++ {
		few.Record(synthEntry(fmt.Sprint("read", i), synthTruth, 8e6, 64, 0, 1e5))
	}
	for i := 0; i < 20; i++ {
		heavy.Record(synthEntry(fmt.Sprint("read", i%2), synthTruth, 8e6, 64, 0, 1e5))
	}
	for name, a := range map[string]*obs.Audit{"5 executions": few, "2 groups": heavy} {
		if got, _ := codegen.Fit(codegen.DefaultCostModel(), a.Summary()); got != codegen.DefaultCostModel() {
			t.Errorf("%s: model moved off the prior on insufficient data: %+v", name, got)
		}
	}
}

// TestProfileRoundTrip: fitted constants survive Save -> LoadProfile ->
// CostModel bit-exactly.
func TestProfileRoundTrip(t *testing.T) {
	fitted, n := codegen.Fit(codegen.DefaultCostModel(), synthSummary(synthTruth, true))
	p := codegen.Profile{
		Version: codegen.ProfileVersion, CreatedUnix: time.Now().Unix(), Samples: int64(n),
		ReadBW: fitted.ReadBW, WriteBW: fitted.WriteBW, FlopRate: fitted.ComputeBW,
		BroadcastBW: fitted.BroadcastBW,
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
	if loaded.CostModel() != fitted {
		t.Errorf("loaded model %+v != fitted constants %+v", loaded.CostModel(), fitted)
	}
}

// TestFitKeepsBroadcastPriorWithoutBroadcasts: a ledger of local groups
// holds no broadcast byte, so BroadcastBW is not fitted and stays exactly
// at the prior, whatever the median rescale does to the other constants.
func TestFitKeepsBroadcastPriorWithoutBroadcasts(t *testing.T) {
	prior := codegen.DefaultCostModel()
	got, _ := codegen.Fit(prior, synthSummary(synthTruth, false))
	if got.BroadcastBW != prior.BroadcastBW {
		t.Errorf("Fit moved BroadcastBW to %g without a broadcast, prior %g", got.BroadcastBW, prior.BroadcastBW)
	}
	if got.ReadBW == prior.ReadBW {
		t.Error("the fit left ReadBW at its prior: the check shows nothing")
	}
}

// TestLoadProfileRejects: unreadable files, corrupt JSON, schema version
// mismatches, implausible constants, and stale or future-stamped profiles must all fail
// LoadProfile so callers fall back to defaults.
func TestLoadProfileRejects(t *testing.T) {
	dir := t.TempDir()
	now := time.Now().Unix()
	good := codegen.Profile{
		Version: codegen.ProfileVersion, CreatedUnix: now, Samples: 10,
		ReadBW: 8e9, WriteBW: 4e9, FlopRate: 2e10, BroadcastBW: 1e9,
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
			p.Version = 2 // a file written before compress_bw was added
			return p.Save(path)
		}},
		{"old-compressor-rate", func(path string) error {
			p := good
			p.Version = 3 // its compress_bw timed the map-based compressor
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
		{"future", func(path string) error {
			p := good
			p.CreatedUnix = time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC).Unix() // would never go stale
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

// TestLoadProfileIgnoresDroppedField: a version 4 file written while profiles
// carried compress_bw still loads, with its four constants as written.
func TestLoadProfileIgnoresDroppedField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v4.json")
	text := fmt.Sprintf(`{"version": 4, "created_unix": %d, "samples": 10, "read_bw": 8e9,
		"write_bw": 4e9, "flop_rate": 2e10, "broadcast_bw": 1e9, "compress_bw": 8.1e8}`, time.Now().Unix())
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := codegen.LoadProfile(path)
	if err != nil {
		t.Fatalf("version 4 profile with compress_bw rejected: %v", err)
	}
	want := codegen.CostModel{ReadBW: 8e9, WriteBW: 4e9, ComputeBW: 2e10, BroadcastBW: 1e9}
	if p.CostModel() != want {
		t.Errorf("loaded %+v, want %+v", p.CostModel(), want)
	}
}
