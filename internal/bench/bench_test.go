package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"sysml/internal/codegen"
	"sysml/internal/matrix"
)

func TestTablePrint(t *testing.T) {
	tbl := &Table{Title: "T", Columns: []string{"a", "long-column"}}
	tbl.Add("1", "2")
	tbl.Add("wide-value", "3")
	var buf bytes.Buffer
	tbl.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "== T ==") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	// Column alignment: header and separator have equal length.
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("misaligned separator:\n%s", out)
	}
}

func TestMedianOrdering(t *testing.T) {
	calls := 0
	d := Median(3, func() {
		calls++
		time.Sleep(time.Millisecond)
	})
	if calls != 4 { // warmup + 3
		t.Fatalf("expected 4 calls, got %d", calls)
	}
	if d < 500*time.Microsecond {
		t.Fatalf("median implausibly small: %v", d)
	}
}

func TestRunScriptHelper(t *testing.T) {
	s, err := runScript(codegen.ModeGen, `s = sum(X)`,
		map[string]*matrix.Matrix{"X": matrix.Fill(4, 4, 2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Scalar("s"); got != 32 {
		t.Fatalf("sum = %v", got)
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil || e.Desc == "" {
			t.Fatalf("incomplete experiment %s", e.ID)
		}
	}
	for _, want := range []string{"fig8cell", "fig8magg", "fig8row", "fig8rowmm",
		"fig8outer", "fig9", "fig10", "table3", "fig11", "fig12", "table4",
		"fig13", "table5", "table6", "ablation"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
	for _, g := range Gates {
		if ids[g.ID] {
			t.Fatalf("duplicate experiment ID %s", g.ID)
		}
		ids[g.ID] = true
		if g.Measure == nil || g.Desc == "" || len(g.Checks) == 0 {
			t.Fatalf("incomplete gate %s", g.ID)
		}
	}
	if Run("nonexistent", DefaultOptions(&bytes.Buffer{})) == nil {
		t.Fatal("unknown experiment should fail")
	}
}

// TestCalibrateWritesALoadableProfile: the calibrate experiment prints a
// profile LoadProfile accepts.
func TestCalibrateWritesALoadableProfile(t *testing.T) {
	var out bytes.Buffer
	if err := Run("calibrate", Options{Scale: 0.05, Reps: 1, Out: &out}); err != nil {
		t.Fatal(err)
	}
	var p codegen.Profile
	if err := json.Unmarshal(out.Bytes(), &p); err != nil {
		t.Fatalf("calibrate printed no profile: %v\n%s", err, out.String())
	}
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := codegen.LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != p {
		t.Errorf("loaded %+v, printed %+v", loaded, p)
	}
}

// TestGateRunner: a failing check fails the run and the report, and the gates
// after it still run and are reported.
func TestGateRunner(t *testing.T) {
	ran := 0
	gate := func(id string, c Check) Gate {
		return Gate{id, id, []string{c.Name}, func(Options) []Check { ran++; return []Check{c} }}
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	var out bytes.Buffer
	err := RunGates(Options{Out: &out, Report: path},
		gate("a", Check{Name: "fast enough", Measured: 1.5, Limit: 2, Cmp: ">=", Unit: "x"}),
		gate("b", Check{Name: "small enough", Measured: 3, Limit: 3, Cmp: "<=", Unit: "ms"}),
		gate("c", Check{Name: "no NaN", Measured: math.NaN(), Limit: 1, Cmp: "<", Unit: "%"}))
	if err == nil || ran != 3 {
		t.Fatalf("err %v after %d gates, want a failure after 3", err, ran)
	}
	if !strings.Contains(out.String(), "FAIL a/fast enough") || strings.Contains(out.String(), "FAIL b/") ||
		!strings.Contains(out.String(), "FAIL c/no NaN") {
		t.Fatalf("output does not name exactly the failing checks:\n%s", out.String())
	}
	data, _ := os.ReadFile(path)
	var report struct {
		Pass  bool
		Gates []struct {
			ID     string
			Checks []struct{ Pass bool }
		}
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.Pass || len(report.Gates) != 3 || report.Gates[1].ID != "b" || !report.Gates[1].Checks[0].Pass ||
		report.Gates[0].Checks[0].Pass {
		t.Fatalf("report = %s", data)
	}
	if RunGates(Options{Out: &out, Report: path}, gate("b", Check{Name: "ok", Measured: 0, Cmp: "=="})) != nil {
		t.Fatal("a passing gate failed the run")
	}
}

func TestAblationOrderPrunesLess(t *testing.T) {
	o := Options{Scale: 0.05, Reps: 1, Out: &bytes.Buffer{}}
	tbl := AblationOrder(o)
	if len(tbl.Rows) == 0 {
		t.Fatal("no ablation rows")
	}
}

// TestAllExperimentsSmoke runs every registered experiment at a tiny scale
// to guard the harness against regressions (skipped with -short).
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in short mode")
	}
	o := Options{Scale: 0.01, Reps: 1, Out: &bytes.Buffer{}, Report: filepath.Join(t.TempDir(), "BENCH.json")}
	ids := []string{}
	for _, e := range Experiments {
		if e.ID != "gates" { // every gate runs below on its own
			ids = append(ids, e.ID)
		}
	}
	for _, g := range Gates {
		ids = append(ids, g.ID)
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("experiment %s panicked: %v", id, r)
				}
			}()
			Run(id, o) // at this scale a gate's checks may fail; only a panic is an error
		})
	}
}

// update rewrites the golden plans under testdata/plans from this checkout.
var update = flag.Bool("update", false, "rewrite testdata/plans/*.txt with this checkout's EXPLAIN texts")

// TestAlgorithmPlansAreTheRecordedOnes holds Session.Explain of the six
// algorithms at batch_mix sizes (every optimized block's report, TMP class
// numbers normalized, time trigger off) to the texts under testdata/plans:
// the plans these programs run under. A change that claims to leave plan
// choice alone keeps them; one that moves a plan on purpose rewrites them with
// -update, and the diff shows which blocks changed.
func TestAlgorithmPlansAreTheRecordedOnes(t *testing.T) {
	tmp := regexp.MustCompile(`TMP\d+`)
	for _, job := range sixAlgorithms(Options{Scale: 1}) {
		text, err := job.session(codegen.DefaultConfig()).Explain(job.script)
		if err != nil {
			t.Fatal(err)
		}
		// The sections after the blocks' reports count buffers and bytes.
		text, _, _ = strings.Cut(tmp.ReplaceAllString(text, "TMP"), "\nBUFFER POOL")
		path := filepath.Join("testdata", "plans", job.name+".txt")
		if *update {
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if text != string(want) {
			t.Errorf("%s: EXPLAIN differs from %s; run go test -run %s -update and review the diff",
				job.name, path, t.Name())
		}
	}
}
