package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestManifestMatchesTheProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %q, the program has %q", i, w.Name, workloads[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, declared []manifestMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d declared, the program has %d", kind, len(declared), len(defs))
		}
		seen := map[string]bool{}
		for i, d := range declared {
			if d.Name != defs[i].name || d.Unit != defs[i].unit || d.Better != defs[i].better {
				t.Errorf("%s %d: declared %v, the program has %v", kind, i, d, defs[i])
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, d.Name)
			}
			seen[d.Name] = true
			if bounded != (d.Bound != nil) {
				t.Errorf("%s %s: bound present = %v", kind, d.Name, d.Bound != nil)
			}
			if d.Bound != nil && (*d.Bound <= 0 || *d.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, d.Name, *d.Bound)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd, true)
	same("per_layer", m.PerLayer, perLayer, false)
}

// lastLine runs a workload at tiny scale and returns the result object it
// prints last.
func lastLine(t *testing.T, workload string, trace bool) result {
	t.Helper()
	cfg := config{workload: workload, seed: 1, seconds: 0, trace: trace, scale: testScale, outDir: t.TempDir()}
	r, err := execute(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var buf bytes.Buffer
	r.emit(&buf, nil)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", workload, err, buf.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, buf.String())
	}
	if trace {
		if _, err := os.Stat(cfg.outDir + "/trace-" + workload + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", workload, err)
		}
	}
	return res
}

// Every workload prints exactly the declared metrics, each with its
// declared unit: the end-to-end ones untraced, the per-layer ones traced.
func TestEveryWorkloadPrintsTheDeclaredMetrics(t *testing.T) {
	m := readManifest(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			declared := m.EndToEnd
			if trace {
				declared = m.PerLayer
			}
			res := lastLine(t, w, trace)
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w, trace, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s not printed", w, trace, d.Name)
				} else if v.Unit != d.Unit {
					t.Errorf("%s trace=%v: %s has unit %q, declared %q", w, trace, d.Name, v.Unit, d.Unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, d.Name, v.Value)
				}
			}
		}
	}
}

// raceDetector is set by race_test.go when the race detector is on.
var raceDetector bool

func TestSelfCheck(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("six tiny runs; over a minute under the race detector")
	}
	if err := selfCheck(1, io.Discard); err != nil {
		t.Fatal(err)
	}
}
