package bench

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"time"
)

// Check is one row of a CI gate: a value measured on the gate's workload and
// the rule it must meet. Gates fill in what they measured; only RunGates
// decides whether a check passes.
type Check struct {
	Gate     string  `json:"-"`    // the gate's ID, set by RunGates
	Name     string  `json:"name"` // one of the gate's declared Checks
	Measured float64 `json:"measured"`
	Baseline float64 `json:"baseline,omitempty"` // the reference variant's own reading, where there is one
	Limit    float64 `json:"limit"`
	Cmp      string  `json:"cmp"` // how Measured must compare to Limit: "<", "<=", ">=" or "=="
	Unit     string  `json:"unit"`
	Detail   string  `json:"detail,omitempty"`
	Pass     bool    `json:"pass"` // set by RunGates
}

// passes is the one pass rule. A NaN measurement fails every comparison.
func (c Check) passes() bool {
	switch c.Cmp {
	case "<":
		return c.Measured < c.Limit
	case "<=":
		return c.Measured <= c.Limit
	case ">=":
		return c.Measured >= c.Limit
	}
	return c.Measured == c.Limit
}

// Gate is one CI gate: a workload and what is measured on it.
type Gate struct {
	ID      string
	Desc    string
	Checks  []string // the names of the checks Measure returns (EXPERIMENTS.md has a row for each)
	Measure func(o Options) []Check
}

// Gates are the CI gates in the order `fusebench -exp gates` (ci.sh) runs them.
var Gates = []Gate{
	{"kernels", "Kernel gates: TSMM speedup, pooled allocations, matmult regression, assembly primitives",
		[]string{"TSMM speedup", "cellwise alloc cut (pooling)", "dense matmult regression", "assembly primitives"}, Kernels},
	{"dist", "Distributed backend gates: broadcast cache, tree shuffle, zero-copy panels",
		[]string{"broadcast cache", "tree shuffle", "1-executor regression"}, Dist},
	{"fault", "Fault-tolerance gates: scheduler overhead, kill recovery",
		[]string{"scheduler overhead (inert plan)", "1-of-6 kill recovery", "1-of-6 kill == local"}, Fault},
	{"serve", "Serving gates: multi-tenant p99, shedding at nominal load, open-loop completion",
		[]string{"multi-tenant p99", "shed at nominal load", "open-loop completion"}, Serve},
	{"serveobs", "Serving observability gate: flight-recorder p99 overhead",
		[]string{"flight-recorder p99 overhead"}, ServeObs},
	{"hfuse", "Horizontal fusion gates: sibling merge speedup, merged operator vs ideal loop",
		[]string{"sibling merge speedup", "merged operator vs ideal fused loop"}, HFuse},
	{"cla", "Compressed execution gates: fused-over-groups speedup, compressed wire bytes, decline overhead",
		[]string{"fused over column groups", "compressed wire", "side compression ratio", "auto-decline overhead"}, CLA},
	{"recost", "Feedback gates: calibration halves cost error, re-optimized iteration, feedback overhead",
		[]string{"calibration accuracy", "adversarial re-optimization", "feedback overhead"}, Recost},
}

// RunGates runs the gates in order, decides every check, prints one table of
// them, writes the report to o.Report — {"pass", "gates": [{"id",
// "checks"}]} — and returns an error naming each failing check. A failing
// check does not stop the gates after it.
func RunGates(o Options, gates ...Gate) error {
	type gateReport struct {
		ID     string  `json:"id"`
		Checks []Check `json:"checks"`
	}
	report := struct {
		Pass  bool         `json:"pass"`
		Gates []gateReport `json:"gates"`
	}{Pass: true}
	t := &Table{Title: "CI gates", Columns: []string{"gate", "check", "measured", "limit", "detail", "pass"}}
	var failed []string
	for _, g := range gates {
		fmt.Fprintf(o.Out, "== gate %s ==\n", g.ID)
		checks := g.Measure(o)
		for i := range checks {
			c := &checks[i]
			if !slices.Contains(g.Checks, c.Name) {
				panic(fmt.Sprintf("gate %s: undeclared check %q", g.ID, c.Name))
			}
			c.Gate, c.Pass = g.ID, c.passes()
			t.Add(c.Gate, c.Name, fmt.Sprintf("%.4g %s", c.Measured, c.Unit),
				fmt.Sprintf("%s %.4g %s", c.Cmp, c.Limit, c.Unit), c.Detail, fmt.Sprint(c.Pass))
			if !c.Pass {
				report.Pass = false
				failed = append(failed, fmt.Sprintf("%s/%s: %.4g %s, limit %s %.4g (%s)",
					c.Gate, c.Name, c.Measured, c.Unit, c.Cmp, c.Limit, c.Detail))
			}
			if math.IsNaN(c.Measured) || math.IsInf(c.Measured, 0) { // JSON has neither
				c.Measured, c.Detail = 0, fmt.Sprintf("measured %v; %s", c.Measured, c.Detail)
			}
		}
		report.Gates = append(report.Gates, gateReport{g.ID, checks})
	}
	t.Print(o.Out)
	for _, f := range failed {
		fmt.Fprintln(o.Out, "FAIL", f)
	}
	if o.Report != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(o.Report, append(data, '\n'), 0o644)
		}
		if err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d gate check(s) failed", len(failed))
	}
	return nil
}

// interleavedMin runs the variants in turn — two warm-up rounds, then rounds
// timed ones, each starting one variant later than the last so that what a run
// leaves behind (GC debt, a cache another variant filled) does not always land
// on the same variant — and returns each variant's minimum wall time:
// scheduler noise and host drift hit all variants alike.
func interleavedMin(rounds int, fns ...func()) []time.Duration {
	best := make([]time.Duration, len(fns))
	for r := -2; r < rounds; r++ {
		for j := range fns {
			i := (r + 2 + j) % len(fns)
			start := time.Now()
			fns[i]()
			if d := time.Since(start); r >= 0 && (best[i] == 0 || d < best[i]) {
				best[i] = d
			}
		}
	}
	return best
}

// msec is a duration in milliseconds.
func msec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a check that base/new is at least limit: a speedup, or a cut in
// bytes. detail prefixes the two readings, which are in unit.
func ratio(name string, base, new, limit float64, unit, detail string) Check {
	return Check{Name: name, Measured: base / new, Baseline: base, Limit: limit, Cmp: ">=", Unit: "x",
		Detail: fmt.Sprintf("%s%.4g → %.4g %s", detail, base, new, unit)}
}

// overhead is a check that new takes less than limit percent longer than base.
func overhead(name string, base, new time.Duration, limit float64, detail string) Check {
	return Check{Name: name, Measured: 100 * (float64(new) - float64(base)) / float64(base), Baseline: msec(base),
		Limit: limit, Cmp: "<", Unit: "%", Detail: fmt.Sprintf("%s%.3f → %.3f ms", detail, msec(base), msec(new))}
}

// medianTrial runs a wall-time check three times and returns the trial of
// median reading, as recost's feedback check reads it: on a shared host one
// trial's minimum can catch a quiet moment the other variant never saw, and
// one such trial must not decide the check.
func medianTrial(trial func() Check) Check {
	trials := []Check{trial(), trial(), trial()}
	slices.SortFunc(trials, func(a, b Check) int { return cmp.Compare(a.Measured, b.Measured) })
	trials[1].Detail += ", median of 3 trials"
	return trials[1]
}

// medianOverhead is the overhead check of base against new over rounds
// interleaved rounds, the median of three trials (medianTrial).
func medianOverhead(name string, rounds int, base, new func(), limit float64, detail string) Check {
	return medianTrial(func() Check {
		d := interleavedMin(rounds, base, new)
		return overhead(name, d[0], d[1], limit, detail)
	})
}
