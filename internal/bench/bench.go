// Package bench implements the experiment harness: one driver per table
// and figure of the paper's evaluation section (§5). Each driver generates
// its workload, runs the relevant system variants (Base, Fused, Gen,
// Gen-FA, Gen-FNR), and prints the same rows/series the paper reports.
// Absolute numbers differ from the paper's cluster; the shapes (who wins,
// by what factor, where crossovers fall) are the reproduction target (see
// EXPERIMENTS.md).
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"sysml/internal/codegen"
	"sysml/internal/dml"
	"sysml/internal/matrix"
)

// Table is a printable result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Print renders the table as aligned ASCII.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// Modes are the five system variants compared throughout §5.
var Modes = []codegen.Mode{codegen.ModeBase, codegen.ModeFused, codegen.ModeGen,
	codegen.ModeGenFA, codegen.ModeGenFNR}

// ModeNames renders mode column headers.
func ModeNames() []string {
	out := make([]string, len(Modes))
	for i, m := range Modes {
		out[i] = m.String()
	}
	return out
}

// Median times a function: one warmup run plus reps timed runs, reporting
// the median.
func Median(reps int, f func()) time.Duration {
	f() // warmup (JIT-compilation analog: closure assembly, caches)
	if reps < 1 {
		reps = 1
	}
	ds := make([]time.Duration, reps)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = time.Since(start)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e6)
}

// secs formats a duration in seconds.
func secs(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// newSessionCfg returns a session under cfg with the inputs and scalars
// bound and nothing printed.
func newSessionCfg(cfg codegen.Config, inputs map[string]*matrix.Matrix,
	scalars map[string]float64) *dml.Session {
	s := dml.NewSession(cfg)
	s.Out = io.Discard
	for n, m := range inputs {
		s.Bind(n, m)
	}
	for n, v := range scalars {
		s.BindScalar(n, v)
	}
	return s
}

// modeConfig is the default configuration under a mode.
func modeConfig(mode codegen.Mode) codegen.Config {
	cfg := codegen.DefaultConfig()
	cfg.Mode = mode
	return cfg
}

// runScript executes a script once through a fresh session configured for
// the mode, binding the given inputs; it returns the session.
func runScript(mode codegen.Mode, script string, inputs map[string]*matrix.Matrix,
	scalars map[string]float64) (*dml.Session, error) {
	s := newSessionCfg(modeConfig(mode), inputs, scalars)
	return s, s.Run(script)
}

// timeScript times repeated executions of a script under one mode with a
// persistent session (prepared-script JMLC style: the plan cache is warm
// after the first run, mirroring §5.2's setup).
func timeScript(mode codegen.Mode, reps int, script string,
	inputs map[string]*matrix.Matrix, scalars map[string]float64) time.Duration {
	return timeScriptCfg(modeConfig(mode), reps, script, inputs, scalars)
}

// timeScriptCfg is timeScript with an explicit config.
func timeScriptCfg(cfg codegen.Config, reps int, script string,
	inputs map[string]*matrix.Matrix, scalars map[string]float64) time.Duration {
	s := newSessionCfg(cfg, inputs, scalars)
	return Median(reps, func() {
		if err := s.Run(script); err != nil {
			panic(fmt.Sprintf("bench script failed (%v): %v", cfg.Mode, err))
		}
	})
}

// PhaseBreakdown runs a script once under the given mode and attributes
// wall time to the pipeline phases recorded by the session's trace spans:
// "parse", "compile" (block HOP construction + rewrites), "optimize"
// (fusion plan selection + code generation), and "execute" (kernels and
// fused operators). The map is keyed by phase name.
func PhaseBreakdown(mode codegen.Mode, script string, inputs map[string]*matrix.Matrix,
	scalars map[string]float64) (map[string]time.Duration, error) {
	s, err := runScript(mode, script, inputs, scalars)
	if err != nil {
		return nil, err
	}
	return sessionPhases(s), nil
}

// sessionPhases reads the phase times a session recorded, keyed by phase
// name.
func sessionPhases(s *dml.Session) map[string]time.Duration {
	out := map[string]time.Duration{}
	for name, h := range s.Metrics().Hists {
		if phase, ok := strings.CutPrefix(name, "phase."); ok {
			out[phase] = time.Duration(h.Sum * float64(time.Second))
		}
	}
	return out
}

// Options configures the harness scale; Scale multiplies default row
// counts (1.0 = laptop default documented in EXPERIMENTS.md). Report is the
// file gate runs write their report to; empty writes none.
type Options struct {
	Scale  float64
	Reps   int
	Out    io.Writer
	Report string
}

// DefaultOptions returns laptop-scale defaults.
func DefaultOptions(w io.Writer) Options { return Options{Scale: 1, Reps: 3, Out: w} }

func (o Options) rows(base int) int {
	n := int(float64(base) * o.Scale)
	if n < 8 {
		n = 8
	}
	return n
}
