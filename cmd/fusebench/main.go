// Command fusebench regenerates the paper's evaluation tables and figures
// (§5) and runs the CI gates. Run all experiments or a single one by ID:
//
//	fusebench                 # everything at default laptop scale
//	fusebench -exp fig8cell   # one experiment
//	fusebench -exp gates      # every CI gate: one table, BENCH.json, exit 1 on a failed check
//	fusebench -exp hfuse      # one gate
//	fusebench -scale 0.1      # quick pass at 10% of the default sizes
//	fusebench -list           # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"

	"sysml/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment ID to run (default: all)")
	scale := flag.Float64("scale", 1, "row-count scale factor")
	reps := flag.Int("reps", 3, "timed repetitions per measurement")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-10s %s\n", e.ID, e.Desc)
		}
		for _, g := range bench.Gates {
			fmt.Printf("%-10s %s\n", g.ID, g.Desc)
		}
		return
	}
	o := bench.Options{Scale: *scale, Reps: *reps, Out: os.Stdout, Report: "BENCH.json"}
	run := bench.RunAll
	if *exp != "" {
		run = func(o bench.Options) error { return bench.Run(*exp, o) }
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "fusebench:", err)
		os.Exit(1)
	}
}
