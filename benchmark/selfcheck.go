package main

import (
	"fmt"
	"io"
)

// exactCounts are the count metrics that must repeat exactly between two
// runs of one workload and seed. (The pool, allocator, worker-pool and
// serving counts depend on goroutine scheduling and are not in the list.)
var exactCounts = []string{
	"codegen.plans_evaluated", "codegen.dags_optimized", "codegen.cplans_constructed",
	"dml.blocks_optimized", "dml.blocks_reused", "rewrite.hops_in", "rewrite.hops_out",
}

// selfCheckScale keeps the three runs per workload to a few seconds.
const selfCheckScale = 0.01

// selfCheck runs each workload twice with one seed and once with another,
// at tiny scale and with time-triggered re-optimization off (under the
// defaults a block that runs 8x off its predicted time is re-optimized,
// so the optimizer's counts follow the clock; README.md has the numbers),
// and reports an error unless the input checksums, the
// request schedule and every count metric repeat exactly for the same
// seed, and the input checksums differ for the other seed.
func selfCheck(seed int64, out io.Writer) error {
	for _, w := range workloads {
		var runs [3]*run
		for i := range runs {
			cfg := config{workload: w, seed: seed + int64(i/2), seconds: 0, trace: true,
				scale: selfCheckScale, checksums: true, stableCounts: true}
			r, err := execute(cfg, io.Discard)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w, i, err)
			}
			if r.failed > 0 {
				return fmt.Errorf("%s run %d: %d of %d operations failed: %v", w, i, r.failed, r.attempted, r.failures)
			}
			runs[i] = r
		}
		a, b, c := runs[0], runs[1], runs[2]
		if a.inputSum != b.inputSum || a.scheduleSum != b.scheduleSum {
			return fmt.Errorf("%s: same seed, different inputs: checksums %x/%x, schedules %x/%x",
				w, a.inputSum, b.inputSum, a.scheduleSum, b.scheduleSum)
		}
		if a.attempted != b.attempted {
			return fmt.Errorf("%s: same seed, %d and %d operations", w, a.attempted, b.attempted)
		}
		for _, name := range exactCounts {
			if a.perLayer[name].v != b.perLayer[name].v {
				return fmt.Errorf("%s: %s = %v, then %v with the same seed", w, name, a.perLayer[name].v, b.perLayer[name].v)
			}
		}
		if a.inputSum == c.inputSum && a.scheduleSum == c.scheduleSum {
			return fmt.Errorf("%s: seeds %d and %d generate the same inputs", w, seed, seed+1)
		}
		fmt.Fprintf(out, "%-13s ok: inputs %016x schedule %016x, %d operations, %d counts repeat; seed %d differs\n",
			w, a.inputSum, a.scheduleSum, a.attempted, len(exactCounts), seed+1)
	}
	return nil
}
