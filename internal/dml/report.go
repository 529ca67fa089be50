package dml

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"sysml/internal/obs"
)

// RunReport renders what one run did from two Metrics snapshots taken
// around it — the one renderer of the run sections, behind Session.Explain
// and dmlrun alike. Counters are reported as the run's differences: the
// BUFFER POOL section always; COMPRESSED when the run compressed, declined
// or executed over a compressed input, followed by where the session's
// cached plans' compression decisions stand; DISTRIBUTED when a
// cluster is attached, with FAULTS while it has a fault plan. Levels — the
// compression ratio and the executor counts — are read from after.
func (s *Session) RunReport(before, after obs.Snapshot) string {
	var b strings.Builder
	d := func(name string) int64 { return after.Counters[name] - before.Counters[name] }

	gets, hits := d("pool.gets"), d("pool.hits")
	rate := 0.0
	if gets > 0 {
		rate = float64(hits) / float64(gets) * 100
	}
	b.WriteString("\nBUFFER POOL (this run)\n")
	fmt.Fprintf(&b, "  pooled allocations: %d (hits %d, misses %d)\n", gets, hits, gets-hits)
	fmt.Fprintf(&b, "  buffers returned:   %d\n", d("pool.puts"))
	fmt.Fprintf(&b, "  bytes recycled:     %d (hit rate %.1f%%)\n", d("pool.bytes.recycled"), rate)

	hit, fb := d("compress.exec.hit"), d("compress.exec.fallback")
	ac, ad := d("compress.auto.compressed"), d("compress.auto.declined")
	if hit+fb+ac+ad > 0 {
		b.WriteString("\nCOMPRESSED (this run)\n")
		fmt.Fprintf(&b, "  inputs compressed:  %d (declined %d from %d estimates)\n",
			ac, ad, d("compress.auto.sampled"))
		if r, ok := after.Gauges["compress.ratio"]; ok {
			fmt.Fprintf(&b, "  compression ratio:  %.2f\n", r)
		}
		fmt.Fprintf(&b, "  operator execution: %d compressed, %d fallback\n", hit, fb)
		// Where the cached plans' decisions stood when the run ended (a
		// block's own report shows them as of its optimization).
		seen := map[string]bool{}
		var lines []string
		for e := s.blockLRU.Front(); e != nil; e = e.Next() {
			for _, ci := range s.compressReport(e.Value.(*blockEntry).inputs) {
				if line := ci.String(); !seen[line] {
					seen[line] = true
					lines = append(lines, line)
				}
			}
		}
		sort.Strings(lines)
		b.WriteString(strings.Join(lines, ""))
	}

	if _, ok := after.Counters["dist.bytes.broadcast"]; ok {
		b.WriteString("\nDISTRIBUTED (this run)\n")
		fmt.Fprintf(&b, "  executors:          %d\n", int(after.Gauges["dist.executors"]))
		fmt.Fprintf(&b, "  bytes broadcast:    %d\n", d("dist.bytes.broadcast"))
		fmt.Fprintf(&b, "  bytes shuffled:     %d\n", d("dist.bytes.shuffled"))
		net := after.Gauges["dist.net.seconds"] - before.Gauges["dist.net.seconds"]
		fmt.Fprintf(&b, "  simulated net time: %v\n", time.Duration(math.Round(net*1e9)))
		if cb, sb := d("dist.bcast.compressed_bytes"), d("dist.shuffle.compressed_bytes"); cb+sb > 0 {
			fmt.Fprintf(&b, "  compressed wire:    bcast %d B (saved %d), shuffle %d B (saved %d)\n",
				cb, d("dist.bcast.saved_bytes"), sb, d("dist.shuffle.saved_bytes"))
		}
		fmt.Fprintf(&b, "  broadcast cache:    hits %d, misses %d, invalidations %d\n",
			d("dist.bcast.hits"), d("dist.bcast.misses"), d("dist.bcast.invalidations"))
		var stages []string
		for name := range after.Counters {
			if stage, ok := strings.CutPrefix(name, "dist.shuffle.bytes."); ok {
				stages = append(stages, stage)
			}
		}
		sort.Strings(stages)
		for _, stage := range stages {
			fmt.Fprintf(&b, "  shuffle[%s]:%s%d\n", stage,
				strings.Repeat(" ", max(1, 8-len(stage))), d("dist.shuffle.bytes."+stage))
		}
		if _, ok := after.Counters["dist.fault.transient"]; ok {
			b.WriteString("  FAULTS\n")
			fmt.Fprintf(&b, "    injected:         transient %d, stragglers %d, kills %d (dead executors %d)\n",
				d("dist.fault.transient"), d("dist.fault.stragglers"), d("dist.fault.kills"),
				int(after.Gauges["dist.executors.dead"]))
			fmt.Fprintf(&b, "    recovered:        retries %d (backoff %v), reassigned %d, re-shipped %d (%d B)\n",
				d("dist.retry.attempts"), time.Duration(d("dist.retry.backoff.ns")), d("dist.fault.reassigned"),
				d("dist.bcast.reships"), d("dist.bcast.reship.bytes"))
			fmt.Fprintf(&b, "    speculation:      launched %d, wins %d\n", d("dist.spec.launched"), d("dist.spec.wins"))
			fmt.Fprintf(&b, "    degraded to local: %d\n", d("dist.degraded"))
		}
	}

	return b.String()
}
