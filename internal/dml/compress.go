package dml

import (
	"fmt"
	"sort"
	"time"

	"sysml/internal/codegen"
	"sysml/internal/compress"
	"sysml/internal/hop"
	"sysml/internal/matrix"
	"sysml/internal/runtime"
)

// Compression of a block's transient reads. Two kinds of value reach a
// block, and they are decided differently:
//
//   - A value that entered the session from outside (Bind, or a serving
//     request writing Env directly) is sampled when it is first read:
//     compressInput, the ratio estimator and, above CompressMinRatio, the
//     compression, with the verdict cached on the matrix.
//   - A value the script produced (setEnvAll wrote it) is decided by the
//     block plan that reads it: readPlan, filled when the block is
//     optimized and kept in its blockEntry. A plan without an operator that
//     can use the compressed form never samples the value; one with such a
//     consumer samples it at the second read of the same matrix and
//     compresses it once the reads so far have earned the compression back.
//
// Either way an attached compressed form annotates the read's hop, so that
// a block optimized afterwards prices the read at its compressed size.

// readPlan is the compression decision one cached block plan takes for one
// of its reads: what the plan could gain from a compressed form, and the
// history of the value currently bound to the name.
type readPlan struct {
	name       string
	rows, cols int64
	// secPerByte is Σ over the plan's compressed consumers of 1/bandwidth
	// (ReadBW, or BroadcastBW for a read a distributed operator ships): the
	// seconds one execution saves per byte the compressed form is smaller.
	// Zero: the plan has no operator that could use a compressed form.
	secPerByte float64
	readHistory
}

// readHistory is what a plan knows about one script-produced matrix it
// reads; it starts over when the name is bound to another matrix.
type readHistory struct {
	m       *matrix.Matrix
	seen    int  // executions of the plan that read m
	sampled bool // est holds m's estimate
	est     compress.Estimate
	// benefit and cost are the two sides of the inequality at the last
	// evaluation, in seconds.
	benefit, cost float64
}

// compressMinBytes is the dense size below which compression is never
// attempted: the bookkeeping would dominate.
const compressMinBytes = 1 << 16

// compressCandidate reports whether a bound matrix is one the compression
// pass considers at all: a matrix (not a scalar or a single row) of at least
// compressMinBytes.
func (s *Session) compressCandidate(m *matrix.Matrix) bool {
	return m != nil && m.Rows > 1 && m.Cols >= 1 && m.SizeBytes() >= compressMinBytes
}

// compressPass is the interpreter's compression pass over one block about
// to run: every transient read that is not also a block output (reads; the
// binding survives the block, so a compressed form amortizes across
// executions) either carries an attached compressed form already, or is
// decided by compressInput (outside values) or by the read plan of the
// block's cached entry (script-produced values; entry is nil for a block
// being planned, which is the value's first read by that plan). It reports
// whether a script-produced value was compressed just now, in which case the
// caller plans the block once more under the annotation.
func (s *Session) compressPass(reads []*hop.Hop, entry *blockEntry) (compressed bool) {
	if s.Config.Compress == codegen.CompressOff {
		return false
	}
	var skipped int64
	for _, h := range reads {
		m := s.Env[h.Name]
		if !s.compressCandidate(m) || compress.Of(m) != nil {
			continue
		}
		if _, produced := s.produced[m]; !produced || s.Config.Compress == codegen.CompressOn {
			s.compressInput(m)
			continue
		}
		cm, unsampled := s.compressProduced(entry, h.Name, m)
		if unsampled {
			skipped++
		}
		compressed = compressed || cm != nil
	}
	if skipped > 0 {
		s.Obs.Add("compress.plan.skipped", skipped)
	}
	s.annotateReads(reads)
	return compressed
}

// annotateReads writes the size of the compressed form a read's value
// carries into its hop and publishes the block's compression ratio.
func (s *Session) annotateReads(reads []*hop.Hop) {
	var denseTotal, compTotal int64
	for _, h := range reads {
		m := s.Env[h.Name]
		if cm := compress.Of(m); cm != nil && s.compressCandidate(m) {
			h.CompressedBytes = cm.SizeBytes()
			denseTotal += m.SizeBytes()
			compTotal += h.CompressedBytes
		}
	}
	if compTotal > 0 {
		s.Obs.SetGauge("compress.ratio", float64(denseTotal)/float64(compTotal))
	}
}

// compressInput decides whether to compress one value from outside the
// session and attaches the result. Returns nil when the input is declined
// (the decline is cached on the matrix so loop iterations pay one lookup,
// not a re-sample).
func (s *Session) compressInput(m *matrix.Matrix) *compress.CMatrix {
	mode := s.Config.Compress
	if _, declined := compress.DeclineReason(m); declined && mode != codegen.CompressOn {
		return nil
	}
	if mode == codegen.CompressAuto {
		if _, ok := s.sample(m); !ok {
			return nil
		}
	}
	return s.compressAndAttach(m)
}

// sample runs the ratio estimator on m. Below CompressMinRatio the decline
// is cached on the matrix and ok is false.
func (s *Session) sample(m *matrix.Matrix) (est compress.Estimate, ok bool) {
	s.Obs.Inc("compress.auto.sampled")
	est = compress.EstimateRatio(m, 0)
	ratio := float64(m.SizeBytes()) / float64(est.CompressedBytes)
	if ratio < s.Config.CompressMinRatio {
		compress.Decline(m, fmt.Sprintf("estimated ratio %.2f < %.2f", ratio, s.Config.CompressMinRatio))
		s.Obs.Inc("compress.auto.declined")
		return est, false
	}
	return est, true
}

// compressAndAttach compresses m, times it for the calibrator's CompressBW,
// and attaches the result unless the full input turned out incompressible
// where the sample had looked compressible (the decline is cached, so the
// attempt is not repeated).
func (s *Session) compressAndAttach(m *matrix.Matrix) *compress.CMatrix {
	start := time.Now()
	opts := compress.DefaultOptions()
	opts.Pool = s.Par
	cm := compress.Compress(m, opts)
	s.Calib.ObserveCompress(m.SizeBytes(), time.Since(start).Seconds())
	realRatio := float64(m.SizeBytes()) / float64(cm.SizeBytes())
	if s.Config.Compress == codegen.CompressAuto && realRatio < 1.2 {
		compress.Decline(m, fmt.Sprintf("actual ratio %.2f too low", realRatio))
		s.Obs.Inc("compress.auto.declined")
		return nil
	}
	compress.Attach(m, cm)
	s.Obs.Inc("compress.auto.compressed")
	return cm
}

// compressProduced is the decision for one read of a script-produced value
// m by the cached plan entry. It never samples a value the plan has no
// compressed consumer for, nor one it reads for the first time (a value
// rewritten every iteration has no second read; a loop-invariant one has it
// in iteration two). From the second read on the estimate is taken once,
// and m is compressed when what the reads so far would have saved — by the
// plan's compressed consumers, at the cost model's bandwidths — exceeds
// what the estimate and the compression cost at CompressBW: the value has
// then been read often enough that as many reads again would pay for it.
// unsampled reports a read that was left without ever running the
// estimator.
func (s *Session) compressProduced(entry *blockEntry, name string, m *matrix.Matrix) (cm *compress.CMatrix, unsampled bool) {
	if entry == nil {
		return nil, true // first read by a plan not chosen yet
	}
	r := findRead(entry.reads, name)
	if r == nil {
		return nil, true
	}
	if r.m != m {
		r.readHistory = readHistory{m: m}
	}
	r.seen++
	if r.secPerByte == 0 || r.seen < 2 {
		return nil, true
	}
	if _, declined := compress.DeclineReason(m); declined {
		return nil, false
	}
	if !r.sampled {
		est, ok := s.sample(m)
		if !ok {
			return nil, false
		}
		r.est, r.sampled = est, true
	}
	costs := s.Config.Costs
	sampledBytes := float64(r.est.SampledRows) * float64(m.Cols) * 8
	r.benefit = float64(m.SizeBytes()-r.est.CompressedBytes) * r.secPerByte * float64(r.seen)
	r.cost = (sampledBytes + float64(m.SizeBytes())) / costs.CompressBW
	if r.benefit <= r.cost {
		return nil, false
	}
	return s.compressAndAttach(m), false
}

// findRead returns the plan for the read of name, or nil. A block reads a
// handful of matrices.
func findRead(reads []*readPlan, name string) *readPlan {
	for _, r := range reads {
		if r.name == name {
			return r
		}
	}
	return nil
}

// planReads fills a freshly optimized block's read plans from the chosen
// plan: one per read the compression pass considers, with the compressed
// consumers the optimized DAG holds for it (runtime.CompressedConsumer).
// The execution that follows is each value's first read by this plan; a
// re-planned entry's counts and estimates (carry) are kept.
func (s *Session) planReads(d *hop.DAG, carry []*readPlan) []*readPlan {
	if s.Config.Compress == codegen.CompressOff {
		return nil
	}
	var reads []*readPlan
	topo := hop.TopoOrder(d.Roots())
	for _, h := range topo {
		if h.Kind != hop.OpData {
			continue
		}
		_, out := d.Outputs[h.Name]
		if m := s.Env[h.Name]; !out && s.compressCandidate(m) {
			r := &readPlan{name: h.Name, rows: h.Rows, cols: h.Cols, readHistory: readHistory{m: m, seen: 1}}
			if old := findRead(carry, h.Name); old != nil && old.m == m {
				r.readHistory = old.readHistory
			}
			reads = append(reads, r)
		}
	}
	if len(reads) == 0 {
		return nil
	}
	costs := s.Config.Costs
	for _, h := range topo {
		for _, in := range h.Inputs {
			if in.Kind != hop.OpData {
				continue
			}
			r := findRead(reads, in.Name)
			if r == nil {
				continue
			}
			if ok, shipped := runtime.CompressedConsumer(h, in, s.Dist != nil); ok {
				bw := costs.ReadBW
				if shipped {
					bw = costs.BroadcastBW
				}
				r.secPerByte += 1 / bw
			}
		}
	}
	return reads
}

// verdict says, for EXPLAIN, what was decided about the read and why.
func (s *Session) verdict(r *readPlan) string {
	m := s.Env[r.name]
	if cm := compress.Of(m); cm != nil {
		return codegen.CompressedVerdict(m.SizeBytes(), cm.SizeBytes(), compress.Summary(cm))
	}
	if reason, declined := compress.DeclineReason(m); declined {
		return reason
	}
	_, produced := s.produced[m]
	switch {
	case !produced:
		return "not sampled"
	case r.secPerByte == 0:
		return "no compressed consumer"
	case !r.sampled || r.m != m:
		return "second read pending"
	}
	return fmt.Sprintf("benefit %.2g ms < cost %.2g ms (estimated ratio %.2f, %d reads)",
		r.benefit*1e3, r.cost*1e3, float64(m.SizeBytes())/float64(r.est.CompressedBytes), r.seen)
}

// compressReport lists an entry's considered reads with their verdicts, in
// name order, for the COMPRESSED section of the block's EXPLAIN report.
func (s *Session) compressReport(reads []*readPlan) []codegen.CompressedInput {
	out := make([]codegen.CompressedInput, 0, len(reads))
	for _, r := range reads {
		out = append(out, codegen.CompressedInput{
			Name: r.name, Rows: r.rows, Cols: r.cols, Verdict: s.verdict(r),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
