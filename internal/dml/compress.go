package dml

import (
	"fmt"
	"sort"

	"sysml/internal/codegen"
	"sysml/internal/compress"
	"sysml/internal/hop"
	"sysml/internal/matrix"
)

// Compression of a block's transient reads. A value that entered the
// session from outside (Bind, or a serving request writing Env directly) is
// sampled when it is first read: compressInput, the ratio estimator and,
// above compressMinRatio, the compression, with the verdict cached on the
// matrix. A value the script produced (setEnvAll wrote it) carries the
// decline "produced by the script" from the start and is never sampled or
// compressed. An attached compressed form annotates the read's hop, so
// that a block optimized afterwards prices the read at its compressed size.

// compressMinBytes is the dense size below which compression is never
// attempted: the bookkeeping would dominate. compressMinRatio is the sampled
// compression-ratio estimate below which auto-compression declines.
const (
	compressMinBytes = 1 << 16
	compressMinRatio = 3.0
)

// compressCandidate reports whether a bound matrix is one the compression
// pass considers at all: a matrix (not a scalar or a single row) of at least
// compressMinBytes.
func (s *Session) compressCandidate(m *matrix.Matrix) bool {
	return m != nil && m.Rows > 1 && m.Cols >= 1 && m.SizeBytes() >= compressMinBytes
}

// compressPass is the interpreter's compression pass over one block about
// to run. Every transient read that is not also a block output (reads; the
// binding survives the block, so a compressed form amortizes across
// executions) either carries an attached compressed form already, carries
// a decline (script-produced values among them), or is decided by
// compressInput. The size of an attached form is written into the read's
// hop, and the block's compression ratio is published.
func (s *Session) compressPass(reads []*hop.Hop) {
	if s.Config.Compress == codegen.CompressOff {
		return
	}
	var denseTotal, compTotal int64
	for _, h := range reads {
		m := s.Env[h.Name]
		if !s.compressCandidate(m) {
			continue
		}
		if compress.Of(m) == nil {
			s.compressInput(m)
		}
		if cm := compress.Of(m); cm != nil {
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
// session and attaches the result. The ratio estimator declines it below
// compressMinRatio, and the compression when the full input turned out
// incompressible where the sample had looked compressible; either decline
// is cached on the matrix, so loop iterations pay one lookup, not a
// re-sample.
func (s *Session) compressInput(m *matrix.Matrix) {
	if _, declined := compress.DeclineReason(m); declined {
		return
	}
	s.Obs.Inc("compress.auto.sampled")
	est := compress.EstimateRatio(m, 0)
	if ratio := float64(m.SizeBytes()) / float64(est.CompressedBytes); ratio < compressMinRatio {
		compress.Decline(m, fmt.Sprintf("estimated ratio %.2f < %.2f", ratio, compressMinRatio))
		s.Obs.Inc("compress.auto.declined")
		return
	}
	opts := compress.DefaultOptions()
	opts.Pool = s.Par
	cm := compress.Compress(m, opts)
	if realRatio := float64(m.SizeBytes()) / float64(cm.SizeBytes()); realRatio < 1.2 {
		compress.Decline(m, fmt.Sprintf("actual ratio %.2f too low", realRatio))
		s.Obs.Inc("compress.auto.declined")
		return
	}
	compress.Attach(m, cm)
	s.Obs.Inc("compress.auto.compressed")
}

// verdict says, for EXPLAIN, what was decided about the value bound to
// name and why.
func (s *Session) verdict(name string) string {
	m := s.Env[name]
	if cm := compress.Of(m); cm != nil {
		return codegen.CompressedVerdict(m.SizeBytes(), cm.SizeBytes(), compress.Summary(cm))
	}
	if reason, declined := compress.DeclineReason(m); declined {
		return reason
	}
	return "not sampled"
}

// compressReport lists a block's compression candidates among its reads
// with their verdicts, in name order, for the COMPRESSED section of the
// block's EXPLAIN report.
func (s *Session) compressReport(reads []*hop.Hop) []codegen.CompressedInput {
	if s.Config.Compress == codegen.CompressOff {
		return nil
	}
	var out []codegen.CompressedInput
	for _, h := range reads {
		if s.compressCandidate(s.Env[h.Name]) {
			out = append(out, codegen.CompressedInput{
				Name: h.Name, Rows: h.Rows, Cols: h.Cols, Verdict: s.verdict(h.Name),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
