package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// The cost-audit ledger records, for every executed operator that carries
// an optimizer prediction, the predicted execution time / FLOPs / IO next
// to the measured wall time and actual data-touch work. Entries aggregate
// by operator label (bounded memory on long-running sessions) and roll up
// into per-template relative-error histograms, so a session can answer
// "where does the cost model diverge from reality, and by how much?".

// AuditEntry is one predicted-vs-measured observation of an executed
// operator.
type AuditEntry struct {
	Op       string // operator label, e.g. "spoof(Cell)" or "ba(+*)"
	Template string // fused template (Cell/Row/MAgg/Outer); "" for basic ops

	PredSec   float64 // optimizer-predicted execution time (seconds)
	PredFlops float64 // predicted floating-point work
	PredBytes int64   // predicted IO volume (input reads + output write)

	ActualSec   float64 // measured wall time
	ActualFlops float64 // measured data-touch work (sparse-aware)
	ActualBytes int64   // realized input + output bytes

	// ActualInBytes / ActualOutBytes split ActualBytes into the read and
	// write sides of the operator — the quantities the cost model charges at
	// ReadBW and WriteBW respectively — so codegen.Fit can fit the two
	// bandwidths independently.
	ActualInBytes  int64
	ActualOutBytes int64

	// BcastBytes is the portion of the input bytes a distributed operator
	// received as broadcast side inputs (charged at BroadcastBW, not
	// ReadBW); zero for local execution.
	BcastBytes int64

	// Dist marks operators that executed on the distributed backend.
	Dist bool
}

// minAuditSec floors measured wall time so clock-granularity zeros don't
// turn into infinite relative errors.
const minAuditSec = 1e-7

// RelErr returns the signed relative error of the time prediction,
// (predicted − actual) / actual: positive means the model over-estimated.
func (e AuditEntry) RelErr() float64 {
	actual := math.Max(e.ActualSec, minAuditSec)
	return (e.PredSec - actual) / actual
}

// RelErrBounds are the upper bounds of the |relative error| histogram
// buckets; a final overflow bucket catches everything above the last bound.
var RelErrBounds = []float64{0.1, 0.25, 0.5, 1, 2, 5}

// NumRelErrBuckets is len(RelErrBounds) plus the overflow bucket.
const NumRelErrBuckets = 7

// RelErrHist is a histogram of absolute relative errors, with a side tally
// of prediction direction (under- vs over-estimates).
type RelErrHist struct {
	Buckets [NumRelErrBuckets]int64
	Under   int64 // predictions below the measurement
	Over    int64 // predictions at or above the measurement
}

func (h *RelErrHist) add(rel float64) {
	if rel < 0 {
		h.Under++
	} else {
		h.Over++
	}
	abs := math.Abs(rel)
	i := sort.SearchFloat64s(RelErrBounds, abs)
	h.Buckets[i]++
}

func (h *RelErrHist) merge(o RelErrHist) {
	for i, v := range o.Buckets {
		h.Buckets[i] += v
	}
	h.Under += o.Under
	h.Over += o.Over
}

// Count returns the number of recorded observations.
func (h RelErrHist) Count() int64 {
	var n int64
	for _, v := range h.Buckets {
		n += v
	}
	return n
}

// Median estimates the median |relative error| of the histogram by linear
// interpolation within its buckets; the gate experiments compare this
// before and after cost-model calibration. Zero when empty.
func (h RelErrHist) Median() float64 { return h.Quantile(0.5) }

// Quantile estimates the q-th quantile (0 < q < 1) of the |relative error|
// distribution by linear interpolation within the histogram buckets. The
// overflow bucket extrapolates to twice the last bound.
func (h RelErrHist) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, v := range h.Buckets {
		if v == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = RelErrBounds[i-1]
		}
		hi := 2 * RelErrBounds[len(RelErrBounds)-1]
		if i < len(RelErrBounds) {
			hi = RelErrBounds[i]
		}
		if cum+float64(v) >= rank {
			frac := (rank - cum) / float64(v)
			return lo + frac*(hi-lo)
		}
		cum += float64(v)
	}
	return 2 * RelErrBounds[len(RelErrBounds)-1]
}

// String renders the bucket counts as "≤0.1:3 ≤0.25:1 ... >5:0".
func (h RelErrHist) String() string {
	var b strings.Builder
	for i, v := range h.Buckets {
		if i > 0 {
			b.WriteByte(' ')
		}
		if i < len(RelErrBounds) {
			fmt.Fprintf(&b, "<=%g:%d", RelErrBounds[i], v)
		} else {
			fmt.Fprintf(&b, ">%g:%d", RelErrBounds[len(RelErrBounds)-1], v)
		}
	}
	return b.String()
}

// AuditGroup aggregates every observation of one operator label. Sec,
// FLOPs, and byte fields are sums over Count observations.
type AuditGroup struct {
	Op       string
	Template string
	Count    int64

	PredSec   float64
	ActualSec float64

	PredFlops   float64
	ActualFlops float64

	PredBytes   int64
	ActualBytes int64

	// Read/write/broadcast byte splits (sums, like ActualBytes) and the
	// number of distributed observations — codegen.Fit's inputs.
	ActualInBytes  int64
	ActualOutBytes int64
	BcastBytes     int64
	DistCount      int64

	RelErr RelErrHist

	// Worst is the single observation with the largest |relative error|.
	Worst    AuditEntry
	WorstRel float64
}

// MeanRelErr returns the signed relative error of the summed times — the
// time-weighted divergence of the group.
func (g AuditGroup) MeanRelErr() float64 {
	actual := math.Max(g.ActualSec, minAuditSec)
	return (g.PredSec - actual) / actual
}

// AbsMispredSec returns the absolute seconds of misprediction accumulated
// by the group; the summary ranks worst offenders by this.
func (g AuditGroup) AbsMispredSec() float64 {
	return math.Abs(g.PredSec - g.ActualSec)
}

// Audit is the concurrent-safe cost-audit ledger.
type Audit struct {
	mu     sync.Mutex
	groups map[string]*AuditGroup
}

// NewAudit returns an empty ledger.
func NewAudit() *Audit { return &Audit{groups: map[string]*AuditGroup{}} }

// Record adds one observation. Nil-safe.
func (a *Audit) Record(e AuditEntry) {
	if a == nil {
		return
	}
	rel := e.RelErr()
	a.mu.Lock()
	defer a.mu.Unlock()
	g, ok := a.groups[e.Op]
	if !ok {
		g = &AuditGroup{Op: e.Op, Template: e.Template}
		a.groups[e.Op] = g
	}
	g.Count++
	g.PredSec += e.PredSec
	g.ActualSec += e.ActualSec
	g.PredFlops += e.PredFlops
	g.ActualFlops += e.ActualFlops
	g.PredBytes += e.PredBytes
	g.ActualBytes += e.ActualBytes
	g.ActualInBytes += e.ActualInBytes
	g.ActualOutBytes += e.ActualOutBytes
	g.BcastBytes += e.BcastBytes
	if e.Dist {
		g.DistCount++
	}
	g.RelErr.add(rel)
	if abs := math.Abs(rel); g.Count == 1 || abs > g.WorstRel {
		g.Worst, g.WorstRel = e, abs
	}
}

// TemplateAudit is the per-template roll-up of the ledger. The empty
// template key is reported as "basic" (unfused HOPs).
type TemplateAudit struct {
	Template  string
	Count     int64
	PredSec   float64
	ActualSec float64
	RelErr    RelErrHist
}

// AuditSummary is a point-in-time roll-up of the ledger: per-template
// relative-error histograms plus per-operator groups ranked by absolute
// seconds of misprediction (worst offenders first).
type AuditSummary struct {
	Templates map[string]TemplateAudit
	Groups    []AuditGroup

	TotalPredSec   float64
	TotalActualSec float64
}

// Summary returns the current roll-up. Nil-safe: a nil ledger summarizes
// to an empty (but usable) summary.
func (a *Audit) Summary() AuditSummary {
	s := AuditSummary{Templates: map[string]TemplateAudit{}}
	if a == nil {
		return s
	}
	a.mu.Lock()
	for _, g := range a.groups {
		s.Groups = append(s.Groups, *g)
	}
	a.mu.Unlock()
	for _, g := range s.Groups {
		key := g.Template
		if key == "" {
			key = "basic"
		}
		t := s.Templates[key]
		t.Template = key
		t.Count += g.Count
		t.PredSec += g.PredSec
		t.ActualSec += g.ActualSec
		t.RelErr.merge(g.RelErr)
		s.Templates[key] = t
		s.TotalPredSec += g.PredSec
		s.TotalActualSec += g.ActualSec
	}
	sort.Slice(s.Groups, func(i, j int) bool {
		a, b := s.Groups[i], s.Groups[j]
		if a.AbsMispredSec() != b.AbsMispredSec() {
			return a.AbsMispredSec() > b.AbsMispredSec()
		}
		return a.Op < b.Op
	})
	return s
}

// String renders the summary as a fixed-width report: template roll-up
// first, then the worst-offending operators.
func (s AuditSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# COST AUDIT (predicted vs measured)\n")
	if len(s.Groups) == 0 {
		b.WriteString("no audited operators (run a script in Gen/Fused mode first)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "total: predicted %.3gs, measured %.3gs\n", s.TotalPredSec, s.TotalActualSec)
	b.WriteString("per template:\n")
	keys := make([]string, 0, len(s.Templates))
	for k := range s.Templates {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t := s.Templates[k]
		fmt.Fprintf(&b, "  %-5s n=%-4d pred=%.3gs actual=%.3gs |relerr| %s (under=%d over=%d)\n",
			t.Template, t.Count, t.PredSec, t.ActualSec, t.RelErr.String(), t.RelErr.Under, t.RelErr.Over)
	}
	b.WriteString("worst offenders (by absolute mispredicted seconds):\n")
	n := len(s.Groups)
	if n > 10 {
		n = 10
	}
	for _, g := range s.Groups[:n] {
		fmt.Fprintf(&b, "  %-24s n=%-4d pred=%.3gs actual=%.3gs relerr=%+.2f worst=%+.2f\n",
			g.Op, g.Count, g.PredSec, g.ActualSec, g.MeanRelErr(), signedWorst(g))
	}
	return b.String()
}

func signedWorst(g AuditGroup) float64 {
	return g.Worst.RelErr()
}
