package hop

// ExecConfig controls execution-type selection. Operations whose memory
// estimate exceeds the local budget are marked for (simulated) distributed
// execution; Blocksize is the distributed block edge length that Row
// templates must respect (paper §4.1 conditional constraints).
type ExecConfig struct {
	MemBudgetBytes int64
	Blocksize      int64
}

// DefaultExecConfig mirrors the paper's driver setup scaled to a single
// process: a large local budget so that all single-node experiments stay
// local, and the SystemML default blocksize of 1000.
func DefaultExecConfig() ExecConfig {
	return ExecConfig{MemBudgetBytes: 2 << 30, Blocksize: 1000}
}

// AssignExecTypes decides local vs distributed execution per operator from
// its memory estimate, like SystemML's operator selection step.
func AssignExecTypes(roots []*Hop, cfg ExecConfig) {
	for _, h := range TopoOrder(roots) {
		if h.MemEstimate() <= cfg.MemBudgetBytes {
			h.ExecType = ExecLocal
		} else {
			h.ExecType = ExecDist
		}
	}
}

// Explain renders the DAG in SystemML's EXPLAIN-like notation for
// debugging and tests.
func Explain(roots []*Hop) string {
	s := ""
	for _, h := range TopoOrder(roots) {
		s += explainLine(h) + "\n"
	}
	return s
}

func explainLine(h *Hop) string {
	line := ""
	for i, in := range h.Inputs {
		if i > 0 {
			line += ","
		}
		line += itoa(in.ID)
	}
	return itoa(h.ID) + " " + h.String() + " [" + line + "] " +
		itoa(h.Rows) + "x" + itoa(h.Cols) + " nnz=" + itoa(h.Nnz) + " " + h.ExecType.String()
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
