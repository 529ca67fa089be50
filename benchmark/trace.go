package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanID identifies a recorded span; 0 means "no span" and is what every
// tracer method returns while tracing is off.
type spanID int32

// span is one benchmark-side interval around a call into a layer. Spans of
// one operation (one script run or request) share Op.
type span struct {
	ID     spanID
	Parent spanID
	Op     int
	TID    int // client / goroutine lane, for the trace viewer
	Name   string
	Start  time.Duration // since tracer start
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// that is switched off, records nothing. The spans wrap calls the
// benchmark makes into the program's public functions; nothing is recorded
// inside the program.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// enable switches recording on or off (traced and untraced passes
// alternate within a traced run).
func (t *tracer) enable(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) begin(parent spanID, op, tid int, name string) spanID {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, TID: tid, Name: name, Start: now, End: -1})
	return id
}

func (t *tracer) end(id spanID) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per layer, the summed self time of its spans: a
// span's duration minus the part of that interval its child spans cover
// (children may overlap each other, so their union is subtracted).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[spanID][]span{}
	for _, s := range spans {
		if s.End >= 0 && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		out[layerOf(s.Name)] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur := parent.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < cur {
			lo = cur
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// chromeEvent is one "complete" event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the finished spans as Chrome trace-event JSON
// (loadable in chrome://tracing or Perfetto).
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.TID,
			Args: map[string]int{"id": int(s.ID), "parent": int(s.Parent), "op": s.Op},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
