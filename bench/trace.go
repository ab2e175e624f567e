package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans are recorded by the
// benchmark around its calls into the program, or imported from outputs
// the program returns (RunInfo.Phases, the daemon's job view), and nest by
// Parent. Req groups the spans of one operation.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Lane   int    `json:"lane"`
	Start  int64  `json:"start"` // ns since the tracer's epoch
	End    int64  `json:"end"`
}

// layer is the module a span belongs to: the part of its name before the
// first dot ("eclat.initialization" → "eclat").
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time

	mu        sync.Mutex
	spans     []span
	recording time.Duration // time spent inside add and setEnd
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer, which
// is also the "no parent" id).
func (t *tracer) add(name string, parent int, req int64, lane int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	called := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Lane: lane,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.recording += time.Since(called)
	return id
}

// setEnd closes a span recorded before its children (so they can name it
// as parent) once the operation it covers has finished.
func (t *tracer) setEnd(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	called := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.epoch).Nanoseconds()
	t.recording += time.Since(called)
}

// recordingTime is the time spent recording spans so far.
func (t *tracer) recordingTime() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recording
}

// phases imports a mining run's phase spans under parent. RunInfo.Phases
// and the job view report offsets from the start of the run's own trace,
// which begins at runStart.
func (t *tracer) phases(parent int, req int64, lane int, runStart time.Time, ph []phaseSpan) {
	for _, p := range ph {
		if p.StartNS < 0 { // virtual (simulated-cluster) time has no place on a wall-clock timeline
			continue
		}
		s := runStart.Add(time.Duration(p.StartNS))
		t.add("eclat."+p.Name, parent, req, lane, s, s.Add(time.Duration(p.DurationNS)))
	}
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// phaseSpan is the JSON shape of one phase span, shared by RunInfo.Phases
// (repro.PhaseSpan) and the daemon's job view.
type phaseSpan struct {
	Name       string `json:"name"`
	StartNS    int64  `json:"startNs"`
	DurationNS int64  `json:"durationNs"`
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to [start, end].
func covered(start, end int64, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, start), min(k.End, end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), which Perfetto and about:tracing open
// directly. Lanes become thread ids.
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{Name: s.Name, Cat: s.layer(), Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, PID: 1, TID: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req}})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
