package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of the program.
// Spans of one run share Run; Parent is the ID of the span that caused it
// (0 = none). Units is the work the call did (records, bytes, units...),
// so per-unit costs are derived where the work happened.
type Span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Units  float64 `json:"units,omitempty"`
}

// Dur is the span's wall duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps a run's spans in memory; WriteFile stores them when the run
// ends. A disabled tracer records nothing and its spans are nil, so the
// untraced run pays one branch per call.
type Tracer struct {
	on  bool
	run string
	t0  time.Time

	mu    sync.Mutex
	next  int64
	spans []Span
}

// NewTracer returns a tracer for one run; on=false disables it.
func NewTracer(on bool, run string) *Tracer {
	return &Tracer{on: on, run: run, t0: time.Now()}
}

// Open is an unfinished span.
type Open struct {
	t *Tracer
	s Span
}

// Begin starts a span under parent (0 = top level). It returns nil when
// tracing is off; the methods of a nil *Open are no-ops.
func (t *Tracer) Begin(parent int64, name string) *Open {
	if t == nil || !t.on {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &Open{t: t, s: Span{ID: id, Parent: parent, Run: t.run, Name: name, Start: int64(time.Since(t.t0))}}
}

// ID is the span's identifier (0 for a nil span), for use as a parent.
func (o *Open) ID() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// End closes the span, crediting it with units of work.
func (o *Open) End(units float64) {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.s.Units = units
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// Add records an already measured span (a child process's, or one timed by
// the server and reported in its envelope), shifted to this run's clock.
func (t *Tracer) Add(parent int64, name string, start time.Time, dur time.Duration, units float64) int64 {
	if t == nil || !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, Span{ID: t.next, Parent: parent, Run: t.run, Name: name, Start: s, End: s + int64(dur), Units: units})
	return t.next
}

// Spans returns a copy of the recorded spans, ordered by start.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Named returns the spans called name.
func (t *Tracer) Named(name string) []Span {
	var out []Span
	for _, s := range t.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// PerUnit is the summed duration of the spans called name divided by their
// summed units, in nanoseconds per unit (0 when there are none).
func (t *Tracer) PerUnit(name string) float64 {
	var ns, units float64
	for _, s := range t.Named(name) {
		ns += float64(s.Dur())
		units += s.Units
	}
	if units == 0 {
		return 0
	}
	return ns / units
}

// Self is each span's duration minus the part of its interval its child
// spans cover, keyed by span ID.
func (t *Tracer) Self() map[int64]int64 {
	spans := t.Spans()
	kids := map[int64][]Span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		covered := int64(0)
		cur := s.Start // children are ordered by start; merge overlaps
		for _, c := range kids[s.ID] {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.Dur() - covered
	}
	return self
}

// WriteFile stores the spans as JSON at path.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(t.Spans(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
