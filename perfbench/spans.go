package main

import (
	"sync"
	"time"
)

// tracer records spans in memory for the traced run: a name, a start and
// end, and the span that caused it. Spans are written out only as the
// per-layer aggregates once the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	name       string
	parent     int // index of the causing span; -1 for a root
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (-1 for a root) and returns its handle.
// A nil tracer records nothing, so untraced code paths need no branches.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// record adds an already-measured span.
func (t *tracer) record(name string, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	s := start.Sub(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: s, end: s + d})
	return len(t.spans) - 1
}

// reset drops every recorded span and restarts the clock.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.t0 = time.Now()
	t.mu.Unlock()
}

// layerTimes sums, per span name, the total and the self time (the span's
// duration minus the part its children cover) of every closed span, and
// counts the spans.
type layerTimes struct {
	total, self map[string]time.Duration
	count       map[string]int
}

func (t *tracer) aggregate() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	lt := layerTimes{
		total: map[string]time.Duration{},
		self:  map[string]time.Duration{},
		count: map[string]int{},
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.end >= 0 && s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		lt.total[s.name] += d
		lt.self[s.name] += d - child[i]
		lt.count[s.name]++
	}
	return lt
}
