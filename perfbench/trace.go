package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its interval relative to
// the tracer's start, and the span that caused it (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records spans in memory; they are written out once, when the run
// ends. A nil *tracer records nothing, so untraced runs call the same code.
// Spans may begin and end on several goroutines at once.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span that was timed elsewhere in the process, such as a
// job's queue wait and run, which the server stamps on the job's status.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
}

// do runs f inside a span named name.
func (t *tracer) do(name string, parent int, f func()) {
	id := t.begin(name, parent)
	f()
	t.end(id)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums each span name's self time: the span's duration minus the
// part of its interval that its children cover. Children of one span may
// run concurrently (a fan-out over the worker budget) and so overlap; the
// covered part is the union of their intervals, not the sum, so self time
// is never negative and never counted twice.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}
