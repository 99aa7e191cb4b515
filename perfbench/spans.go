package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// The benchmark's own span recorder: the traced run wraps each call into
// a layer's public functions in a span, keeps every span in memory, and
// writes them out once the run ends. Nothing inside the program is
// instrumented; a nil *tracer records nothing.

// span is one timed call. Parent is -1 for an op's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	closed bool
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent (-1 for a root) and returns its ID.
func (t *tracer) start(name string, parent, op int) int {
	return t.startAt(name, parent, op, time.Now())
}

// startAt opens a span whose start time is given, for spans timed from a
// schedule rather than from the call.
func (t *tracer) startAt(name string, parent, op int, at time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: at.Sub(t.epoch).Nanoseconds()})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].closed = true
}

// record adds an already finished span.
func (t *tracer) record(name string, parent, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		closed: true,
	})
}

// selfTimes returns, per span name, the median self time in
// milliseconds: a span's duration minus the part of it its children
// cover (overlapping children are counted once).
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.closed && s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string][]float64)
	for _, s := range t.spans {
		if !s.closed {
			continue
		}
		self := float64(s.End-s.Start) - covered(children[s.ID], s.Start, s.End)
		byName[s.Name] = append(byName[s.Name], self/1e6)
	}
	out := make(map[string]float64, len(byName))
	for name, xs := range byName {
		out[name] = median(xs)
	}
	return out
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi].
func covered(spans []span, lo, hi int64) float64 {
	ivs := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, [2]int64{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, iv := range ivs {
		if iv[0] > curB {
			total += curB - curA
			curA, curB = iv[0], iv[1]
			continue
		}
		curB = max(curB, iv[1])
	}
	total += curB - curA
	return float64(total)
}

// write stores every closed span as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	out := slices.DeleteFunc(slices.Clone(t.spans), func(s span) bool { return !s.closed })
	t.mu.Unlock()
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
