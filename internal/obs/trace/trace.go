// Package trace is the request-scoped third pillar next to the metrics
// and logs of internal/obs: in-process distributed tracing with W3C
// trace-context propagation, built on the standard library alone.
//
// The model is deliberately small. A Span is one timed operation with a
// name, a parent, and string attributes. Spans of one request — across
// processes — share a 16-byte trace ID carried in the `traceparent`
// header (W3C Trace Context, version 00). Finished spans land in a
// bounded lock-free ring per process; a trace is assembled by scanning
// the ring for its ID, and cross-process trees by asking each process
// for its shard of the trace.
//
// Sampling is head-based: the decision is derived from the trace ID the
// moment the root span starts, propagates in the traceparent flags, and
// gates all child-span creation — an unsampled request costs one nil
// check per instrumentation point. Two retention rules soften the
// sampling loss: a root span that ends in error is recorded even when
// unsampled, and the flight recorder keeps the slowest and the errored
// root spans regardless of how long ago they happened.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strconv"
	"sync/atomic"
	"time"
)

// TraceID identifies one request tree across processes (W3C trace-id).
type TraceID [16]byte

// SpanID identifies one span within a trace (W3C parent-id).
type SpanID [8]byte

// IsZero reports the invalid all-zero trace ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String is the 32-char lowercase hex form used on the wire.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports the invalid all-zero span ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String is the 16-char lowercase hex form used on the wire.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID decodes the 32-char hex form; ok is false for malformed
// or all-zero input.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return t, !t.IsZero()
}

// SpanContext is the propagated identity of a span: everything a child
// — local or on another process — needs to link itself into the tree.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Attr is one key/value annotation on a span. Values are strings;
// numeric attributes go through Span.SetInt so render order and
// formatting stay uniform.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation. Create spans through Recorder.StartServer
// or Start; a nil *Span is valid and every method on it is a no-op, so
// instrumentation never branches on the sampling decision. Mutate a span
// from one goroutine only, and not after End — End publishes it to the
// ring, where concurrent readers assume it is frozen.
type Span struct {
	rec    *Recorder
	sc     SpanContext
	parent SpanID
	root   bool

	name  string
	start time.Time
	dur   time.Duration
	err   string
	attrs []Attr

	ended atomic.Bool
}

// SetAttr annotates the span; no-op on nil or after End.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.ended.Load() {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetInt annotates the span with an integer value; no-op on nil.
func (s *Span) SetInt(key string, value int64) {
	if s == nil || s.ended.Load() {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: strconv.FormatInt(value, 10)})
}

// SetError marks the span failed. Errored root spans are recorded and
// retained by the flight recorder even when the trace is unsampled.
func (s *Span) SetError(err error) {
	if s == nil || err == nil || s.ended.Load() {
		return
	}
	s.err = err.Error()
}

// End freezes the span's duration and publishes it to the recorder's
// ring (when the trace is sampled, or the span errored). Idempotent;
// no-op on nil.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.dur = time.Since(s.start)
	if s.rec == nil {
		return
	}
	if s.sc.Sampled || s.err != "" {
		s.rec.record(s)
	}
	if s.root {
		s.rec.flight.offer(s)
	}
}

// SpanData is the frozen export form of a finished span — what the
// trace endpoints serialize and the flight recorder lists.
type SpanData struct {
	TraceID  TraceID
	SpanID   SpanID
	Parent   SpanID
	Remote   bool // parent span lives on another process
	Name     string
	Start    time.Time
	Duration time.Duration
	Err      string
	Attrs    []Attr
}

func (s *Span) data() SpanData {
	return SpanData{
		TraceID:  s.sc.TraceID,
		SpanID:   s.sc.SpanID,
		Parent:   s.parent,
		Remote:   s.root && !s.parent.IsZero(),
		Name:     s.name,
		Start:    s.start,
		Duration: s.dur,
		Err:      s.err,
		Attrs:    s.attrs,
	}
}

// Options configures a Recorder. The zero value means: 4096 ring slots,
// sample nothing (errors are still retained), keep 16 flight entries.
type Options struct {
	// Capacity is the span-ring size; finished spans beyond it evict
	// the oldest. Default 4096.
	Capacity int
	// SampleRatio is the head-sampling probability in [0, 1]. The
	// decision is a pure function of the trace ID, so every process
	// of a cluster agrees without coordination. Values outside the
	// range are clamped.
	SampleRatio float64
	// FlightSlots bounds each of the flight recorder's two retention
	// lists (slowest, errored). Default 16.
	FlightSlots int
}

// Recorder owns a process's span ring and flight recorder. A nil
// Recorder is valid: StartServer returns a nil span and tracing
// disappears. Recording is lock-free — End claims a slot with one
// atomic add and publishes the span with one atomic store.
type Recorder struct {
	ratio  float64
	pos    atomic.Uint64
	slots  []atomic.Pointer[Span]
	flight flightRecorder
}

// New builds a Recorder; see Options for defaults.
func New(opts Options) *Recorder {
	if opts.Capacity <= 0 {
		opts.Capacity = 4096
	}
	if opts.FlightSlots <= 0 {
		opts.FlightSlots = 16
	}
	r := &Recorder{
		ratio: math.Min(math.Max(opts.SampleRatio, 0), 1),
		slots: make([]atomic.Pointer[Span], opts.Capacity),
	}
	r.flight.slots = opts.FlightSlots
	return r
}

// sampled is the head decision: a threshold test on the trace ID's low
// half, so the same trace ID samples identically on every process.
func (r *Recorder) sampled(t TraceID) bool {
	if r.ratio >= 1 {
		return true
	}
	if r.ratio <= 0 {
		return false
	}
	v := binary.BigEndian.Uint64(t[8:])
	return float64(v) < r.ratio*float64(math.MaxUint64)
}

func (r *Recorder) record(s *Span) {
	slot := (r.pos.Add(1) - 1) % uint64(len(r.slots))
	r.slots[slot].Store(s)
}

// TraceSpans returns the ring's retained spans of one trace, oldest
// first by start time. The ring is bounded, so a long-gone trace may
// have been evicted; callers treat the result as best-effort.
func (r *Recorder) TraceSpans(t TraceID) []SpanData {
	if r == nil || t.IsZero() {
		return nil
	}
	var out []SpanData
	for i := range r.slots {
		if s := r.slots[i].Load(); s != nil && s.sc.TraceID == t {
			out = append(out, s.data())
		}
	}
	sortSpans(out)
	return out
}

// Flight lists the flight recorder's retained root spans — the slowest
// and the errored — slowest first.
func (r *Recorder) Flight() []SpanData {
	if r == nil {
		return nil
	}
	return r.flight.list()
}

// StartServer opens the root span of one inbound request. When the
// traceparent header (may be empty) carries a valid upstream context
// the span joins that trace as a remote child and inherits its sampled
// flag; otherwise a fresh trace ID is minted and the head-sampling
// decision made. The root span is always created — its duration and
// error feed the flight recorder — but child spans exist only on
// sampled traces. Ends must be guaranteed (defer sp.End()); the spanend
// analyzer enforces this across internal/.
func (r *Recorder) StartServer(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	if r == nil {
		return ctx, nil
	}
	var (
		tid     TraceID
		parent  SpanID
		sampled bool
	)
	if up, ok := ParseTraceparent(traceparent); ok {
		tid, parent, sampled = up.TraceID, up.SpanID, up.Sampled
	} else {
		tid = newTraceID()
		sampled = r.sampled(tid)
	}
	s := &Span{
		rec:    r,
		sc:     SpanContext{TraceID: tid, SpanID: newSpanID(), Sampled: sampled},
		parent: parent,
		root:   true,
		name:   name,
		start:  time.Now(),
	}
	return context.WithValue(ctx, ctxKey{}, ref{rec: r, sc: s.sc}), s
}

// Start opens a child of the span context carried by ctx. On an
// unsampled (or untraced) context it returns ctx unchanged and a nil
// span — the zero-cost path. Pair every Start with an End.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	rf, ok := ctx.Value(ctxKey{}).(ref)
	if !ok || rf.rec == nil || !rf.sc.Sampled {
		return ctx, nil
	}
	s := &Span{
		rec:    rf.rec,
		sc:     SpanContext{TraceID: rf.sc.TraceID, SpanID: newSpanID(), Sampled: true},
		parent: rf.sc.SpanID,
		name:   name,
		start:  time.Now(),
	}
	return context.WithValue(ctx, ctxKey{}, ref{rec: rf.rec, sc: s.sc}), s
}

// Attach re-establishes a span context on a detached ctx — the job
// manager's base context, say — so spans started under it link into the
// submitting request's trace.
func (r *Recorder) Attach(ctx context.Context, sc SpanContext) context.Context {
	if r == nil || !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ref{rec: r, sc: sc})
}

// FromContext returns the active span context, for propagation (the
// client's traceparent header) or capture across a detach boundary (job
// submission).
func FromContext(ctx context.Context) (SpanContext, bool) {
	rf, ok := ctx.Value(ctxKey{}).(ref)
	if !ok || !rf.sc.Valid() {
		return SpanContext{}, false
	}
	return rf.sc, true
}

type ctxKey struct{}

// ref is what rides the context: the span context plus the recorder
// that will own any children started under it.
type ref struct {
	rec *Recorder
	sc  SpanContext
}

// idCounter backs ID generation when crypto/rand fails (it effectively
// never does); the high bit keeps fallback IDs nonzero and disjoint
// from each other.
var idCounter atomic.Uint64

func newTraceID() TraceID {
	var t TraceID
	if _, err := rand.Read(t[:]); err != nil || t.IsZero() {
		binary.BigEndian.PutUint64(t[:8], 1)
		binary.BigEndian.PutUint64(t[8:], idCounter.Add(1))
	}
	return t
}

func newSpanID() SpanID {
	var s SpanID
	if _, err := rand.Read(s[:]); err != nil || s.IsZero() {
		binary.BigEndian.PutUint64(s[:], idCounter.Add(1)|1<<63)
	}
	return s
}

// sortSpans orders by start time, then name for determinism on equal
// clocks (insertion sort: trace span counts are small).
func sortSpans(spans []SpanData) {
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && earlier(spans[j], spans[j-1]); j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
}

func earlier(a, b SpanData) bool {
	if !a.Start.Equal(b.Start) {
		return a.Start.Before(b.Start)
	}
	return a.Name < b.Name
}
