package trace

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{Sampled: true}
	copy(sc.TraceID[:], "0123456789abcdef")
	copy(sc.SpanID[:], "ABCDEFGH")
	wire := sc.Traceparent()
	if len(wire) != 55 || !strings.HasPrefix(wire, "00-") || !strings.HasSuffix(wire, "-01") {
		t.Fatalf("wire form wrong: %q", wire)
	}
	got, ok := ParseTraceparent(wire)
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
	sc.Sampled = false
	got, ok = ParseTraceparent(sc.Traceparent())
	if !ok || got.Sampled {
		t.Fatalf("unsampled flag lost: %+v ok=%v", got, ok)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := "00-0102030405060708090a0b0c0d0e0f10-1112131415161718-01"
	if _, ok := ParseTraceparent(valid); !ok {
		t.Fatal("valid header rejected")
	}
	bad := []string{
		"",
		"garbage",
		valid[:54],       // truncated
		valid + "0",      // trailing junk
		"01" + valid[2:], // unknown version
		"00-00000000000000000000000000000000-1112131415161718-01", // zero trace ID
		"00-0102030405060708090a0b0c0d0e0f10-0000000000000000-01", // zero span ID
		"00-0102030405060708090a0b0c0d0e0fXY-1112131415161718-01", // non-hex
		strings.ReplaceAll(valid, "-", "_"),
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("accepted malformed traceparent %q", s)
		}
	}
}

func TestStartServerMintsAndJoins(t *testing.T) {
	rec := New(Options{SampleRatio: 1})
	ctx, root := rec.StartServer(testCtx(t), "GET /v2/jobs", "")
	if root == nil {
		t.Fatal("root span nil")
	}
	sc := root.Context()
	if !sc.Valid() || !sc.Sampled {
		t.Fatalf("minted context invalid: %+v", sc)
	}
	got, ok := FromContext(ctx)
	if !ok || got != sc {
		t.Fatalf("FromContext = %+v ok=%v, want %+v", got, ok, sc)
	}

	// A second server (the worker) joins via the wire form.
	rec2 := New(Options{SampleRatio: 0}) // joined traces ignore local ratio
	_, child := rec2.StartServer(testCtx(t), "POST /v2/internal/scan", sc.Traceparent())
	ccs := child.Context()
	if ccs.TraceID != sc.TraceID {
		t.Fatal("joined span did not keep the trace ID")
	}
	if !ccs.Sampled {
		t.Fatal("joined span did not inherit the sampled flag")
	}
	child.End()
	spans := rec2.TraceSpans(sc.TraceID)
	if len(spans) != 1 || spans[0].Parent != sc.SpanID || !spans[0].Remote {
		t.Fatalf("worker-side span wrong: %+v", spans)
	}
}

func TestChildSpansAndTree(t *testing.T) {
	rec := New(Options{SampleRatio: 1})
	ctx, root := rec.StartServer(testCtx(t), "root", "")
	ctx2, a := Start(ctx, "a")
	_, b := Start(ctx2, "b")
	if a == nil || b == nil {
		t.Fatal("sampled children must be non-nil")
	}
	b.SetAttr("k", "v")
	b.SetInt("n", 42)
	b.End()
	a.End()
	root.End()
	spans := rec.TraceSpans(root.Context().TraceID)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["a"].Parent != root.Context().SpanID {
		t.Fatal("a not parented to root")
	}
	if byName["b"].Parent != byName["a"].SpanID {
		t.Fatal("b not parented to a")
	}
	attrs := byName["b"].Attrs
	if len(attrs) != 2 || attrs[0] != (Attr{"k", "v"}) || attrs[1] != (Attr{"n", "42"}) {
		t.Fatalf("attrs wrong: %+v", attrs)
	}
}

func TestUnsampledIsNilAndFree(t *testing.T) {
	rec := New(Options{SampleRatio: 0})
	ctx, root := rec.StartServer(testCtx(t), "root", "")
	if root == nil {
		t.Fatal("root span is always created")
	}
	if root.Context().Sampled {
		t.Fatal("ratio 0 must not sample")
	}
	ctx2, child := Start(ctx, "child")
	if child != nil {
		t.Fatal("unsampled trace produced a child span")
	}
	if ctx2 != ctx {
		t.Fatal("unsampled Start must return ctx unchanged")
	}
	// The whole nil-span API must be no-op safe.
	child.SetAttr("k", "v")
	child.SetInt("n", 1)
	child.SetError(errors.New("x"))
	child.End()
	root.End()
	if spans := rec.TraceSpans(root.Context().TraceID); len(spans) != 0 {
		t.Fatalf("unsampled clean root must not be recorded, got %+v", spans)
	}
}

func TestErroredRootRecordedDespiteSampling(t *testing.T) {
	rec := New(Options{SampleRatio: 0})
	_, root := rec.StartServer(testCtx(t), "root", "")
	root.SetError(errors.New("boom"))
	root.End()
	spans := rec.TraceSpans(root.Context().TraceID)
	if len(spans) != 1 || spans[0].Err != "boom" {
		t.Fatalf("errored root not retained: %+v", spans)
	}
	flight := rec.Flight()
	if len(flight) != 1 || flight[0].Err != "boom" {
		t.Fatalf("flight recorder missed the error: %+v", flight)
	}
}

func TestFlightRetainsSlowest(t *testing.T) {
	rec := New(Options{SampleRatio: 1, FlightSlots: 2})
	durs := []time.Duration{time.Millisecond, 5 * time.Millisecond, 3 * time.Millisecond}
	for _, d := range durs {
		_, root := rec.StartServer(testCtx(t), "req", "")
		root.start = root.start.Add(-d) // backdate instead of sleeping
		root.End()
	}
	flight := rec.Flight()
	if len(flight) != 2 {
		t.Fatalf("got %d flight entries, want 2", len(flight))
	}
	if flight[0].Duration < flight[1].Duration {
		t.Fatal("flight list not slowest-first")
	}
	if flight[1].Duration < 3*time.Millisecond {
		t.Fatalf("fastest request survived eviction: %v", flight[1].Duration)
	}
}

func TestRingEviction(t *testing.T) {
	rec := New(Options{SampleRatio: 1, Capacity: 4})
	_, root := rec.StartServer(testCtx(t), "root", "")
	ctx := rec.Attach(testCtx(t), root.Context())
	for i := 0; i < 10; i++ {
		_, sp := Start(ctx, "child")
		sp.End()
	}
	spans := rec.TraceSpans(root.Context().TraceID)
	if len(spans) != 4 {
		t.Fatalf("ring of 4 retained %d spans", len(spans))
	}
}

func TestAttachLinksDetachedContext(t *testing.T) {
	rec := New(Options{SampleRatio: 1})
	_, root := rec.StartServer(testCtx(t), "root", "")
	detached := rec.Attach(testCtx(t), root.Context())
	_, sp := Start(detached, "job.run")
	if sp == nil {
		t.Fatal("Attach did not re-establish the trace")
	}
	sp.End()
	root.End()
	spans := rec.TraceSpans(root.Context().TraceID)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
}

func TestNilRecorder(t *testing.T) {
	var rec *Recorder
	ctx, sp := rec.StartServer(testCtx(t), "root", "")
	if sp != nil {
		t.Fatal("nil recorder must hand out nil spans")
	}
	sp.End()
	if _, ok := FromContext(ctx); ok {
		t.Fatal("nil recorder must not install a span context")
	}
	if rec.TraceSpans(TraceID{1}) != nil || rec.Flight() != nil {
		t.Fatal("nil recorder reads must be empty")
	}
	if ctx2 := rec.Attach(ctx, SpanContext{}); ctx2 != ctx {
		t.Fatal("nil recorder Attach must be identity")
	}
}

func TestSamplingDeterministicAcrossProcesses(t *testing.T) {
	a := New(Options{SampleRatio: 0.5})
	b := New(Options{SampleRatio: 0.5})
	var sampled int
	for i := 0; i < 256; i++ {
		tid := newTraceID()
		if a.sampled(tid) != b.sampled(tid) {
			t.Fatal("sampling decision differs between identically-configured recorders")
		}
		if a.sampled(tid) {
			sampled++
		}
	}
	if sampled == 0 || sampled == 256 {
		t.Fatalf("ratio 0.5 sampled %d/256 — threshold looks broken", sampled)
	}
}

func TestEndIdempotent(t *testing.T) {
	rec := New(Options{SampleRatio: 1})
	_, root := rec.StartServer(testCtx(t), "root", "")
	root.End()
	d := root.dur
	time.Sleep(time.Millisecond)
	root.End()
	if root.dur != d {
		t.Fatal("second End changed the duration")
	}
	if spans := rec.TraceSpans(root.Context().TraceID); len(spans) != 1 {
		t.Fatalf("double End recorded %d spans", len(spans))
	}
}

func TestConcurrentRecordAndRead(t *testing.T) {
	rec := New(Options{SampleRatio: 1, Capacity: 64})
	_, root := rec.StartServer(testCtx(t), "root", "")
	ctx := rec.Attach(testCtx(t), root.Context())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, sp := Start(ctx, "child")
				sp.SetInt("i", int64(i))
				sp.End()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			rec.TraceSpans(root.Context().TraceID)
			rec.Flight()
		}
	}()
	wg.Wait()
	<-done
	if got := len(rec.TraceSpans(root.Context().TraceID)); got != 64 {
		t.Fatalf("full ring should hold 64 spans, got %d", got)
	}
}

func TestPhases(t *testing.T) {
	var p *Phases
	p.AddIngest(time.Second) // nil-safe
	p.Annotate(nil)

	p = &Phases{}
	p.AddIngest(time.Millisecond)
	p.AddHash(2 * time.Millisecond)
	p.AddHash(time.Millisecond)
	p.AddVote(4 * time.Millisecond)
	p.AddMerge(5 * time.Millisecond)
	rec := New(Options{SampleRatio: 1})
	_, sp := rec.StartServer(testCtx(t), "scan", "")
	p.Annotate(sp)
	sp.End()
	spans := rec.TraceSpans(sp.Context().TraceID)
	want := map[string]string{
		"ingest_ns": "1000000", "hash_ns": "3000000",
		"vote_ns": "4000000", "merge_ns": "5000000",
	}
	got := map[string]string{}
	for _, a := range spans[0].Attrs {
		got[a.Key] = a.Value
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("attr %s = %q, want %q", k, got[k], v)
		}
	}
}

func TestParseTraceID(t *testing.T) {
	tid := newTraceID()
	got, ok := ParseTraceID(tid.String())
	if !ok || got != tid {
		t.Fatalf("ParseTraceID round trip failed: %v %v", got, ok)
	}
	for _, bad := range []string{"", "xyz", strings.Repeat("0", 32), strings.Repeat("g", 32)} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("accepted bad trace ID %q", bad)
		}
	}
}

// Context returns the span's propagated identity; safe on nil (invalid
// zero context).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}
