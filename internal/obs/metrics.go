// Package obs is the repo's dependency-free telemetry layer: an atomic
// metrics registry (counters, gauges, fixed-bucket histograms, and
// scrape-time sampled families) rendered in Prometheus text exposition
// format 0.0.4, plus request-ID correlation helpers and log/slog
// constructors shared by the server, cluster, and CLI.
//
// The package deliberately imports only the standard library — go.mod
// stays third-party-free, and CI enforces the constraint with a grep
// gate over `go list -deps`.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType is the Prometheus metric type advertised on the # TYPE line.
type MetricType string

const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// DefBuckets mirror the Prometheus client default latency buckets —
// suitable for HTTP request durations.
var DefBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// WideBuckets cover long-running work — job queue waits, job run times,
// and cluster shard round-trips — out to half an hour.
var WideBuckets = []float64{0.005, 0.025, 0.1, 0.5, 1, 2.5, 10, 30, 60, 300, 1800}

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; handles obtained from a Registry are also rendered at scrape.
type Counter struct{ v atomic.Uint64 }

func (c *Counter) Inc()          { c.v.Add(1) }
func (c *Counter) Add(n uint64)  { c.v.Add(n) }
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an int64 that can go up and down.
type Gauge struct{ v atomic.Int64 }

func (g *Gauge) Set(n int64)  { g.v.Store(n) }
func (g *Gauge) Add(n int64)  { g.v.Add(n) }
func (g *Gauge) Inc()         { g.v.Add(1) }
func (g *Gauge) Dec()         { g.v.Add(-1) }
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram. Observations index into
// per-bucket atomic counters; the float64 sum is maintained with a CAS
// loop so Observe stays lock-free.
type Histogram struct {
	bounds []float64 // ascending upper bounds, exclusive of +Inf
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b))}
}

func (h *Histogram) Observe(v float64) {
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Emit reports one sampled series value; labelValues must match the
// sampled family's label names positionally.
type Emit func(value float64, labelValues ...string)

// point is anything a family can hold per label-set.
type point interface{}

// family is one metric name: HELP, TYPE, label names, and either a map
// of concrete series or a scrape-time sample function.
type family struct {
	name    string
	help    string
	typ     MetricType
	labels  []string
	buckets []float64

	mu     sync.RWMutex
	series map[string]point
	keys   map[string][]string // series key -> label values

	sample func(emit Emit) // sampled families only; series == nil
}

// Registry holds metric families and renders them in Prometheus text
// format. All mutation paths (Inc/Add/Set/Observe) are atomic; family
// creation and label-set lookup take short registry/family locks.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

func (r *Registry) family(name, help string, typ MetricType, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic("obs: metric " + name + " re-registered with a different shape")
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ, buckets: buckets, labels: labels,
		series: make(map[string]point), keys: make(map[string][]string),
	}
	r.fams[name] = f
	return f
}

// seriesKey joins label values with a separator that cannot collide
// with practical label content (0xFF is invalid UTF-8).
func seriesKey(labelValues []string) string { return strings.Join(labelValues, "\xff") }

func (f *family) get(labelValues []string, mk func() point) point {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(labelValues)))
	}
	key := seriesKey(labelValues)
	f.mu.RLock()
	p, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return p
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if p, ok := f.series[key]; ok {
		return p
	}
	p = mk()
	f.series[key] = p
	f.keys[key] = append([]string(nil), labelValues...)
	return p
}

// Counter registers (or returns the existing) unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, TypeCounter, nil, nil)
	return f.get(nil, func() point { return new(Counter) }).(*Counter)
}

// Gauge registers (or returns the existing) unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, TypeGauge, nil, nil)
	return f.get(nil, func() point { return new(Gauge) }).(*Gauge)
}

// Histogram registers (or returns the existing) unlabeled histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, TypeHistogram, buckets, nil)
	return f.get(nil, func() point { return newHistogram(f.buckets) }).(*Histogram)
}

// CounterVec is a counter family with labels; With returns the series
// handle for one label-value set, creating it on first use.
type CounterVec struct{ f *family }

func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, TypeCounter, nil, labels)}
}

func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.get(labelValues, func() point { return new(Counter) }).(*Counter)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, TypeHistogram, buckets, labels)}
}

func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.get(labelValues, func() point { return newHistogram(v.f.buckets) }).(*Histogram)
}

// Sampled registers a family whose series are produced at scrape time
// by collect — for values that already live elsewhere (job-manager
// stats, cluster membership ages, process-wide pipeline counters)
// so /metrics and /healthz read the same source and cannot drift.
// collect must only emit; it must not call back into the Registry.
func (r *Registry) Sampled(name, help string, typ MetricType, collect func(emit Emit), labels ...string) {
	f := r.family(name, help, typ, nil, labels)
	f.sample = collect
}

// sampledValue is one collected (labels, value) pair.
type sampledValue struct {
	labelValues []string
	value       float64
}

func (f *family) collect() []sampledValue {
	var out []sampledValue
	f.sample(func(v float64, lvs ...string) {
		if len(lvs) != len(f.labels) {
			panic(fmt.Sprintf("obs: sampled metric %s wants %d label values, got %d", f.name, len(f.labels), len(lvs)))
		}
		out = append(out, sampledValue{labelValues: append([]string(nil), lvs...), value: v})
	})
	sort.Slice(out, func(i, j int) bool {
		return seriesKey(out[i].labelValues) < seriesKey(out[j].labelValues)
	})
	return out
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {a="x",b="y"} (or "" without labels); extra, if
// non-empty, is appended as a pre-escaped pair (used for le="...").
func labelString(names, values []string, extra string) string {
	if len(names) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteString(`"`)
	}
	if extra != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in text exposition format 0.0.4:
// families sorted by name, series sorted by label values, each family
// preceded by its # HELP and # TYPE lines.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ)
		if f.sample != nil {
			for _, sv := range f.collect() {
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, sv.labelValues, ""), formatFloat(sv.value))
			}
			if _, err := io.WriteString(w, b.String()); err != nil {
				return err
			}
			continue
		}
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		type row struct {
			lvs []string
			p   point
		}
		rows := make([]row, 0, len(keys))
		for _, k := range keys {
			rows = append(rows, row{f.keys[k], f.series[k]})
		}
		f.mu.RUnlock()
		for _, rw := range rows {
			switch p := rw.p.(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, rw.lvs, ""), strconv.FormatUint(p.Value(), 10))
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, rw.lvs, ""), strconv.FormatInt(p.Value(), 10))
			case *Histogram:
				var cum uint64
				for i, ub := range p.bounds {
					cum += p.counts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %s\n", f.name,
						labelString(f.labels, rw.lvs, `le="`+formatFloat(ub)+`"`),
						strconv.FormatUint(cum, 10))
				}
				count := p.Count()
				fmt.Fprintf(&b, "%s_bucket%s %s\n", f.name,
					labelString(f.labels, rw.lvs, `le="+Inf"`), strconv.FormatUint(count, 10))
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelString(f.labels, rw.lvs, ""), formatFloat(p.Sum()))
				fmt.Fprintf(&b, "%s_count%s %s\n", f.name, labelString(f.labels, rw.lvs, ""), strconv.FormatUint(count, 10))
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot flattens the registry into name{labels} -> value. Unlabeled
// series use the bare family name; histograms contribute _count and
// _sum entries. /healthz is built from this so it cannot drift from
// /metrics.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()

	out := make(map[string]float64)
	for _, f := range fams {
		if f.sample != nil {
			for _, sv := range f.collect() {
				out[f.name+labelString(f.labels, sv.labelValues, "")] = sv.value
			}
			continue
		}
		f.mu.RLock()
		type row struct {
			lvs []string
			p   point
		}
		rows := make([]row, 0, len(f.series))
		for k, p := range f.series {
			rows = append(rows, row{f.keys[k], p})
		}
		f.mu.RUnlock()
		for _, rw := range rows {
			ls := labelString(f.labels, rw.lvs, "")
			switch p := rw.p.(type) {
			case *Counter:
				out[f.name+ls] = float64(p.Value())
			case *Gauge:
				out[f.name+ls] = float64(p.Value())
			case *Histogram:
				out[f.name+"_count"+ls] = float64(p.Count())
				out[f.name+"_sum"+ls] = p.Sum()
			}
		}
	}
	return out
}
