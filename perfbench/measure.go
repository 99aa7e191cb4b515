package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above the reported tail value.
const tailBeyond = 10

// tail returns the highest order statistic with at least tailBeyond
// samples above it, the percentile that order statistic sits at, and the
// sample count. With too few samples for that, the maximum is returned
// at the 100th percentile.
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n <= tailBeyond {
		return s[n-1], 100, n
	}
	idx := n - 1 - tailBeyond
	return s[idx], 100 * float64(idx+1) / float64(n), n
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metric names read through runtime/metrics.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mHeapObjs   = "/memory/classes/heap/objects:bytes"
	mAutoGC     = "/gc/cycles/automatic:gc-cycles"
)

// rtReader reads a fixed set of runtime/metrics samples with one reused
// sample slice.
type rtReader struct {
	samples []metrics.Sample
}

func newRTReader(names ...string) *rtReader {
	r := &rtReader{samples: make([]metrics.Sample, len(names))}
	for i, n := range names {
		r.samples[i].Name = n
	}
	return r
}

// read refreshes every sample.
func (r *rtReader) read() {
	metrics.Read(r.samples)
}

// value returns sample i as a float.
func (r *rtReader) value(i int) float64 {
	v := r.samples[i].Value
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return math.NaN()
}

// allocBytes is the cumulative Go heap allocation of the process.
func allocBytes() float64 {
	r := newRTReader(mAllocBytes)
	r.read()
	return r.value(0)
}

// heapSampler tracks the peak Go heap (live and not yet swept objects)
// by sampling runtime/metrics on a short period. The timed phase is cut
// into windows — one per op in a closed loop, fixed spans in an open loop
// — and the reported value is the median of the windows' peaks, which a
// single collection landing late cannot move.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	cur   float64   // peak of the open window
	peaks []float64 // peaks of closed windows
}

const heapSamplePeriod = 2 * time.Millisecond

// startHeapSampler starts sampling; with window > 0 it closes a window
// every window, otherwise only cut does.
func startHeapSampler(window time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		r := newRTReader(mHeapObjs)
		t := time.NewTicker(heapSamplePeriod)
		defer t.Stop()
		opened := time.Now()
		for {
			r.read()
			v := r.value(0)
			h.mu.Lock()
			h.cur = max(h.cur, v)
			h.mu.Unlock()
			if window > 0 && time.Since(opened) >= window {
				h.cut()
				opened = time.Now()
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// cut closes the open window.
func (h *heapSampler) cut() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cur > 0 {
		h.peaks = append(h.peaks, h.cur)
	}
	h.cur = 0
}

// finish stops the sampler, waits for it, and returns the median window
// peak in bytes.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.cut()
	return median(h.peaks)
}

// gcMeter accumulates what the runtime's own garbage collector costs
// during ops, excluding the collections the benchmark forces between ops.
type gcMeter struct {
	rt     *rtReader
	st     debug.GCStats
	cycles float64
	pause  time.Duration
}

func newGCMeter() *gcMeter { return &gcMeter{rt: newRTReader(mAutoGC)} }

// snapshot returns the automatic GC cycle count and the total pause.
func (g *gcMeter) snapshot() (float64, time.Duration) {
	g.rt.read()
	debug.ReadGCStats(&g.st)
	return g.rt.value(0), g.st.PauseTotal
}

// measure runs fn and adds the automatic cycles and GC pause it caused.
func (g *gcMeter) measure(fn func()) {
	c0, p0 := g.snapshot()
	fn()
	c1, p1 := g.snapshot()
	g.cycles += c1 - c0
	g.pause += p1 - p0
}

// settle forces a full collection so the next op starts from the same
// heap state.
func settle() { runtime.GC() }

// repeat calls fn until budget has elapsed (and at least minReps times)
// and returns each call's duration in seconds.
func repeat(budget time.Duration, minReps int, fn func() error) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) < minReps || time.Since(start) < budget {
		t0 := time.Now()
		if err := fn(); err != nil {
			return out, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}
