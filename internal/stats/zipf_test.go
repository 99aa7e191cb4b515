package stats

import (
	"math"
	"testing"
)

func TestZipfProbsSumToOne(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{1, 1}, {10, 0}, {100, 1}, {1000, 1.5}} {
		z := NewZipf(tc.n, tc.s)
		sum := 0.0
		for k := 0; k < tc.n; k++ {
			sum += z.Prob(k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("Zipf(%d,%v) probs sum to %v", tc.n, tc.s, sum)
		}
	}
}

func TestZipfMonotoneRanks(t *testing.T) {
	z := NewZipf(50, 1.0)
	for k := 1; k < 50; k++ {
		if z.Prob(k) > z.Prob(k-1)+1e-15 {
			t.Fatalf("rank %d more probable than rank %d", k, k-1)
		}
	}
}

func TestZipfZeroExponentUniform(t *testing.T) {
	z := NewZipf(10, 0)
	for k := 0; k < 10; k++ {
		if math.Abs(z.Prob(k)-0.1) > 1e-12 {
			t.Fatalf("s=0 rank %d prob %v, want 0.1", k, z.Prob(k))
		}
	}
}

func TestZipfSampleMatchesProb(t *testing.T) {
	z := NewZipf(20, 1.0)
	src := NewSource("zipf-sample")
	const trials = 60000
	counts := make([]int, 20)
	for i := 0; i < trials; i++ {
		counts[z.Sample(src)]++
	}
	for k := 0; k < 20; k++ {
		want := z.Prob(k) * trials
		tol := 5*math.Sqrt(want) + 5
		if math.Abs(float64(counts[k])-want) > tol {
			t.Errorf("rank %d sampled %d times, want ~%.0f", k, counts[k], want)
		}
	}
}

func TestZipfSampleRange(t *testing.T) {
	z := NewZipf(7, 2.0)
	src := NewSource("zipf-range")
	for i := 0; i < 5000; i++ {
		if k := z.Sample(src); k < 0 || k >= 7 {
			t.Fatalf("sample %d out of range", k)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipf(0, 1) },
		func() { NewZipf(5, -0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestZipfProbOutOfRange(t *testing.T) {
	z := NewZipf(5, 1)
	if z.Prob(-1) != 0 || z.Prob(5) != 0 {
		t.Error("out-of-range ranks should have probability 0")
	}
}

func TestWeightedSample(t *testing.T) {
	w := NewWeighted([]string{"a", "b", "c"}, []float64{1, 2, 7})
	src := NewSource("weighted")
	const trials = 50000
	counts := map[string]int{}
	for i := 0; i < trials; i++ {
		counts[w.Sample(src)]++
	}
	wants := map[string]float64{"a": 0.1, "b": 0.2, "c": 0.7}
	for label, frac := range wants {
		want := frac * trials
		if math.Abs(float64(counts[label])-want) > 5*math.Sqrt(want) {
			t.Errorf("label %q sampled %d, want ~%.0f", label, counts[label], want)
		}
	}
}

func TestWeightedZeroWeightNeverSampled(t *testing.T) {
	w := NewWeighted([]string{"never", "always"}, []float64{0, 1})
	src := NewSource("w0")
	for i := 0; i < 2000; i++ {
		if w.Sample(src) == "never" {
			t.Fatal("zero-weight label sampled")
		}
	}
}

func TestWeightedPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":    func() { NewWeighted(nil, nil) },
		"mismatch": func() { NewWeighted([]string{"a"}, []float64{1, 2}) },
		"negative": func() { NewWeighted([]string{"a"}, []float64{-1}) },
		"zero sum": func() { NewWeighted([]string{"a", "b"}, []float64{0, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// N returns the number of ranks. N and Prob read a Zipf's rank
// distribution back for the tests.
func (z *Zipf) N() int { return len(z.cdf) }

// Prob returns P(rank k).
func (z *Zipf) Prob(k int) float64 {
	if k < 0 || k >= len(z.cdf) {
		return 0
	}
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}
