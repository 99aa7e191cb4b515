package stats

import (
	"math"
	"sort"
)

// Zipf is a sampler over ranks {0, …, n−1} with P(rank k) ∝ 1/(k+1)^s.
// The Wal-Mart stand-in data generator uses it for Item_Nbr: real product
// sales follow a heavy-tailed popularity curve, and the paper's
// frequency-domain channel (Section 4.2) explicitly relies on the value
// occurrence distribution being non-uniform ("imagine airport or product
// codes").
type Zipf struct {
	cdf []float64 // cumulative probabilities, cdf[n-1] == 1
}

// NewZipf builds a Zipf distribution over n ranks with exponent s ≥ 0.
// s = 0 degenerates to uniform. n must be positive.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: Zipf requires n > 0")
	}
	if s < 0 {
		panic("stats: Zipf exponent must be non-negative")
	}
	weights := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		w := math.Pow(float64(k+1), -s)
		weights[k] = w
		total += w
	}
	cdf := make([]float64, n)
	acc := 0.0
	for k, w := range weights {
		acc += w / total
		cdf[k] = acc
	}
	cdf[n-1] = 1 // guard against rounding shortfall
	return &Zipf{cdf: cdf}
}

// Sample draws one rank using the provided source (inverse-CDF with binary
// search; O(log n)).
func (z *Zipf) Sample(src *Source) int {
	u := src.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Weighted is a general finite discrete distribution, used by the attack
// suite's subset-addition attack to mint tuples "conforming to the overall
// data distribution" (Section 4.6) from an empirical histogram.
type Weighted struct {
	labels []string
	cdf    []float64
}

// NewWeighted builds a sampler over labels with the given non-negative
// weights. Labels and weights must be the same non-zero length with a
// positive total weight.
func NewWeighted(labels []string, weights []float64) *Weighted {
	if len(labels) == 0 || len(labels) != len(weights) {
		panic("stats: Weighted requires matching non-empty labels and weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("stats: Weighted requires non-negative finite weights")
		}
		total += w
	}
	if total <= 0 {
		panic("stats: Weighted requires positive total weight")
	}
	cdf := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cdf[i] = acc
	}
	cdf[len(cdf)-1] = 1
	return &Weighted{labels: append([]string(nil), labels...), cdf: cdf}
}

// Sample draws one label.
func (w *Weighted) Sample(src *Source) string {
	u := src.Float64()
	return w.labels[sort.SearchFloat64s(w.cdf, u)]
}
