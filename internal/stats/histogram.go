package stats

import "sort"

// Histogram is an occurrence-count table over categorical labels. It backs
// the paper's value occurrence frequency transform f_A(a_i) (Sections 3.1,
// 4.2) and the frequency-profile matching used to undo bijective attribute
// remapping (Section 4.5).
type Histogram struct {
	counts map[string]int
	total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[string]int)}
}

// HistogramOfCounts returns a histogram over counts, taking ownership of
// the map: the caller must not use it afterwards. Labels with a count of
// zero or less are dropped, as AddN would never have stored them.
func HistogramOfCounts(counts map[string]int) *Histogram {
	h := &Histogram{counts: counts}
	for l, n := range counts {
		if n <= 0 {
			delete(counts, l)
			continue
		}
		h.total += n
	}
	return h
}

// Add records one occurrence of label.
func (h *Histogram) Add(label string) { h.AddN(label, 1) }

// AddN records n occurrences of label. n may be negative to remove
// occurrences but the stored count never drops below zero.
func (h *Histogram) AddN(label string, n int) {
	c := h.counts[label] + n
	if c < 0 {
		n -= c // clamp: only remove what exists
		c = 0
	}
	if c == 0 {
		delete(h.counts, label)
	} else {
		h.counts[label] = c
	}
	h.total += n
}

// Count returns the occurrence count of label.
func (h *Histogram) Count(label string) int { return h.counts[label] }

// Total returns the total number of recorded occurrences.
func (h *Histogram) Total() int { return h.total }

// Distinct returns the number of distinct labels present.
func (h *Histogram) Distinct() int { return len(h.counts) }

// Freq returns the normalised occurrence frequency f(label) in [0,1],
// the paper's f_A(a_j).
func (h *Histogram) Freq(label string) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[label]) / float64(h.total)
}

// Labels returns all labels sorted lexicographically — the paper's sorted
// value set {a_1, …, a_nA} ("distinct and can be sorted, e.g. by ASCII").
func (h *Histogram) Labels() []string {
	out := make([]string, 0, len(h.counts))
	for l := range h.counts {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// FreqVector returns (labels, frequencies) with labels sorted
// lexicographically, for handing to the numeric-set watermark encoder.
func (h *Histogram) FreqVector() ([]string, []float64) {
	labels := h.Labels()
	freqs := make([]float64, len(labels))
	for i, l := range labels {
		freqs[i] = h.Freq(l)
	}
	return labels, freqs
}

// L1Distance returns Σ |f_h(l) − f_o(l)| over the union of labels: the
// total variation ×2 between the two normalised frequency profiles. The
// quality-constraint package uses it to bound frequency drift.
func (h *Histogram) L1Distance(o *Histogram) float64 {
	seen := make(map[string]bool, len(h.counts)+len(o.counts))
	sum := 0.0
	for l := range h.counts {
		seen[l] = true
		d := h.Freq(l) - o.Freq(l)
		if d < 0 {
			d = -d
		}
		sum += d
	}
	for l := range o.counts {
		if seen[l] {
			continue
		}
		sum += o.Freq(l)
	}
	return sum
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{counts: make(map[string]int, len(h.counts)), total: h.total}
	for l, n := range h.counts {
		c.counts[l] = n
	}
	return c
}
