// Package freq implements the frequency-domain watermark channel of
// Section 4.2 and the bijective-remapping recovery of Section 4.5.
//
// The extreme vertical-partition attack keeps a single categorical
// attribute A and nothing else. The remaining value of such data lies in
// the occurrence-frequency distribution [f_A(a_i)], so a watermark encoded
// *in that distribution* survives where the key-association channel cannot.
// The encoder delegates to the numeric-set scheme of package numeric
// (reference [10]); because the watermarked quantities are occurrence
// frequencies, minimising absolute change in frequency space minimises the
// number of categorical tuples rewritten — the observation the paper calls
// "surprising and fortunate".
package freq

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/numeric"
	"repro/internal/quality"
	"repro/internal/relation"
	"repro/internal/stats"
)

// Params configures the frequency channel.
type Params struct {
	// Numeric configures the underlying numeric-set encoder. MinStep is
	// overridden internally to the larger of the count quantisation bound
	// and the NoiseKeep-derived sampling-noise bound.
	Numeric numeric.Params
	// NoiseKeep is the designed survival point: the smallest subset
	// fraction of the data under which detection should still succeed.
	// Smaller values buy more robustness with more tuple moves. 0 means
	// the default 0.5 (survive 50% data loss).
	NoiseKeep float64
	// Assessor, when non-nil, gates tuple moves through quality
	// constraints.
	Assessor *quality.Assessor
	// SkipRow, when non-nil, excludes rows from being moved (interference
	// ledger against the key-association channel, per the Section 4.2
	// "embedding markers" note).
	SkipRow func(row int) bool
	// OnAlter, when non-nil, is called for every moved row.
	OnAlter func(row int)
}

// DefaultParams returns the frequency-channel parameter set tuned for
// heavy-tailed (Zipf-like) histograms: the violator cut sits at the subset
// mean (Confidence 0) — for long-tailed frequency data a mean+0.5σ cut
// strands the cut far above the tail and makes "1" bits ruinously
// expensive to encode — with an asymmetric (0.08, 0.30) decision gap
// around the natural ≈0.15 above-mean fraction of Zipf subsets.
func DefaultParams(key keyhash.Key) Params {
	return Params{
		Numeric: numeric.Params{
			Key:        key,
			Confidence: 0,
			VTrue:      0.30,
			VFalse:     0.08,
		},
		NoiseKeep: 0.5,
	}
}

// EmbedStats reports what one frequency embedding did.
type EmbedStats struct {
	// TuplesMoved counts rows whose attribute value was reassigned.
	TuplesMoved int
	// Residual counts target-count units that could not be realised
	// (quality vetoes or ledger skips exhausted the movable rows).
	Residual int
	// Numeric carries the frequency-space encoder statistics.
	Numeric numeric.EncodeStats
}

// Embed watermarks the occurrence-frequency histogram of attr in place.
// It computes target frequencies with the numeric encoder, converts them
// to integer counts by largest-remainder apportionment, then moves the
// minimum number of tuples from surplus values to deficit values.
func Embed(r *relation.Relation, attr string, wm ecc.Bits, p Params) (EmbedStats, error) {
	st, _, err := EmbedCounts(r, attr, wm, p)
	return st, err
}

// EmbedCounts is Embed by code, on attr's column coded in place
// (relation.Relation.Code): surplus, deficit and running counts are
// slices indexed by code, and each move stores a row's new code and
// adjusts two of them. It also returns the attribute's occurrence
// histogram as the embedding left it, built from the final counts —
// relation.HistogramOf(r, attr) after the call; it is nil on error.
func EmbedCounts(r *relation.Relation, attr string, wm ecc.Bits, p Params) (EmbedStats, *stats.Histogram, error) {
	var st EmbedStats
	col, ok := r.Schema().Index(attr)
	if !ok {
		return st, nil, fmt.Errorf("freq: attribute %q not in schema", attr)
	}
	if len(wm) == 0 {
		return st, nil, errors.New("freq: empty watermark")
	}
	if r.Len() == 0 {
		return st, nil, errors.New("freq: empty relation")
	}
	r.Code(col)
	c, err := relation.CodeColumn(r, attr)
	if err != nil {
		return st, nil, err
	}
	// The labels present, in the sorted order of Histogram.FreqVector.
	present := make([]int32, 0, len(c.Labels))
	total := 0
	for code, n := range c.Counts {
		if n > 0 {
			present = append(present, int32(code))
			total += n
		}
	}
	if len(present) < len(wm) {
		return st, nil, fmt.Errorf("freq: %d distinct values cannot carry %d bits", len(present), len(wm))
	}
	sort.Slice(present, func(i, j int) bool { return c.Labels[present[i]] < c.Labels[present[j]] })

	items := make([]numeric.Item, len(present))
	for i, code := range present {
		items[i] = numeric.Item{Label: c.Labels[code], Value: float64(c.Counts[code]) / float64(total)}
	}
	np := p.Numeric
	// The nudge must survive two perturbations: count quantisation
	// (±1 tuple = 1/N of frequency) and the sampling noise a subset attack
	// induces. For a keep-fraction k of N tuples, a frequency f estimates
	// with σ ≈ sqrt(f·(1−k)/(k·N)); we size the minimum nudge at 3σ of the
	// mean frequency, the neighbourhood where nudged items live.
	keep := p.NoiseKeep
	if keep <= 0 || keep > 1 {
		keep = 0.5
	}
	n := float64(r.Len())
	fMean := 1.0 / float64(len(present))
	noiseStep := 3 * math.Sqrt(fMean*(1-keep)/(keep*n))
	quantStep := 1.5 / n
	np.MinStep = math.Max(noiseStep, quantStep)
	marked, encSt, err := numeric.Encode(items, wm, np)
	if err != nil {
		return st, nil, err
	}
	st.Numeric = encSt

	// Encode keeps the item order, so target[i] is present[i]'s count.
	target := apportion(marked, r.Len())

	// Surplus (current − target, positive = give away) per code, and the
	// deficits to fill.
	surplus := make([]int, len(c.Labels))
	type deficitEntry struct {
		code int32
		need int
	}
	var deficits []deficitEntry
	for i, code := range present {
		d := c.Counts[code] - target[i]
		if d > 0 {
			surplus[code] = d
		} else if d < 0 {
			deficits = append(deficits, deficitEntry{code: code, need: -d})
		}
	}
	// Largest deficit first, deterministic tie-break by label.
	sort.Slice(deficits, func(i, j int) bool {
		if deficits[i].need != deficits[j].need {
			return deficits[i].need > deficits[j].need
		}
		return c.Labels[deficits[i].code] < c.Labels[deficits[j].code]
	})

	di := 0
	advance := func() {
		for di < len(deficits) && deficits[di].need == 0 {
			di++
		}
	}
	advance()
	for row := 0; row < r.Len() && di < len(deficits); row++ {
		from := int32(r.CodeAt(row, col))
		if surplus[from] <= 0 {
			continue
		}
		if p.SkipRow != nil && p.SkipRow(row) {
			continue
		}
		to := deficits[di].code
		if p.Assessor != nil {
			if aerr := p.Assessor.Apply(r, row, attr, c.Labels[to]); aerr != nil {
				var verr *quality.ViolationError
				if errors.As(aerr, &verr) {
					continue
				}
				return st, nil, aerr
			}
		} else {
			r.SetSlotAt(row, col, uint64(to))
		}
		c.Counts[from]--
		c.Counts[to]++
		surplus[from]--
		deficits[di].need--
		st.TuplesMoved++
		if p.OnAlter != nil {
			p.OnAlter(row)
		}
		advance()
	}
	for ; di < len(deficits); di++ {
		st.Residual += deficits[di].need
	}
	return st, c.Histogram(), nil
}

// apportion converts target frequencies to integer counts summing to n
// (largest-remainder method); counts[i] is items[i]'s.
func apportion(items []numeric.Item, n int) []int {
	total := 0.0
	for _, it := range items {
		if it.Value > 0 {
			total += it.Value
		}
	}
	counts := make([]int, len(items))
	type frac struct {
		item int
		rem  float64
	}
	fracs := make([]frac, 0, len(items))
	assigned := 0
	for i, it := range items {
		v := it.Value
		if v < 0 {
			v = 0
		}
		exact := v / total * float64(n)
		c := int(exact)
		counts[i] = c
		assigned += c
		fracs = append(fracs, frac{item: i, rem: exact - float64(c)})
	}
	sort.Slice(fracs, func(i, j int) bool {
		if fracs[i].rem != fracs[j].rem {
			return fracs[i].rem > fracs[j].rem
		}
		return items[fracs[i].item].Label < items[fracs[j].item].Label
	})
	for i := 0; assigned < n && i < len(fracs); i++ {
		counts[fracs[i].item]++
		assigned++
	}
	return counts
}

// Detect recovers a wmLen-bit watermark from the occurrence-frequency
// histogram of attr. It needs nothing but the (possibly vertically
// partitioned, single-attribute) relation and the secret key — the channel
// the extreme A5 attack cannot remove without flattening the distribution
// and with it the data's remaining value.
func Detect(r *relation.Relation, attr string, wmLen int, p Params) (numeric.DecodeReport, error) {
	hist, err := relation.HistogramOf(r, attr)
	if err != nil {
		return numeric.DecodeReport{}, err
	}
	return DetectHistogram(hist, wmLen, p)
}

// DetectHistogram is Detect over an occurrence histogram the caller
// already holds — the suspect's counts, or MapHistogram's image of them
// after remap recovery.
func DetectHistogram(hist *stats.Histogram, wmLen int, p Params) (numeric.DecodeReport, error) {
	labels, freqs := hist.FreqVector()
	items := make([]numeric.Item, len(labels))
	for i, l := range labels {
		items[i] = numeric.Item{Label: l, Value: freqs[i]}
	}
	return numeric.Decode(items, wmLen, p.Numeric)
}
