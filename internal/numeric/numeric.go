// Package numeric re-implements the numeric-set watermarking scheme of
// Sion, Atallah & Prabhakar, "On Watermarking Numeric Sets" (IWDW 2002) —
// reference [10] of the categorical-data paper — to the extent Section 4.2
// depends on it: a bit encoder over a set of labelled numeric values that
// minimises absolute data change.
//
// Scheme: items are secretly partitioned into |wm| subsets by a keyed hash
// of their labels. Each subset S encodes one bit in its "confidence
// violators" statistic
//
//	v(S) = |{ x ∈ S : x > μ(S) + c·σ(S) }| / |S|
//
// To encode 1 the encoder nudges the items nearest the cut until
// v ≥ v_true; to encode 0 until v ≤ v_false. Nudges move a value just
// across the μ+c·σ boundary, so the absolute change per moved item is
// minimal. Decoding recomputes v and compares against the midpoint
// (v_true + v_false)/2, leaving a noise margin on both sides.
//
// The categorical paper applies this encoder to the value-occurrence
// histogram [f_A(a_i)] (Section 4.2), where minimising absolute change in
// frequency space minimises the number of categorical tuples rewritten.
package numeric

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ecc"
	"repro/internal/keyhash"
)

// Item is a labelled numeric value. Labels drive subset assignment and
// must be stable across embedding and detection (for the frequency channel
// they are the categorical values themselves, which survive attacks that
// preserve any utility).
type Item struct {
	Label string
	Value float64
}

// Params configures the encoder.
type Params struct {
	// Key drives the secret subset partitioning.
	Key keyhash.Key
	// Confidence is the cut multiplier c in v_c = μ + c·σ. Typical 0.5.
	Confidence float64
	// VTrue is the violator fraction at/above which a subset reads 1.
	VTrue float64
	// VFalse is the violator fraction at/below which a subset reads 0.
	VFalse float64
	// MaxIterations caps the per-subset encoding loop; 0 means 4·|S|+16.
	MaxIterations int
	// MinStep is a lower bound on the nudge distance. Callers whose values
	// are later quantised (e.g. frequencies that round back to integer
	// counts) set this to ≥ 1.5 quantisation units so rounding cannot pull
	// a nudged item back across the cut. 0 disables the bound.
	MinStep float64
}

func (p Params) validate() error {
	if err := p.Key.Validate(); err != nil {
		return fmt.Errorf("numeric: %w", err)
	}
	if p.Confidence < 0 {
		return errors.New("numeric: negative confidence factor")
	}
	if !(0 <= p.VFalse && p.VFalse < p.VTrue && p.VTrue <= 1) {
		return fmt.Errorf("numeric: need 0 <= v_false < v_true <= 1, got (%v, %v)",
			p.VFalse, p.VTrue)
	}
	return nil
}

// Group returns the subset index of a label for a wmLen-bit watermark.
func Group(key keyhash.Key, label string, wmLen int) int {
	return int(keyhash.HashString(key, label).Mod(uint64(wmLen)))
}

// EncodeStats reports what Encode did.
type EncodeStats struct {
	// Moved is the number of item values altered.
	Moved int
	// TotalChange is Σ|new − old| over moved items.
	TotalChange float64
	// Failed lists watermark bit indices whose subsets could not reach the
	// target statistic (too few items or non-convergence). Detection of
	// those bits is unreliable.
	Failed []int
}

// subsetStats computes mean, stddev and the violator statistic for the cut.
func subsetStats(vals []float64, c float64) (mu, sigma, cut float64, violators int) {
	n := float64(len(vals))
	for _, v := range vals {
		mu += v
	}
	mu /= n
	for _, v := range vals {
		d := v - mu
		sigma += d * d
	}
	sigma = math.Sqrt(sigma / n)
	cut = mu + c*sigma
	for _, v := range vals {
		if v > cut {
			violators++
		}
	}
	return
}

// Encode returns a copy of items watermarked with wm. Values move by the
// minimum needed to push each subset's violator statistic across its
// target; labels and item order are preserved.
func Encode(items []Item, wm ecc.Bits, p Params) ([]Item, EncodeStats, error) {
	var st EncodeStats
	if err := p.validate(); err != nil {
		return nil, st, err
	}
	if len(wm) == 0 {
		return nil, st, errors.New("numeric: empty watermark")
	}
	for i, b := range wm {
		if b != ecc.Zero && b != ecc.One {
			return nil, st, fmt.Errorf("numeric: watermark bit %d is not 0/1", i)
		}
	}
	if len(items) < len(wm) {
		return nil, st, fmt.Errorf("numeric: %d items cannot carry %d bits", len(items), len(wm))
	}

	out := append([]Item(nil), items...)
	groups := make([][]int, len(wm)) // wm bit -> item indices
	for i, it := range out {
		g := Group(p.Key, it.Label, len(wm))
		groups[g] = append(groups[g], i)
	}

	for g, idxs := range groups {
		if len(idxs) == 0 {
			st.Failed = append(st.Failed, g)
			continue
		}
		if ok := encodeSubset(out, idxs, wm[g] == ecc.One, p, &st); !ok {
			st.Failed = append(st.Failed, g)
		}
	}
	return out, st, nil
}

// encodeSubset drives subset idxs of out to carry the given bit. Returns
// false on non-convergence.
func encodeSubset(out []Item, idxs []int, one bool, p Params, st *EncodeStats) bool {
	maxIter := p.MaxIterations
	if maxIter <= 0 {
		maxIter = 4*len(idxs) + 16
	}
	for iter := 0; iter < maxIter; iter++ {
		vals := make([]float64, len(idxs))
		for i, idx := range idxs {
			vals[i] = out[idx].Value
		}
		_, sigma, cut, violators := subsetStats(vals, p.Confidence)
		v := float64(violators) / float64(len(idxs))
		if one && v >= p.VTrue {
			return true
		}
		if !one && v <= p.VFalse {
			return true
		}
		// Nudge distance: a hair beyond the cut, scaled to the data.
		eps := sigma * 0.01
		if eps == 0 {
			eps = math.Max(math.Abs(cut)*0.001, 1e-9)
		}
		if eps < p.MinStep {
			eps = p.MinStep
		}
		if one {
			// Need more violators: lift the non-violator closest to the cut.
			best, bestGap := -1, math.Inf(1)
			for _, idx := range idxs {
				if out[idx].Value <= cut {
					if gap := cut - out[idx].Value; gap < bestGap {
						best, bestGap = idx, gap
					}
				}
			}
			if best < 0 {
				return false // everything already violates yet v < VTrue: |S| too small
			}
			old := out[best].Value
			out[best].Value = cut + eps
			st.Moved++
			st.TotalChange += math.Abs(out[best].Value - old)
		} else {
			// Need fewer violators: drop the violator closest to the cut.
			best, bestGap := -1, math.Inf(1)
			for _, idx := range idxs {
				if out[idx].Value > cut {
					if gap := out[idx].Value - cut; gap < bestGap {
						best, bestGap = idx, gap
					}
				}
			}
			if best < 0 {
				return false
			}
			old := out[best].Value
			out[best].Value = cut - eps
			st.Moved++
			st.TotalChange += math.Abs(out[best].Value - old)
		}
	}
	return false
}

// DecodeReport is the outcome of Decode.
type DecodeReport struct {
	// WM is the recovered watermark; subsets with no items decode Erased.
	WM ecc.Bits
	// Violators is the raw v(S) statistic per bit, for diagnostics.
	Violators []float64
	// Empty counts subsets with no items.
	Empty int
}

// Decode recovers a wmLen-bit watermark from items.
func Decode(items []Item, wmLen int, p Params) (DecodeReport, error) {
	var rep DecodeReport
	if err := p.validate(); err != nil {
		return rep, err
	}
	if wmLen <= 0 {
		return rep, errors.New("numeric: non-positive watermark length")
	}
	groups := make([][]float64, wmLen)
	for _, it := range items {
		g := Group(p.Key, it.Label, wmLen)
		groups[g] = append(groups[g], it.Value)
	}
	rep.WM = make(ecc.Bits, wmLen)
	rep.Violators = make([]float64, wmLen)
	mid := (p.VTrue + p.VFalse) / 2
	for g, vals := range groups {
		if len(vals) == 0 {
			rep.WM[g] = ecc.Erased
			rep.Empty++
			continue
		}
		_, _, _, violators := subsetStats(vals, p.Confidence)
		v := float64(violators) / float64(len(vals))
		rep.Violators[g] = v
		if v >= mid {
			rep.WM[g] = ecc.One
		} else {
			rep.WM[g] = ecc.Zero
		}
	}
	return rep, nil
}
