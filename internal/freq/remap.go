package freq

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/relation"
	"repro/internal/stats"
)

// This file implements the Section 4.5 defence against bijective attribute
// re-mapping (attack A6): Mallory maps the value set {a_1 … a_nA} through a
// secret bijection into {a'_1 … a'_nA} and sells the remapped data (with a
// black-box reverse mapper). Straight detection then fails — no suspect
// value resolves in the original domain. The distinguishing property that
// survives is the value occurrence frequency: we sample the frequencies of
// the suspect data, sort both frequency profiles, and associate values by
// rank, producing an (approximate) inverse mapping to apply before
// detection. Uniform distributions defeat this, as the paper concedes; for
// Zipf-like data the recovery is near-exact.

// Profile is an attribute's registered occurrence-frequency profile. The
// owner records it at watermarking time; it is small (one float per
// distinct value) and does not reveal the watermark keys.
type Profile map[string]float64

// ProfileOf captures the frequency profile of attr in r.
func ProfileOf(r *relation.Relation, attr string) (Profile, error) {
	hist, err := relation.HistogramOf(r, attr)
	if err != nil {
		return nil, err
	}
	return ProfileOfHistogram(hist), nil
}

// ProfileOfHistogram is the frequency profile of an attribute's
// occurrence histogram — ProfileOf without the count, for a caller that
// already holds the counts (core takes them from EmbedCounts).
func ProfileOfHistogram(hist *stats.Histogram) Profile {
	p := make(Profile, hist.Distinct())
	for _, l := range hist.Labels() {
		p[l] = hist.Freq(l)
	}
	return p
}

// RecoverMapping infers the inverse of a bijective remapping from the
// suspect relation's frequency profile: the i-th most frequent suspect
// value is matched to the i-th most frequent reference value. The result
// maps suspect labels to original labels. When the suspect data has lost
// values (e.g. after subsetting), only the observed labels are mapped.
// Fails if the suspect has more distinct values than the reference (not a
// bijective image).
func RecoverMapping(suspect *relation.Relation, attr string, reference Profile) (map[string]string, error) {
	hist, err := relation.HistogramOf(suspect, attr)
	if err != nil {
		return nil, err
	}
	return RecoverMappingFrom(hist, reference)
}

// RecoverMappingFrom is RecoverMapping over the suspect attribute's
// occurrence histogram, counted by the caller: a verification counts
// the suspect once for both remap recovery and the frequency channel.
func RecoverMappingFrom(hist *stats.Histogram, reference Profile) (map[string]string, error) {
	if len(reference) == 0 {
		return nil, errors.New("freq: empty reference profile")
	}
	if hist.Distinct() > len(reference) {
		return nil, fmt.Errorf("freq: suspect has %d distinct values, reference only %d — not a bijective image",
			hist.Distinct(), len(reference))
	}

	type entry struct {
		label string
		freq  float64
	}
	suspectRank := make([]entry, 0, hist.Distinct())
	for _, l := range hist.Labels() {
		suspectRank = append(suspectRank, entry{l, hist.Freq(l)})
	}
	refRank := make([]entry, 0, len(reference))
	for l, f := range reference {
		refRank = append(refRank, entry{l, f})
	}
	byFreqDesc := func(s []entry) {
		sort.Slice(s, func(i, j int) bool {
			if s[i].freq != s[j].freq {
				return s[i].freq > s[j].freq
			}
			return s[i].label < s[j].label // deterministic among ties
		})
	}
	byFreqDesc(suspectRank)
	byFreqDesc(refRank)

	mapping := make(map[string]string, len(suspectRank))
	for i, se := range suspectRank {
		mapping[se.label] = refRank[i].label
	}
	return mapping, nil
}

// ApplyMapping rewrites attr through the given label mapping, returning
// the number of tuples rewritten. Values absent from the mapping are left
// in place (and will count as UnknownValues at detection).
func ApplyMapping(r *relation.Relation, attr string, mapping map[string]string) (int, error) {
	col, ok := r.Schema().Index(attr)
	if !ok {
		return 0, fmt.Errorf("freq: attribute %q not in schema", attr)
	}
	changed := 0
	for i := 0; i < r.Len(); i++ {
		old := r.At(i, col)
		if nv, ok := mapping[old]; ok && nv != old {
			if err := r.SetValue(i, attr, nv); err != nil {
				return changed, err
			}
			changed++
		}
	}
	return changed, nil
}

// MapHistogram returns the histogram of an attribute after ApplyMapping
// would have rewritten it with mapping: each label's count moves to its
// image, and labels absent from mapping keep theirs. It equals
// relation.HistogramOf over a rewritten copy, without the copy; hist is
// not modified.
func MapHistogram(hist *stats.Histogram, mapping map[string]string) *stats.Histogram {
	counts := make(map[string]int, hist.Distinct())
	for _, l := range hist.Labels() {
		to := l
		if nv, ok := mapping[l]; ok {
			to = nv
		}
		counts[to] += hist.Count(l)
	}
	return stats.HistogramOfCounts(counts)
}

// MappingAccuracy compares a recovered mapping with the true inverse
// mapping, returning the fraction of suspect labels mapped correctly —
// used by the remap-recovery experiments.
func MappingAccuracy(recovered, truth map[string]string) float64 {
	if len(recovered) == 0 {
		return 0
	}
	ok := 0
	for k, v := range recovered {
		if truth[k] == v {
			ok++
		}
	}
	return float64(ok) / float64(len(recovered))
}

// MappingMassAccuracy weights each correctly recovered label by its
// reference frequency. Rank swaps concentrate in the near-tied tail of a
// Zipf profile, so mass accuracy — which predicts how many *tuples* map
// back correctly, and hence how well detection recovers — is the more
// meaningful figure under data loss.
func MappingMassAccuracy(recovered, truth map[string]string, reference Profile) float64 {
	totalMass, okMass := 0.0, 0.0
	for k, v := range recovered {
		m := reference[truth[k]]
		totalMass += m
		if truth[k] == v {
			okMass += m
		}
	}
	if totalMass == 0 {
		return 0
	}
	return okMass / totalMass
}
