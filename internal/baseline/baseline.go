// Package baseline implements the numeric relational watermarking scheme
// of Kiernan & Agrawal, "Watermarking Relational Databases" (VLDB 2002) —
// reference [6] of the categorical-data paper and the state of the art it
// argues against for discrete domains.
//
// The KA scheme marks *numeric* attributes: a keyed hash of each tuple's
// primary key selects roughly 1/γ of the tuples; for each, the hash picks
// one of ξ candidate least-significant bits of the attribute and forces it
// to a hash-derived value. Detection recomputes the selections and counts
// bit agreements; under no watermark, agreements follow Binomial(n, 1/2),
// so a small binomial tail probability (p-value) evidences the mark.
//
// The categorical paper's Section 1/3 motivation is exactly that this
// approach has no meaningful analogue for categorical values: flipping a
// low bit of a product code or city identifier is not a "small" change but
// an arbitrary jump to a different category — likely outside the valid
// catalog entirely. The baseline-comparison experiment quantifies that:
// at equal marking rates, KA on a categorical code column produces
// out-of-domain values at nearly its full marking rate, while the
// categorical scheme by construction never leaves the catalog.
package baseline

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/keyhash"
	"repro/internal/relation"
	"repro/internal/stats"
)

// KAOptions configures the Kiernan–Agrawal marker.
type KAOptions struct {
	// Attr is the numeric attribute to mark.
	Attr string
	// Key is the secret key.
	Key keyhash.Key
	// Gamma is the gap parameter γ: about 1/γ of tuples are marked.
	Gamma uint64
	// Xi is ξ, the number of candidate least-significant bits.
	Xi int
	// Alpha is the detection significance level (default 0.01): the
	// watermark is "detected" when the binomial tail probability of the
	// observed agreement count is below Alpha.
	Alpha float64
}

func (o *KAOptions) validate(r *relation.Relation) (col int, err error) {
	if err := o.Key.Validate(); err != nil {
		return 0, fmt.Errorf("baseline: %w", err)
	}
	if o.Gamma == 0 {
		return 0, errors.New("baseline: gamma must be positive")
	}
	if o.Xi <= 0 || o.Xi > 16 {
		return 0, errors.New("baseline: xi must be in [1,16]")
	}
	col, ok := r.Schema().Index(o.Attr)
	if !ok {
		return 0, fmt.Errorf("baseline: attribute %q not in schema", o.Attr)
	}
	return col, nil
}

func (o *KAOptions) alpha() float64 {
	if o.Alpha <= 0 || o.Alpha >= 1 {
		return 0.01
	}
	return o.Alpha
}

// KAEmbedStats reports an embedding pass.
type KAEmbedStats struct {
	// Tuples is the relation size.
	Tuples int
	// Marked is the number of tuples whose attribute was bit-marked.
	Marked int
	// Changed counts marked tuples whose value actually changed.
	Changed int
	// NonNumeric counts selected tuples skipped because the attribute
	// value did not parse as an integer.
	NonNumeric int
}

// mark computes the (bit position, bit value) pair for a selected tuple.
func kaMark(d keyhash.Digest, xi int) (pos int, bit uint64) {
	return int(d.Uint64At(1) % uint64(xi)), d.Uint64At(2) & 1
}

// KAEmbed watermarks r in place per the KA scheme.
func KAEmbed(r *relation.Relation, o KAOptions) (KAEmbedStats, error) {
	var st KAEmbedStats
	col, err := o.validate(r)
	if err != nil {
		return st, err
	}
	st.Tuples = r.Len()
	for i := 0; i < r.Len(); i++ {
		d := keyhash.HashString(o.Key, r.Key(i))
		if d.Mod(o.Gamma) != 0 {
			continue
		}
		v, perr := strconv.ParseInt(r.At(i, col), 10, 64)
		if perr != nil {
			st.NonNumeric++
			continue
		}
		st.Marked++
		pos, bit := kaMark(d, o.Xi)
		nv := int64(keyhash.SetBit(uint64(v), pos, bit))
		if nv != v {
			if serr := r.SetValue(i, o.Attr, strconv.FormatInt(nv, 10)); serr != nil {
				return st, serr
			}
			st.Changed++
		}
	}
	return st, nil
}

// KADetectReport is a detection outcome.
type KADetectReport struct {
	// Selected is the number of tuples the key selects (and parse).
	Selected int
	// Matches is how many carry the expected bit.
	Matches int
	// PValue is P[Binomial(Selected, 1/2) ≥ Matches]: the probability of
	// the observed agreement arising without a watermark.
	PValue float64
	// Detected is PValue < Alpha.
	Detected bool
}

// MatchRate returns Matches/Selected (≈0.5 on unmarked data, ≈1 on intact
// marked data).
func (rep KADetectReport) MatchRate() float64 {
	if rep.Selected == 0 {
		return 0
	}
	return float64(rep.Matches) / float64(rep.Selected)
}

// KADetect runs KA detection.
func KADetect(r *relation.Relation, o KAOptions) (KADetectReport, error) {
	var rep KADetectReport
	col, err := o.validate(r)
	if err != nil {
		return rep, err
	}
	for i := 0; i < r.Len(); i++ {
		d := keyhash.HashString(o.Key, r.Key(i))
		if d.Mod(o.Gamma) != 0 {
			continue
		}
		v, perr := strconv.ParseInt(r.At(i, col), 10, 64)
		if perr != nil {
			continue
		}
		rep.Selected++
		pos, bit := kaMark(d, o.Xi)
		if keyhash.Bit(uint64(v), pos) == bit {
			rep.Matches++
		}
	}
	rep.PValue = stats.BinomialTail(rep.Selected, rep.Matches, 0.5)
	rep.Detected = rep.Selected > 0 && rep.PValue < o.alpha()
	return rep, nil
}

// DomainViolations counts tuples of attr whose value falls outside the
// given catalog — the semantic damage metric for applying a numeric-LSB
// scheme to categorical codes.
func DomainViolations(r *relation.Relation, attr string, dom *relation.Domain) (int, error) {
	col, ok := r.Schema().Index(attr)
	if !ok {
		return 0, fmt.Errorf("baseline: attribute %q not in schema", attr)
	}
	violations := 0
	for i := 0; i < r.Len(); i++ {
		if !dom.Contains(r.At(i, col)) {
			violations++
		}
	}
	return violations, nil
}
