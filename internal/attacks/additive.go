package attacks

// Additive watermark attack — flagged as open in the paper's Section 6
// ("Additive watermark attacks need to be analyzed and handled"). Mallory
// does not try to remove Alice's mark; he embeds his *own* watermark over
// the stolen data and claims ownership. Both marks then verify on the
// disputed copy, so possession of a detectable watermark alone proves
// nothing. The standard resolution (implemented here) uses asymmetry of
// originals: Alice's pre-publication original carries no trace of
// Mallory's mark, while everything Mallory possesses descends from data
// that already carried Alice's — so detect(Mallory's keys, Alice's
// original) is chance-level while detect(Alice's keys, Mallory's
// "original") is strong.

import (
	"fmt"

	"repro/internal/ecc"
	"repro/internal/mark"
	"repro/internal/relation"
)

// AdditiveWatermark mounts the attack: embeds Mallory's watermark wm into
// a copy of r under his own options. Returns the re-marked relation and
// the embedding statistics (Mallory pays the same alteration budget an
// honest owner would).
//
//wmlint:ignore reachable ROADMAP item 6's Monte-Carlo attack suite is to drive it through the production pipeline
func AdditiveWatermark(r *relation.Relation, wm ecc.Bits, opts mark.Options) (*relation.Relation, mark.EmbedStats, error) {
	out := r.Clone()
	st, err := mark.Embed(out, wm, opts)
	if err != nil {
		return nil, st, fmt.Errorf("attacks: additive watermark: %w", err)
	}
	return out, st, nil
}

// DisputeClaim is one party's position in an ownership dispute.
type DisputeClaim struct {
	// Name identifies the claimant in the verdict.
	Name string
	// WM is the watermark the claimant says they embedded.
	WM ecc.Bits
	// Opts are the claimant's detection options (keys, e, attribute,
	// embedding-time bandwidth).
	Opts mark.Options
	// Original is the relation the claimant presents as their
	// pre-publication original.
	Original *relation.Relation
}

// DisputeVerdict reports the cross-detection matrix and its resolution.
type DisputeVerdict struct {
	// AOnDisputed / BOnDisputed: each party's match fraction on the
	// disputed copy. Under an additive attack both are high — which is
	// why the disputed copy alone cannot resolve ownership.
	AOnDisputed, BOnDisputed float64
	// AOnBOriginal is A's watermark strength in B's claimed original;
	// BOnAOriginal symmetrical. The true owner's mark shows up in the
	// thief's "original"; the thief's mark does not show up in the true
	// owner's.
	AOnBOriginal, BOnAOriginal float64
	// Winner is the resolved owner's name, or "" when the evidence is
	// symmetric (both or neither cross-detections fire).
	Winner string
}

// matchThreshold is the bit-agreement level treated as a positive
// detection in dispute resolution; random keys agree on ≈50% of bits, and
// the probability of exceeding 90% by chance for a 10-bit mark is ≤ (1/2)^10·11.
const matchThreshold = 0.9

// ResolveDispute runs the cross-detection protocol over the disputed copy
// and both claimed originals.
//
//wmlint:ignore reachable ROADMAP item 6's Monte-Carlo attack suite is to drive it through the production pipeline
func ResolveDispute(disputed *relation.Relation, a, b DisputeClaim) (DisputeVerdict, error) {
	var v DisputeVerdict
	detect := func(r *relation.Relation, c DisputeClaim) (float64, error) {
		rep, err := mark.Detect(r, len(c.WM), c.Opts)
		if err != nil {
			return 0, fmt.Errorf("attacks: dispute: %s: %w", c.Name, err)
		}
		return rep.MatchFraction(c.WM), nil
	}
	var err error
	if v.AOnDisputed, err = detect(disputed, a); err != nil {
		return v, err
	}
	if v.BOnDisputed, err = detect(disputed, b); err != nil {
		return v, err
	}
	if v.AOnBOriginal, err = detect(b.Original, a); err != nil {
		return v, err
	}
	if v.BOnAOriginal, err = detect(a.Original, b); err != nil {
		return v, err
	}

	aInB := v.AOnBOriginal >= matchThreshold
	bInA := v.BOnAOriginal >= matchThreshold
	switch {
	case aInB && !bInA:
		v.Winner = a.Name
	case bInA && !aInB:
		v.Winner = b.Name
	default:
		v.Winner = "" // symmetric evidence: resolution needs other means
	}
	return v, nil
}
