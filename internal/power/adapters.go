package power

// Scheme adapters for the systems in this repository, plus standard attack
// families, so profiling any (scheme × attack) pair is one call.

import (
	"repro/internal/attacks"
	"repro/internal/baseline"
	"repro/internal/ecc"
	"repro/internal/mark"
	"repro/internal/relation"
	"repro/internal/stats"
)

// CategoricalScheme adapts the paper's key-association codec
// (internal/mark) to the Scheme interface.
type CategoricalScheme struct {
	// WM is the watermark to embed and score against.
	WM ecc.Bits
	// Opts are the codec options; BandwidthOverride is captured at embed
	// time automatically.
	Opts mark.Options
}

// Name implements Scheme.
func (s *CategoricalScheme) Name() string { return "categorical-ka-association" }

// Embed implements Scheme.
func (s *CategoricalScheme) Embed(r *relation.Relation) error {
	st, err := mark.Embed(r, s.WM, s.Opts)
	if err != nil {
		return err
	}
	s.Opts.BandwidthOverride = st.Bandwidth
	return nil
}

// Detect implements Scheme: the score is the bit match fraction.
func (s *CategoricalScheme) Detect(r *relation.Relation) (float64, error) {
	rep, err := mark.Detect(r, len(s.WM), s.Opts)
	if err != nil {
		return 0, err
	}
	return rep.MatchFraction(s.WM), nil
}

// KAScheme adapts the Kiernan–Agrawal baseline. Its detection score is the
// bit agreement rate, which sits at ~0.5 on unmarked data like the
// categorical schemes' match fractions.
type KAScheme struct {
	Opts baseline.KAOptions
}

// Name implements Scheme.
func (s *KAScheme) Name() string { return "kiernan-agrawal-lsb" }

// Embed implements Scheme.
func (s *KAScheme) Embed(r *relation.Relation) error {
	_, err := baseline.KAEmbed(r, s.Opts)
	return err
}

// Detect implements Scheme.
func (s *KAScheme) Detect(r *relation.Relation) (float64, error) {
	rep, err := baseline.KADetect(r, s.Opts)
	if err != nil {
		return 0, err
	}
	return rep.MatchRate(), nil
}

// AlterationAttack returns the A3 family over attr: level = fraction of
// tuples randomly rewritten within dom.
func AlterationAttack(attr string, dom *relation.Domain) AttackFamily {
	return AttackFamily{
		Name: "A3-alteration",
		Apply: func(r *relation.Relation, level float64, src *stats.Source) (*relation.Relation, error) {
			if level == 0 {
				return r.Clone(), nil
			}
			return attacks.SubsetAlteration(r, attr, level, dom, src)
		},
	}
}

// LossAttack returns the A1 family: level = fraction of tuples dropped.
func LossAttack() AttackFamily {
	return AttackFamily{
		Name: "A1-loss",
		Apply: func(r *relation.Relation, level float64, src *stats.Source) (*relation.Relation, error) {
			if level >= 1 {
				level = 0.99
			}
			return attacks.HorizontalSubset(r, 1-level, src)
		},
	}
}
