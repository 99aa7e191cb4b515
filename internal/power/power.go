// Package power implements the watermarking-evaluation metrics framework
// of Sion, Atallah & Prabhakar, "Power: Metrics for Evaluating
// Watermarking Algorithms" (ITCC 2002) — reference [11] of the
// categorical-data paper and the methodology behind its experimental
// section. A scheme's "power" combines what the mark costs (distortion),
// what it can carry (bandwidth), and what it survives (resilience under a
// parameterised attack family).
//
// The framework is scheme-agnostic: anything implementing Scheme — the
// categorical codec, the frequency channel, the Kiernan–Agrawal baseline —
// can be profiled against any attack family, producing comparable
// Profile values. The baseline-comparison experiment uses it to put the
// paper's scheme and its numeric predecessor side by side.
package power

import (
	"errors"
	"fmt"

	"repro/internal/relation"
	"repro/internal/stats"
)

// Scheme is a watermarking algorithm under evaluation. Embed must
// watermark the relation in place; Detect must return a detection score in
// [0,1] where 1 is a perfect recovery and ~0.5 is chance for bitwise marks
// (schemes with presence/absence semantics return 1/0 with their own
// confidence threshold applied).
type Scheme interface {
	// Name identifies the scheme in profiles.
	Name() string
	// Embed watermarks r in place.
	Embed(r *relation.Relation) error
	// Detect returns the detection score on (possibly attacked) data.
	Detect(r *relation.Relation) (float64, error)
}

// AttackFamily is a parameterised attack: Apply transforms a relation at
// the given severity level in [0,1].
type AttackFamily struct {
	// Name identifies the family in profiles (e.g. "A3-alteration").
	Name string
	// Apply attacks r at the given level, returning a new relation.
	Apply func(r *relation.Relation, level float64, src *stats.Source) (*relation.Relation, error)
}

// Config parameterises a profiling run.
type Config struct {
	// Levels is the attack severity sweep (default 0.1 … 0.8).
	Levels []float64
	// Passes averages each level over this many runs (default 3).
	Passes int
	// Seed drives attack randomness.
	Seed string
	// SurvivalThreshold is the detection score counted as "mark survived"
	// (default 0.9).
	SurvivalThreshold float64
}

// DefaultConfig returns the standard profiling sweep.
func DefaultConfig() Config {
	return Config{
		Levels:            []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
		Passes:            3,
		Seed:              "power",
		SurvivalThreshold: 0.9,
	}
}

func (c Config) validate() error {
	if len(c.Levels) == 0 {
		return errors.New("power: no attack levels")
	}
	for _, l := range c.Levels {
		if l < 0 || l > 1 {
			return fmt.Errorf("power: level %v outside [0,1]", l)
		}
	}
	if c.Passes <= 0 {
		return errors.New("power: passes must be positive")
	}
	if c.SurvivalThreshold <= 0 || c.SurvivalThreshold > 1 {
		return errors.New("power: survival threshold outside (0,1]")
	}
	return nil
}

// Distortion quantifies what embedding cost the data.
type Distortion struct {
	// TuplesAltered is the number of tuples changed by embedding.
	TuplesAltered int
	// Fraction is TuplesAltered / N.
	Fraction float64
	// FreqDrift is the L1 distance between the marked and unmarked
	// frequency profiles of the watched attribute ("" = skipped).
	FreqDrift float64
}

// ResiliencePoint is one point of the survival curve.
type ResiliencePoint struct {
	Level float64
	// Score is the mean detection score across passes.
	Score float64
	// Survived is the fraction of passes at/above the survival threshold.
	Survived float64
}

// Profile is the complete power evaluation of one scheme under one attack
// family.
type Profile struct {
	Scheme string
	Attack string
	// CleanScore is the detection score with no attack at all.
	CleanScore float64
	Distortion Distortion
	Curve      []ResiliencePoint
	// AUC is the area under the survival curve over the level sweep —
	// the scalar "power" figure: 1.0 means the mark survived every pass
	// at every level, 0 means it never survived.
	AUC float64
}

// Evaluate profiles scheme against attack on (a clone of) base.
// watchAttr, when non-empty, names the attribute whose frequency drift is
// reported as embedding distortion.
func Evaluate(base *relation.Relation, scheme Scheme, attack AttackFamily, watchAttr string, cfg Config) (Profile, error) {
	var p Profile
	if err := cfg.validate(); err != nil {
		return p, err
	}
	p.Scheme = scheme.Name()
	p.Attack = attack.Name

	marked := base.Clone()
	if err := scheme.Embed(marked); err != nil {
		return p, fmt.Errorf("power: embedding %s: %w", scheme.Name(), err)
	}

	// Distortion.
	altered := 0
	for i := 0; i < base.Len(); i++ {
		for j := 0; j < base.Schema().Arity(); j++ {
			if base.At(i, j) != marked.At(i, j) {
				altered++
				break
			}
		}
	}
	p.Distortion.TuplesAltered = altered
	if base.Len() > 0 {
		p.Distortion.Fraction = float64(altered) / float64(base.Len())
	}
	if watchAttr != "" {
		h0, err := relation.HistogramOf(base, watchAttr)
		if err != nil {
			return p, err
		}
		h1, err := relation.HistogramOf(marked, watchAttr)
		if err != nil {
			return p, err
		}
		p.Distortion.FreqDrift = h1.L1Distance(h0)
	}

	clean, err := scheme.Detect(marked)
	if err != nil {
		return p, err
	}
	p.CleanScore = clean

	// Resilience sweep.
	src := stats.NewSource("power/" + cfg.Seed)
	total := 0.0
	for _, level := range cfg.Levels {
		var scoreSum, survived float64
		for pass := 0; pass < cfg.Passes; pass++ {
			attacked, err := attack.Apply(marked,
				level, src.Fork(fmt.Sprintf("%s/%v/%d", attack.Name, level, pass)))
			if err != nil {
				return p, fmt.Errorf("power: attack %s@%v: %w", attack.Name, level, err)
			}
			score, err := scheme.Detect(attacked)
			if err != nil {
				return p, fmt.Errorf("power: detect after %s@%v: %w", attack.Name, level, err)
			}
			scoreSum += score
			if score >= cfg.SurvivalThreshold {
				survived++
			}
		}
		pt := ResiliencePoint{
			Level:    level,
			Score:    scoreSum / float64(cfg.Passes),
			Survived: survived / float64(cfg.Passes),
		}
		p.Curve = append(p.Curve, pt)
		total += pt.Survived
	}
	p.AUC = total / float64(len(cfg.Levels))
	return p, nil
}
