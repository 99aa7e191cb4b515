package mark

import (
	"repro/internal/ecc"
	"repro/internal/relation"
)

// DetectReport is the outcome of a blind detection pass (Figure 2(a)).
type DetectReport struct {
	// WM is the recovered watermark.
	WM ecc.Bits
	// Tuples is the number of tuples examined.
	Tuples int
	// Fit is the number of tuples passing the fitness criterion.
	Fit int
	// UnknownValues counts fit tuples whose attribute value was outside
	// the domain (noise, or an un-reversed remapping attack, Section 4.5);
	// they cast no vote.
	UnknownValues int
	// Bandwidth is |wm_data| = N/e used for position arithmetic.
	Bandwidth int
	// PositionsFilled is the number of wm_data positions that received at
	// least one vote; the rest decode as erasures.
	PositionsFilled int
	// MeanMargin is the average majority margin over filled positions
	// (1 = unanimous votes everywhere, 0 = coin flips). A crude
	// detection-confidence signal for the courtroom scenario.
	MeanMargin float64
}

// MatchFraction returns the fraction of bits of want that the recovered
// watermark reproduces; 1.0 is a perfect match. Panics on length mismatch.
func (d DetectReport) MatchFraction(want ecc.Bits) float64 {
	return 1 - ecc.AlterationRate(want, d.WM)
}

// Detect blindly recovers a wmLen-bit watermark from r per Figure 2(a):
// it re-derives the fit set and bit positions from the keys, reads each
// fit tuple's value-index parity as a vote, aggregates votes per position
// (majority by default), and ECC-decodes the resulting wm_data.
//
// Detection never needs the original relation — only the keys, e, the
// code, and the attribute's value domain.
//
// Detect is the one-chunk special case of the Scanner/Scan/Report hooks
// in chunk.go; internal/pipeline runs the same pass across multiple
// ranges concurrently and merges the tallies.
func Detect(r *relation.Relation, wmLen int, opts Options) (DetectReport, error) {
	s, err := NewScanner(r, wmLen, opts)
	if err != nil {
		return DetectReport{}, err
	}
	t := s.NewTally()
	if err := s.Scan(r, 0, r.Len(), DefaultBlockRows, t, nil, nil, nil); err != nil {
		return DetectReport{}, err
	}
	return s.Report(t)
}
