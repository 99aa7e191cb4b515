package mark

import (
	"repro/internal/ecc"
	"repro/internal/relation"
)

// EmbedStats reports what one embedding pass did.
type EmbedStats struct {
	// Tuples is N, the relation size.
	Tuples int
	// Fit is the number of tuples satisfying the fitness criterion.
	Fit int
	// Altered counts tuples whose attribute value actually changed.
	Altered int
	// Unchanged counts fit tuples whose value already carried the right
	// index (no rewrite needed).
	Unchanged int
	// SkippedLedger counts fit tuples excluded by Options.SkipRow.
	SkippedLedger int
	// SkippedQuality counts fit tuples whose rewrite a quality constraint
	// vetoed.
	SkippedQuality int
	// Bandwidth is |wm_data| = N/e.
	Bandwidth int
	// PositionsTouched is the number of distinct wm_data positions some
	// fit tuple embedded (collisions collapse; the ECC tolerates the
	// remainder, Section 3.2.1 note).
	PositionsTouched int
}

// AlterationRate returns Altered / Tuples: the fraction of the data
// modified by watermarking, the quantity the paper trades against
// resilience via e (Section 4.4).
func (s EmbedStats) AlterationRate() float64 {
	if s.Tuples == 0 {
		return 0
	}
	return float64(s.Altered) / float64(s.Tuples)
}

// Embed watermarks r in place per Figure 1(a). wm must be non-empty 0/1
// bits. Returns statistics; r is modified unless an error occurs before
// any alteration (bandwidth and argument validation happen first).
//
// Embed is the one-chunk special case of the Embedder/EmbedRange hooks in
// chunk.go; internal/pipeline runs the same pass across multiple ranges
// concurrently.
func Embed(r *relation.Relation, wm ecc.Bits, opts Options) (EmbedStats, error) {
	e, err := NewEmbedder(r, wm, opts)
	if err != nil {
		return EmbedStats{}, err
	}
	var cs ChunkStats
	err = e.EmbedRange(0, r.Len(), DefaultBlockRows, &cs, nil, nil)
	return MergeChunks(cs), err
}
