package analysis

// Capacity analysis for the embedding channels — Section 2.4 ("Embedding
// Limits": bandwidth as a function of allowed alterations) and Section 3.1
// ("Bandwidth Channels": why the direct domain is too small and where the
// usable bandwidth actually lives).

import (
	"errors"
	"math"

	"repro/internal/stats"
)

// DirectDomainEntropy returns log2(n_A), the bits available from embedding
// directly in a categorical attribute's value choice — the paper's example:
// n_A = 16000 departure cities yield only ~14 bits, "not enough for
// direct-domain embedding of a reasonable watermark".
func DirectDomainEntropy(nA int) float64 {
	if nA <= 1 {
		return 0
	}
	return math.Log2(float64(nA))
}

// AssociationBandwidth returns N/e, the bit capacity of the key-association
// channel at fitness parameter e — each fit tuple carries one parity bit.
func AssociationBandwidth(n int, e uint64) int {
	if e == 0 {
		return 0
	}
	return int(uint64(n) / e)
}

// PerBitErrorRate returns the probability that one watermark bit decodes
// wrongly when each of its replica votes independently flips with
// probability q: the majority over r replicas errs when ≥ ⌈(r+1)/2⌉ votes
// flip (ties resolve to the default bit and count as errors for a "1").
func PerBitErrorRate(replicas int, q float64) float64 {
	if replicas <= 0 {
		return 1
	}
	need := replicas/2 + 1
	if replicas%2 == 0 {
		need = replicas / 2 // a tie already risks the default-bit error
	}
	return stats.BinomialTail(replicas, need, q)
}

// MaxWatermarkBits returns the largest watermark length such that, at
// relation size n and fitness parameter e, a random-alteration attack
// flipping each vote with probability q keeps the per-bit error rate at or
// below target. This operationalises Section 2.4: the available bandwidth
// is an increasing function of the alterations the owner may perform
// (N/e), discounted by the resilience the ECC must buy back.
func MaxWatermarkBits(n int, e uint64, q, target float64) (int, error) {
	if n <= 0 || e == 0 {
		return 0, errors.New("analysis: need n > 0 and e > 0")
	}
	if q < 0 || q >= 0.5 {
		return 0, errors.New("analysis: vote flip rate must be in [0, 0.5)")
	}
	if target <= 0 || target >= 1 {
		return 0, errors.New("analysis: target error rate must be in (0,1)")
	}
	bw := AssociationBandwidth(n, e)
	if bw == 0 {
		return 0, nil
	}
	// Per-bit error decreases with replicas = bw/wmLen, so the feasible
	// set of wmLen is downward closed: binary search the largest feasible.
	lo, hi := 0, bw
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if PerBitErrorRate(bw/mid, q) <= target {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, nil
}

// VoteFlipRate converts an attack fraction a (share of tuples randomly
// rewritten within an n_A-value domain) into the per-vote flip probability
// the capacity model consumes: an attacked tuple's parity is uniform over
// the domain's parity split, so q ≈ a·(odd share if bit was even, …) ≈ a/2
// for balanced domains.
func VoteFlipRate(attackFraction float64) float64 {
	if attackFraction < 0 {
		return 0
	}
	if attackFraction > 1 {
		attackFraction = 1
	}
	return attackFraction / 2
}

// FrequencyChannelBits returns the watermark capacity of the Section 4.2
// histogram channel: distinct values divided by the minimum subset size
// the violator statistic needs to encode reliably (≈8 labels per bit in
// practice; the numeric encoder reports starved subsets explicitly).
func FrequencyChannelBits(distinctValues, minSubset int) int {
	if minSubset <= 0 {
		minSubset = 8
	}
	if distinctValues < minSubset {
		return 0
	}
	return distinctValues / minSubset
}

// CapacityReport summarises every channel for one configuration.
type CapacityReport struct {
	// DirectDomainBits is log2(n_A) — the channel the paper rejects.
	DirectDomainBits float64
	// AssociationBits is N/e.
	AssociationBits int
	// RobustBits is the MaxWatermarkBits result for the given attack.
	RobustBits int
	// FrequencyBits is the histogram channel capacity.
	FrequencyBits int
	// AlterationBudget is N/e as a fraction of N — what embedding costs.
	AlterationBudget float64
}

// Capacity computes the full report. attackFraction is the design-point A3
// attack the robust capacity must survive at per-bit error ≤ target.
func Capacity(n int, e uint64, nA int, attackFraction, target float64) (CapacityReport, error) {
	var rep CapacityReport
	robust, err := MaxWatermarkBits(n, e, VoteFlipRate(attackFraction), target)
	if err != nil {
		return rep, err
	}
	rep.DirectDomainBits = DirectDomainEntropy(nA)
	rep.AssociationBits = AssociationBandwidth(n, e)
	rep.RobustBits = robust
	rep.FrequencyBits = FrequencyChannelBits(nA, 0)
	rep.AlterationBudget = AlterationBudget(n, e)
	return rep, nil
}
