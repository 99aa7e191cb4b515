// Package mark implements the core categorical watermark codec of Section
// 3.2: embedding a watermark into the association between a (primary) key
// attribute K and a categorical attribute A, and blind detection without
// the original data.
//
// Embedding (Figure 1(a)):
//
//	wm_data ← ECC.encode(wm, N/e)
//	for each tuple T_j:
//	    if H(T_j(K); k1) mod e == 0 {                    // "fit" tuple
//	        pos ← H(T_j(K); k2) mod |wm_data|            // bit selection
//	        t   ← pseudorandom index with t&1 == wm_data[pos]
//	        T_j(A) ← a_t                                 // value rewrite
//	    }
//
// Detection (Figure 2(a)) recomputes fitness and positions from the keys
// alone, reads back bit = index(T_j(A)) & 1, majority-votes collisions,
// and ECC-decodes. Because every decision depends only on the tuple's own
// key, the scheme survives re-sorting (A4), subset selection (A1) and
// data addition (A2) structurally.
//
// The package also implements the Figure 1(b)/2(b) alternate that keeps an
// explicit embedding map instead of the k2 position hash, the Section 4.6
// data-addition channel, and the Section 4.3 incremental-update hook.
package mark

import (
	"errors"
	"fmt"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/quality"
	"repro/internal/relation"
)

// VoteAggregation selects how detection combines multiple fit tuples that
// map to the same wm_data position.
type VoteAggregation int

const (
	// MajorityVote tallies 0/1 votes per position and takes the majority —
	// strictly stronger than the paper's literal pseudocode and consistent
	// with its ECC philosophy (DESIGN.md clarification 3). Default.
	MajorityVote VoteAggregation = iota
	// LastWriteWins sets each position to the last vote encountered in
	// scan order, exactly as Figure 2(a) is written. Exposed for the
	// vote-aggregation ablation bench.
	LastWriteWins
)

// String names the aggregation for reports.
func (v VoteAggregation) String() string {
	switch v {
	case MajorityVote:
		return "majority"
	case LastWriteWins:
		return "last-write"
	default:
		return fmt.Sprintf("VoteAggregation(%d)", int(v))
	}
}

// Options configures one (K, A) embedding channel. K1, K2, E, and the
// attribute names must match between Embed and Detect.
type Options struct {
	// KeyAttr is the attribute acting as the key K. Empty means the
	// relation's primary key. Section 3.3 reuses this with non-key
	// attributes for pairwise embeddings such as mark(A, B).
	KeyAttr string
	// Attr is the categorical attribute A to be watermarked.
	Attr string
	// K1 is the secret fitness/value-selection key.
	K1 keyhash.Key
	// K2 is the secret bit-position key; must differ from K1 so tuple
	// selection and bit-position selection are uncorrelated (Section
	// 3.2.1). Unused by the embedding-map variant.
	K2 keyhash.Key
	// E is the fitness modulus e: on average one tuple in E is embedded.
	E uint64
	// BandwidthOverride fixes |wm_data| explicitly. Zero derives N/e from
	// the relation at call time. |wm_data| is determined once, at
	// embedding time; a detector running on data that has since lost or
	// gained tuples (attacks A1/A2) must pass the embedding-time value or
	// every position hash lands in the wrong slot. In practice the value
	// travels with the rest of the watermark record (k1, k2, e, |wm|).
	BandwidthOverride int
	// Code is the error-correcting code; nil means the paper's majority
	// voting code (ecc.MajorityCode).
	Code ecc.Code
	// Domain fixes the categorical value set {a_1 … a_nA}. Nil derives it
	// from the data at call time; for detection after data-loss attacks
	// always pass the catalog-derived domain (see relation.Domain docs).
	Domain *relation.Domain
	// Assessor, when non-nil, gates every embedding alteration through the
	// Section 4.1 quality constraints; vetoed alterations are skipped and
	// counted, not fatal.
	Assessor *quality.Assessor
	// Aggregation selects the detection vote-aggregation policy.
	Aggregation VoteAggregation
	// ZeroUnfilled makes wm_data positions that received no vote read as
	// 0 instead of an erasure. Figure 2(a) zero-initialises wm_data and
	// only overwrites positions with surviving fit tuples, so this is the
	// paper-literal behaviour; it makes "1" bits decay under data loss.
	// The default erasure-aware decoding ignores unfilled positions and is
	// strictly stronger (see EXPERIMENTS.md, Figure 7 discussion).
	ZeroUnfilled bool
	// HashKernel selects the batched keyed-hash backend for the
	// block-at-a-time engine (see keyhash.Kernel). The zero value picks
	// the fastest backend available on this CPU; digests — and therefore
	// every embedding decision and detection vote — are identical across
	// backends.
	HashKernel keyhash.KernelKind
	// SkipRow, when non-nil, excludes rows from embedding — the Section
	// 3.3 interference ledger hook ("remembering modified tuples in each
	// marking pass ... to avoid tuples that were already considered").
	SkipRow func(row int) bool
	// OnAlter, when non-nil, is invoked after every committed embedding
	// alteration; multimark uses it to maintain the interference ledger.
	OnAlter func(row int)
}

// Errors returned by the codec.
var (
	// ErrInsufficientBandwidth reports |wm| > N/e: the watermark does not
	// fit the embedding bandwidth (Section 2.4). Decrease e or shorten wm.
	ErrInsufficientBandwidth = errors.New("mark: watermark longer than embedding bandwidth N/e")
	// ErrDomainTooSmall reports a categorical attribute with fewer than
	// two values — no parity channel exists (Section 3.3 note).
	ErrDomainTooSmall = errors.New("mark: categorical domain has fewer than 2 values")
	// ErrSameKeys reports K1 == K2, which would correlate tuple selection
	// with bit-position selection and starve some wm_data bits.
	ErrSameKeys = errors.New("mark: k1 and k2 must differ")
)

// code returns the configured ECC, defaulting to majority voting.
func (o *Options) code() ecc.Code {
	if o.Code != nil {
		return o.Code
	}
	return ecc.MajorityCode{}
}

// resolveCols validates keys and resolves attribute names against a
// schema. The key attribute defaults to the schema's primary key.
func (o *Options) resolveCols(s *relation.Schema, needK2 bool) (keyCol, attrCol int, err error) {
	if err := o.K1.Validate(); err != nil {
		return 0, 0, fmt.Errorf("mark: k1: %w", err)
	}
	if needK2 {
		if err := o.K2.Validate(); err != nil {
			return 0, 0, fmt.Errorf("mark: k2: %w", err)
		}
		if string(o.K1) == string(o.K2) {
			return 0, 0, ErrSameKeys
		}
	}
	if o.E == 0 {
		return 0, 0, errors.New("mark: fitness parameter e must be positive")
	}
	kName := o.KeyAttr
	if kName == "" {
		kName = s.KeyName()
	}
	keyCol, ok := s.Index(kName)
	if !ok {
		return 0, 0, fmt.Errorf("mark: key attribute %q not in schema", kName)
	}
	if o.Attr == "" {
		return 0, 0, errors.New("mark: no categorical attribute named")
	}
	attrCol, ok = s.Index(o.Attr)
	if !ok {
		return 0, 0, fmt.Errorf("mark: attribute %q not in schema", o.Attr)
	}
	if keyCol == attrCol {
		return 0, 0, fmt.Errorf("mark: key and watermarked attribute are both %q", o.Attr)
	}
	return keyCol, attrCol, nil
}

// resolve validates the options against a relation and returns the key and
// attribute column indices plus the effective domain (derived from the
// data when Options.Domain is nil).
func (o *Options) resolve(r *relation.Relation, needK2 bool) (keyCol, attrCol int, dom *relation.Domain, err error) {
	keyCol, attrCol, err = o.resolveCols(r.Schema(), needK2)
	if err != nil {
		return 0, 0, nil, err
	}
	dom = o.Domain
	if dom == nil {
		dom, err = relation.DomainOf(r, o.Attr)
		if err != nil {
			return 0, 0, nil, err
		}
	}
	if dom.Size() < 2 {
		return 0, 0, nil, ErrDomainTooSmall
	}
	return keyCol, attrCol, dom, nil
}

// resolveSchema validates the options against a bare schema, for
// streams where no relation exists to derive a domain from:
// Options.Domain is mandatory.
func (o *Options) resolveSchema(s *relation.Schema, needK2 bool) (keyCol, attrCol int, dom *relation.Domain, err error) {
	keyCol, attrCol, err = o.resolveCols(s, needK2)
	if err != nil {
		return 0, 0, nil, err
	}
	if o.Domain == nil {
		return 0, 0, nil, errors.New("mark: streaming passes require an explicit Domain (no data to derive it from)")
	}
	if o.Domain.Size() < 2 {
		return 0, 0, nil, ErrDomainTooSmall
	}
	return keyCol, attrCol, o.Domain, nil
}

// Bandwidth returns |wm_data| = N/e for a relation of n tuples, the
// paper's available embedding bandwidth (Section 2.4).
func Bandwidth(n int, e uint64) int {
	if e == 0 {
		return 0
	}
	return int(uint64(n) / e)
}

// bandwidth resolves the effective |wm_data| for a relation of n tuples.
func (o *Options) bandwidth(n int) int {
	if o.BandwidthOverride > 0 {
		return o.BandwidthOverride
	}
	return Bandwidth(n, o.E)
}
