package core

import (
	"context"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/pipeline"
	"repro/internal/relation"
)

// BatchOptions configures a VerifyBatch pass.
type BatchOptions struct {
	// Workers follows the Spec.Workers convention: 0 or 1 sequential,
	// > 1 that many pipeline workers, negative means runtime.NumCPU().
	Workers int
	// Cache, when non-nil, memoizes prepared certificate state across
	// calls — the point of registering a catalog once and auditing many
	// suspect datasets against it.
	Cache *ScannerCache
	// HashKernel selects the batched keyed-hash backend every
	// certificate's scanner runs on (see Spec.HashKernel). Verdicts are
	// identical across backends.
	HashKernel keyhash.KernelKind
	// BlockSize is the scan-block size (pipeline.Config.BlockRows): the
	// batch engine hashes each block's key column once per lane and keeps
	// its digests cache-resident while every certificate sweeps it. 0 or
	// negative means mark.DefaultBlockRows. Tallies are bit-identical at
	// every setting.
	BlockSize int
	// Progress, when non-nil, receives the tuple count of each scanned
	// block — once per suspect tuple per pass, regardless of how many
	// certificates ride it. Called concurrently from worker goroutines;
	// async jobs point it at their atomic tuples-processed counter.
	Progress func(tuples int)
}

// BatchReport is one certificate's outcome from VerifyBatch.
type BatchReport struct {
	// Report is the verification outcome; meaningful only when Err is nil.
	Report Report
	// Err is a per-certificate failure — a corrupt record, a certificate
	// whose attributes do not resolve in the suspect's schema, or an ECC
	// decode failure. One bad certificate never fails the batch.
	Err error
}

// BatchPrep is the prepared front half of a batch verification: one
// detection scanner per resolvable certificate, fixed against one suspect
// schema. It splits VerifyBatch at the point a distributed audit needs to
// cut it — the coordinator prepares once, fans the SCAN out across
// workers (each of which prepares identically from the same certificates,
// since every parameter derives deterministically from the record), and
// feeds the merged tallies back through Reports. Local verification is
// the same prep with a local scan in the middle, so the two paths cannot
// drift. Immutable after PrepareBatch and safe for concurrent use.
type BatchPrep struct {
	scanners []*mark.Scanner
	records  []*Record // live certificates, scanner order
	wants    []ecc.Bits
	live     []int   // scanner position -> input records index
	errs     []error // per input record; nil where a scanner exists
}

// PrepareBatch resolves every certificate into a detection scanner
// against the suspect schema. Per-certificate failures (corrupt records,
// attributes missing from the schema) are collected, not fatal: they
// surface as BatchReport.Err from Reports, and the remaining certificates
// still ride the scan.
func PrepareBatch(records []*Record, schema *relation.Schema, opts BatchOptions) *BatchPrep {
	p := &BatchPrep{errs: make([]error, len(records))}
	cache := opts.Cache
	if cache == nil {
		// A call-local cache still interns domains within the batch.
		cache = NewScannerCache(len(records))
	}
	for i, rec := range records {
		pr, err := prepared(rec, cache, opts.HashKernel)
		if err != nil {
			p.errs[i] = err
			continue
		}
		sc, err := pr.streamScanner(schema)
		if err != nil {
			p.errs[i] = err
			continue
		}
		p.scanners = append(p.scanners, sc)
		p.records = append(p.records, rec)
		p.wants = append(p.wants, pr.want)
		p.live = append(p.live, i)
	}
	return p
}

// Scanners returns the prepared scanners, one per live certificate in
// input order. The slice is shared — callers must not mutate it.
func (p *BatchPrep) Scanners() []*mark.Scanner { return p.scanners }

// Records returns the live certificates in scanner order — what a
// coordinator ships to workers, so a certificate that failed prep locally
// is never dispatched.
func (p *BatchPrep) Records() []*Record { return p.records }

// Errs returns the per-input-record prep failures (nil entries where a
// scanner exists). The slice is shared — callers must not mutate it.
func (p *BatchPrep) Errs() []error { return p.errs }

// Reports aggregates one completed tally per scanner (in Scanners order —
// pipeline.ScanMany's output, or a coordinator's merged shard partials)
// into per-certificate reports in the original records order, restoring
// the prep failures of certificates that never scanned.
func (p *BatchPrep) Reports(tallies []*mark.Tally) []BatchReport {
	out := make([]BatchReport, len(p.errs))
	for i, err := range p.errs {
		if err != nil {
			out[i].Err = err
		}
	}
	for j, sc := range p.scanners {
		i := p.live[j]
		rep, err := sc.Report(tallies[j])
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Report = Report{
			Match:          rep.MatchFraction(p.wants[j]),
			Detected:       rep.WM.String(),
			FrequencyMatch: -1,
			Primary:        rep,
		}
	}
	return out
}

// VerifyBatch verifies every certificate against ONE streaming pass over
// the suspect dataset — the ownership-audit primitive: a suspect corpus
// is checked against a whole registered catalog for the cost of a single
// read. Each certificate's primary-channel detection is bit-identical to
// what its individual Record.VerifyWith would compute (see the equivalence
// test); results are in records order.
//
// Because the suspect is consumed as a one-shot stream and never
// materialized, the two fallbacks of Record.VerifyWith are out of scope
// here. Section 4.5 bijective-remap recovery is not attempted: VerifyWith
// re-votes the fit rows its materialized pass kept and counts the
// suspect's histogram, and this pass keeps neither (RemapRecovered is
// always false — a remapped suspect surfaces as a high
// Primary.UnknownValues count, at which point the caller can rerun
// Record.VerifyWith on a materialized copy). The Section 4.2 frequency
// channel is not scored (FrequencyMatch is -1).
//
// A stream-level error (unreadable or malformed suspect data) fails the
// whole call; per-certificate failures land in their BatchReport.Err. A
// cancelled ctx stops the scan before the reader drains and fails the
// call with ctx.Err() — this is how job cancellation and client
// disconnects halt a corpus audit mid-pass.
func VerifyBatch(ctx context.Context, records []*Record, src relation.BlockReader, opts BatchOptions) ([]BatchReport, error) {
	prep := PrepareBatch(records, src.Schema(), opts)
	tallies, err := pipeline.ScanMany(ctx, src, prep.Scanners(), pipeline.Config{
		Workers:   workerCount(opts.Workers),
		BlockRows: opts.BlockSize,
		Progress:  opts.Progress,
	})
	if err != nil {
		return nil, err
	}
	return prep.Reports(tallies), nil
}
