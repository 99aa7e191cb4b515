// Package pipeline executes watermark embedding and detection as
// chunked passes on one ordered worker pool (pool.go). The codec of
// internal/mark decides everything per tuple from the tuple's own key,
// so a relation partitions cleanly into contiguous key-ranges, and a
// stream into groups of blocks, that workers process independently on
// runtime.NumCPU() goroutines; a single collector folds the per-job
// results in scan order into exactly what the sequential pass would
// produce (bit-identical recovered watermarks — see the equivalence
// tests). The same pool runs one worker where the pass is
// order-dependent. stream.go runs detection over relation.BlockReader
// streams (ScanMany) so suspect datasets never need to be fully
// materialized.
//
// Within a job, every path feeds fixed-size columnar blocks
// (Config.BlockRows) through the batched keyed-hash kernels rather than
// looping tuple-at-a-time: streams fill blocks from their bytes, and
// materialized relations fill them with relation.Relation.FillBlock.
// Detection votes through mark.Scanner.ScanColumns; embedding runs
// mark.Embedder.EmbedBlock over the same blocks and stores its rewrites
// into the slots of the rows they were filled from. The
// multi-certificate engine runs its certificate loop inside the block
// loop so a block's keys and digests stay cache-resident across all
// certificates of a batch audit. Config.Progress observes the pass at
// block granularity — the tuples-scanned counter async jobs report.
//
// This is the execution engine behind core.Spec.Workers, wmtool -parallel
// and the wmserver handlers.
//
// Every entry point takes a context.Context and stops when it is
// cancelled — the mechanism by which an HTTP client disconnect, an
// async-job cancellation (internal/jobs) or a server shutdown actually
// halts scan work mid-pass instead of burning CPU to the end of the
// dataset. Workers check the context between blocks and the producer
// between jobs, so a cancelled streaming pass stops without draining
// its source.
package pipeline

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/ecc"
	"repro/internal/mark"
	"repro/internal/obs/trace"
	"repro/internal/relation"
)

// Config sizes the worker pool and the scan blocks it feeds the codec.
type Config struct {
	// Workers is the number of concurrent workers. 0 or negative means
	// runtime.NumCPU().
	Workers int
	// ChunkRows is the number of rows per job. 0 derives it: from the
	// row count on materialized passes, a size that gives each worker
	// several chunks (for tail balancing) without dropping below
	// MinChunkRows; StreamChunkRows on streaming passes, whose length is
	// unknown up front.
	ChunkRows int
	// BlockRows is the number of rows per scan block — the unit the
	// workers feed through the batched keyed-hash kernels
	// (mark.Scanner.ScanColumns / mark.Embedder.EmbedBlock), and the
	// granularity of Progress ticks. 0 or negative means
	// mark.DefaultBlockRows.
	BlockRows int
	// Progress, when non-nil, is invoked with the number of suspect
	// tuples each completed scan block covered — the hook async jobs use
	// to surface tuples-scanned-so-far. It is called concurrently from
	// worker goroutines and must be safe for that (an atomic counter
	// add, typically). Multi-certificate passes (ScanMany) tick once per
	// block, not once per certificate.
	Progress func(tuples int)
	// Phases, when non-nil, accumulates per-phase CPU time
	// (ingest/hash/vote/merge) — coarse job-boundary clocks summed
	// across workers, read by trace spans. Every pass meters itself:
	// ingest is a stream's block reads, hash the scanners' kernel calls,
	// vote the rest of each job and merge the collector's folds. Leave
	// nil on unsampled passes so the zero-allocation path never reads a
	// clock.
	Phases *trace.Phases
}

// MinChunkRows is the floor for derived chunk sizes: below this the
// per-chunk bookkeeping (a bandwidth-sized tally or touched-set per
// chunk) outweighs the scan work.
const MinChunkRows = 1024

// chunksPerWorker is the oversubscription factor for derived chunk sizes;
// several chunks per worker smooths uneven fitness density across ranges.
const chunksPerWorker = 4

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.NumCPU()
	}
	return c.Workers
}

// chunkRows resolves the chunk size of a materialized pass over n rows.
// It divides twice rather than multiply workers by chunksPerWorker, so
// no worker count can overflow the divisor.
func (c Config) chunkRows(n, workers int) int {
	if c.ChunkRows > 0 {
		return c.ChunkRows
	}
	per := n / workers / chunksPerWorker
	if per < MinChunkRows {
		per = MinChunkRows
	}
	return per
}

// blockRows resolves the scan-block size: 0 or negative means
// mark.DefaultBlockRows.
func (c Config) blockRows() int {
	if c.BlockRows > 0 {
		return c.BlockRows
	}
	return mark.DefaultBlockRows
}

// report ticks the progress hook, if any, and the process-wide scan
// counters (see Stats). One call per scan block keeps the cost to two
// atomic adds per DefaultBlockRows tuples — invisible next to the
// keyed-hash work inside the block.
func (c Config) report(tuples int) {
	if tuples <= 0 {
		return
	}
	statTuples.Add(uint64(tuples))
	statBlocks.Add(1)
	if c.Progress != nil {
		c.Progress(tuples)
	}
}

// scratchPool recycles mark.BlockScratch across passes and callers, so
// memo lanes and staging arrays stay warm instead of being rebuilt on
// every call. Scratches go back Released: a pooled scratch pins no
// block.
var scratchPool = sync.Pool{New: func() any { return new(mark.BlockScratch) }}

func getScratch() *mark.BlockScratch { return scratchPool.Get().(*mark.BlockScratch) }

func putScratch(bs *mark.BlockScratch) {
	bs.Release()
	scratchPool.Put(bs)
}

// chunkRange is one [Lo, Hi) row range of a partitioned relation.
type chunkRange struct {
	Index  int
	Lo, Hi int
}

// partition splits n rows into contiguous ranges of about chunkRows rows.
func partition(n, chunkRows int) []chunkRange {
	if n == 0 {
		return []chunkRange{{Index: 0, Lo: 0, Hi: 0}}
	}
	var out []chunkRange
	for lo := 0; lo < n; lo += chunkRows {
		hi := lo + chunkRows
		if hi > n {
			hi = n
		}
		out = append(out, chunkRange{Index: len(out), Lo: lo, Hi: hi})
	}
	return out
}

// runRanges runs a pass over r on the pool: r's rows cut into chunks of
// the derived chunk size, emitted in row order, on at most workers
// goroutines and never more than there are chunks.
func runRanges(ctx context.Context, r *relation.Relation, cfg Config, workers int, scanners []*mark.Scanner,
	work func(p *pool, j *job, bs *mark.BlockScratch) error, collect func(j *job)) error {
	chunks := partition(r.Len(), cfg.chunkRows(r.Len(), cfg.workers()))
	return runPool(ctx, cfg, min(workers, len(chunks)), scanners, func(p *pool) error {
		for _, c := range chunks {
			j := p.next()
			j.lo, j.hi = c.Lo, c.Hi
			if !p.emit(j) {
				return nil
			}
		}
		return nil
	}, work, collect)
}

// Embed watermarks r in place like mark.Embed, but processes key-range
// chunks on the worker pool. The result is equivalent to the sequential
// pass: the same tuples are altered to the same values (each decision
// depends only on the tuple's own key), and the merged statistics match.
// Workers rewrite r in place: mark.NewEmbedder resolves the domain's
// slots in the attribute column before the pool starts, and each
// rewrite stores one into a row of the worker's own chunk.
//
// Quality-gated embedding is inherently sequential — the assessor's
// alteration budget makes later decisions depend on earlier ones — so
// when opts.Assessor, opts.SkipRow or opts.OnAlter is set Embed runs the
// same pool at one worker, chunk after chunk. A watermarked attribute
// that is the schema's primary key (a Section 3.3 pairwise embedding
// with KeyAttr overridden) is an ordinary column here and runs on the
// whole pool. The one worker still checks ctx between blocks, so even
// an order-dependent embedding is cancellable mid-pass; a
// partially-embedded relation must be discarded on error either way.
func Embed(ctx context.Context, r *relation.Relation, wm ecc.Bits, opts mark.Options, cfg Config) (mark.EmbedStats, error) {
	if err := ctx.Err(); err != nil {
		return mark.EmbedStats{}, err
	}
	em, err := mark.NewEmbedder(r, wm, opts)
	if err != nil {
		return mark.EmbedStats{}, err
	}
	workers := cfg.workers()
	if opts.Assessor != nil || opts.SkipRow != nil || opts.OnAlter != nil {
		workers = 1
	}
	var parts []mark.ChunkStats
	err = runRanges(ctx, r, cfg, workers, nil, func(p *pool, j *job, bs *mark.BlockScratch) error {
		return em.EmbedRange(j.lo, j.hi, cfg.blockRows(), &j.cs, bs, func(rows int) error {
			cfg.report(rows)
			return p.ctx.Err()
		})
	}, func(j *job) { parts = append(parts, j.cs) })
	if err != nil {
		return mark.EmbedStats{}, err
	}
	return mark.MergeChunks(parts...), nil
}

// Detect recovers a watermark like mark.Detect, but scans key-range
// chunks on the worker pool and merges the per-chunk vote tallies in
// scan order before aggregating and decoding once. The recovered bit
// string is bit-identical to the sequential pass for both
// vote-aggregation policies; the suspect relation is never modified.
func Detect(ctx context.Context, r *relation.Relation, wmLen int, opts mark.Options, cfg Config) (mark.DetectReport, error) {
	rep, _, err := detect(ctx, r, wmLen, opts, cfg, false)
	return rep, err
}

// detect runs the materialized detection pass; with keepFit it also
// returns the pass's FitPass.
func detect(ctx context.Context, r *relation.Relation, wmLen int, opts mark.Options, cfg Config, keepFit bool) (mark.DetectReport, *FitPass, error) {
	if err := ctx.Err(); err != nil {
		return mark.DetectReport{}, nil, err
	}
	sc, err := mark.NewScanner(r, wmLen, opts)
	if err != nil {
		return mark.DetectReport{}, nil, err
	}
	// The total is a pooled group too, handed back once the report is
	// built; the fit rows of each chunk append to fit in chunk order.
	scanners := []*mark.Scanner{sc}
	total := getGroup(scanners)
	defer putGroup(total)
	var fit *[]int
	if keepFit {
		fit = getRows()
	}
	err = runRanges(ctx, r, cfg, cfg.workers(), scanners, func(p *pool, j *job, bs *mark.BlockScratch) error {
		j.parts = p.parts()
		if keepFit {
			j.fit = getRows()
		}
		return sc.Scan(r, j.lo, j.hi, cfg.blockRows(), j.parts.tallies[0], bs, j.fit, func(rows int) error {
			cfg.report(rows)
			return p.ctx.Err()
		})
	}, func(j *job) {
		total.tallies[0].Merge(j.parts.tallies[0])
		if fit != nil {
			*fit = append(*fit, *j.fit...)
		}
	})
	var rep mark.DetectReport
	if err == nil {
		rep, err = sc.Report(total.tallies[0])
	}
	if err != nil {
		if fit != nil {
			putRows(fit)
		}
		return mark.DetectReport{}, nil, err
	}
	if fit == nil {
		return rep, nil, nil
	}
	return rep, &FitPass{sc: sc, r: r, rows: fit, cfg: cfg}, nil
}
