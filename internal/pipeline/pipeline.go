// Package pipeline executes watermark embedding and detection as chunked,
// worker-pool passes. The codec of internal/mark decides everything per
// tuple from the tuple's own key, so a relation partitions cleanly into
// contiguous key-ranges that workers process independently on
// runtime.NumCPU() goroutines; per-chunk results merge into exactly what
// the sequential pass would produce (bit-identical recovered watermarks —
// see the equivalence tests). stream.go runs detection over
// relation.BlockReader streams (ScanMany) so suspect datasets never need
// to be fully materialized.
//
// Within a chunk, every path feeds fixed-size columnar blocks
// (Config.BlockRows) through the batched keyed-hash kernels rather than
// looping tuple-at-a-time: streams fill blocks from their bytes, and
// materialized relations fill them with relation.Relation.FillBlock.
// Detection votes through mark.Scanner.ScanColumns; embedding runs
// mark.Embedder.EmbedBlock over the same blocks and writes its rewrites
// back to the relation they were filled from. The
// multi-certificate engine runs its certificate loop inside the block
// loop so a block's keys and digests stay cache-resident across all
// certificates of a batch audit. Config.Progress observes the pass at
// block granularity — the tuples-scanned counter async jobs report.
//
// This is the execution engine behind core.Spec.Workers, wmtool -parallel
// and the wmserver handlers.
//
// Every entry point takes a context.Context and stops between chunks when
// it is cancelled — the mechanism by which an HTTP client disconnect, an
// async-job cancellation (internal/jobs) or a server shutdown actually
// halts scan work mid-pass instead of burning CPU to the end of the
// dataset. Cancellation is chunk-granular: a worker finishes the chunk in
// its hands, then exits; the streaming reader additionally checks between
// blocks, so a cancelled streaming pass stops without draining its source.
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
	// ChunkRows is the number of rows per chunk. 0 derives a chunk size
	// that gives each worker several chunks (for tail balancing) without
	// dropping below MinChunkRows.
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
	// (ingest/hash/vote/merge) for the columnar streaming engine —
	// coarse block-boundary clocks summed across workers, read by trace
	// spans. Only ScanMany meters itself; leave nil on unsampled passes
	// so the zero-allocation path never reads a clock.
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

func (c Config) chunkRows(n, workers int) int {
	if c.ChunkRows > 0 {
		return c.ChunkRows
	}
	per := n / (workers * chunksPerWorker)
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

// scanRange feeds rows [lo, hi) of r through sc into t block-at-a-time:
// each block's key and attribute columns are copied into blk and voted
// through ScanColumns, with ctx checked and progress ticked between
// blocks. bs and blk are the caller's per-goroutine scratch. A non-nil
// fit collects the range's fit rows in ascending order
// (Scanner.ScanColumnsFit).
func scanRange(ctx context.Context, sc *mark.Scanner, r *relation.Relation, lo, hi int, t *mark.Tally, bs *mark.BlockScratch, blk *relation.Block, fit *[]int, cfg Config) error {
	br := cfg.blockRows()
	keyCol, attrCol := sc.Columns()
	for blockLo := lo; blockLo < hi; blockLo += br {
		if err := ctx.Err(); err != nil {
			return err
		}
		blockHi := min(blockLo+br, hi)
		r.FillBlock(blk, blockLo, blockHi, keyCol, attrCol)
		var err error
		if fit != nil {
			*fit, err = sc.ScanColumnsFit(blk, t, bs, blockLo, *fit)
		} else {
			err = sc.ScanColumns(blk, t, bs)
		}
		if err != nil {
			return err
		}
		cfg.report(blockHi - blockLo)
	}
	return nil
}

// embedRange feeds rows [lo, hi) of r through em into cs
// block-at-a-time: each block's key column is copied into blk and
// embedded through EmbedBlock, with ctx checked and progress ticked
// between blocks. Runs at least one (possibly empty) block so cs always
// carries the pass bandwidth. bs and blk are the caller's per-goroutine
// scratch.
func embedRange(ctx context.Context, em *mark.Embedder, r *relation.Relation, lo, hi int, cs *mark.ChunkStats, bs *mark.BlockScratch, blk *relation.Block, cfg Config) error {
	br := cfg.blockRows()
	for blockLo := lo; ; blockLo += br {
		if err := ctx.Err(); err != nil {
			return err
		}
		blockHi := min(blockLo+br, hi)
		r.FillBlock(blk, blockLo, blockHi, em.KeyColumn())
		if err := em.EmbedBlock(r, blk, blockLo, cs, bs); err != nil {
			return err
		}
		cfg.report(blockHi - blockLo)
		if blockHi >= hi {
			return nil
		}
	}
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

// runChunks fans worker goroutines over the chunks, calling work for each
// with the index (in [0, workers)) of the worker running it, so callers
// can keep per-worker scratch; results land in a slice indexed by chunk.
// The first error wins. A cancelled ctx stops dispatch and lets in-flight
// chunks finish; the call then reports ctx.Err().
func runChunks[T any](ctx context.Context, workers int, chunks []chunkRange, work func(w int, c chunkRange) (T, error)) ([]T, error) {
	results := make([]T, len(chunks))
	errs := make([]error, len(chunks))
	if workers > len(chunks) {
		workers = len(chunks)
	}
	jobs := make(chan chunkRange)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				if ctx.Err() != nil {
					return
				}
				results[c.Index], errs[c.Index] = work(w, c)
			}
		}()
	}
feed:
	for _, c := range chunks {
		select {
		case jobs <- c:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Embed watermarks r in place like mark.Embed, but processes key-range
// chunks on a worker pool. The result is equivalent to the sequential
// pass: the same tuples are altered to the same values (each decision
// depends only on the tuple's own key), and the merged statistics match.
// A relation has one writer at a time, so the workers only read r and
// stage their rewrites (mark.ChunkStats.Stage); Embed applies them in
// chunk order once the workers have joined.
//
// Quality-gated embedding is inherently sequential — the assessor's
// alteration budget makes later decisions depend on earlier ones — so
// when opts.Assessor, opts.SkipRow or opts.OnAlter is set (or one worker
// is requested) Embed runs the chunks in order on the calling goroutine
// instead of the pool. Likewise when the watermarked attribute is the
// schema's primary key (a Section 3.3 pairwise embedding with KeyAttr
// overridden): a key rewrite can fail on a duplicate, and which one
// fails depends on the rewrites before it. The sequential walk
// still checks ctx between chunks, so even an order-dependent embedding
// is cancellable mid-pass; a partially-embedded relation must be
// discarded on error either way.
func Embed(ctx context.Context, r *relation.Relation, wm ecc.Bits, opts mark.Options, cfg Config) (mark.EmbedStats, error) {
	if err := ctx.Err(); err != nil {
		return mark.EmbedStats{}, err
	}
	workers := cfg.workers()
	em, err := mark.NewEmbedder(r, wm, opts)
	if err != nil {
		return mark.EmbedStats{}, err
	}
	chunks := partition(r.Len(), cfg.chunkRows(r.Len(), workers))
	if workers == 1 || opts.Assessor != nil || opts.SkipRow != nil || opts.OnAlter != nil ||
		attrIsPrimaryKey(r, opts.Attr) {
		// In-order chunk walk: identical to mark.Embed (EmbedBlock is its
		// kernel, rows visited in the same order) plus cancellation points.
		var agg mark.ChunkStats
		bs := getScratch()
		defer putScratch(bs)
		blk := relation.GetBlock(r.Schema())
		defer relation.PutBlock(blk)
		for _, c := range chunks {
			if err := ctx.Err(); err != nil {
				return mark.EmbedStats{}, err
			}
			if err := embedRange(ctx, em, r, c.Lo, c.Hi, &agg, bs, blk, cfg); err != nil {
				return mark.EmbedStats{}, err
			}
		}
		return mark.MergeChunks(agg), nil
	}
	workers = min(workers, len(chunks))
	blks := make([]*relation.Block, workers)
	scratch := make([]*mark.BlockScratch, workers)
	for w := range scratch {
		blks[w] = relation.GetBlock(r.Schema())
		defer relation.PutBlock(blks[w])
		scratch[w] = getScratch()
		defer putScratch(scratch[w])
	}
	parts, err := runChunks(ctx, workers, chunks, func(w int, c chunkRange) (mark.ChunkStats, error) {
		cs := mark.ChunkStats{Stage: true}
		err := embedRange(ctx, em, r, c.Lo, c.Hi, &cs, scratch[w], blks[w], cfg)
		return cs, err
	})
	if err != nil {
		return mark.EmbedStats{}, err
	}
	for i := range parts {
		if err := em.ApplyStaged(r, &parts[i]); err != nil {
			return mark.EmbedStats{}, err
		}
	}
	return mark.MergeChunks(parts...), nil
}

// Detect recovers a watermark like mark.Detect, but scans key-range
// chunks on a worker pool and merges the per-chunk vote tallies in scan
// order before aggregating and decoding once. The recovered bit string is
// bit-identical to the sequential pass for both vote-aggregation
// policies; the suspect relation is never modified.
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
	workers := cfg.workers()
	sc, err := mark.NewScanner(r, wmLen, opts)
	if err != nil {
		return mark.DetectReport{}, nil, err
	}
	chunks := partition(r.Len(), cfg.chunkRows(r.Len(), workers))
	workers = min(workers, len(chunks))
	var fit *[]int
	if keepFit {
		fit = getRows()
	}
	blks := make([]*relation.Block, workers)
	scratch := make([]*mark.BlockScratch, workers)
	for w := range blks {
		blks[w] = relation.GetBlock(r.Schema())
		defer relation.PutBlock(blks[w])
		scratch[w] = getScratch()
		defer putScratch(scratch[w])
	}
	var total *mark.Tally
	if workers == 1 {
		// In-order chunk walk over one tally: the same row loop as
		// mark.Detect, split only to interleave cancellation checks.
		total = sc.NewTally()
		for _, c := range chunks {
			if err = scanRange(ctx, sc, r, c.Lo, c.Hi, total, scratch[0], blks[0], fit, cfg); err != nil {
				break
			}
		}
	} else {
		// The per-chunk parts are one pooled group, handed back once
		// the report is built or the pass fails; so are the per-chunk
		// fit rows, concatenated in chunk order once every chunk is in.
		same := make([]*mark.Scanner, len(chunks))
		for i := range same {
			same[i] = sc
		}
		parts := getGroup(same)
		defer putGroup(parts)
		var chunkFit []*[]int
		if fit != nil {
			chunkFit = make([]*[]int, len(chunks))
			for i := range chunkFit {
				chunkFit[i] = getRows()
				defer putRows(chunkFit[i])
			}
		}
		_, err = runChunks(ctx, workers, chunks, func(w int, c chunkRange) (struct{}, error) {
			var cf *[]int
			if chunkFit != nil {
				cf = chunkFit[c.Index]
			}
			return struct{}{}, scanRange(ctx, sc, r, c.Lo, c.Hi, parts.tallies[c.Index], scratch[w], blks[w], cf, cfg)
		})
		if err == nil {
			total = parts.tallies[0]
			for _, t := range parts.tallies[1:] {
				total.Merge(t)
			}
			for _, rows := range chunkFit {
				*fit = append(*fit, *rows...)
			}
		}
	}
	var rep mark.DetectReport
	if err == nil {
		rep, err = sc.Report(total)
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

// attrIsPrimaryKey reports whether attr is the relation's primary key —
// the one column whose rewrites touch the shared key index.
func attrIsPrimaryKey(r *relation.Relation, attr string) bool {
	i, ok := r.Schema().Index(attr)
	return ok && i == r.Schema().KeyIndex()
}
