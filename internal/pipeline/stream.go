package pipeline

import (
	"context"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mark"
	"repro/internal/relation"
)

// Streaming detection: the reader goroutine fills pooled columnar blocks
// straight from the input bytes (no per-row tuples, no per-field
// strings), groups them into chunk-sized jobs, and the worker pool votes
// over each block's arena bytes through Scanner.ScanColumns. Everything
// cycles: blocks return to the relation block pool after scanning,
// per-chunk tally groups and job shells return to free lists after
// collection (and part groups to a process-wide pool when the pass
// ends), and each worker takes one pooled BlockScratch for its
// lifetime — steady state performs zero allocations per row. A single collector
// merges tallies in stream order, so results (including LastWriteWins)
// are bit-identical to the sequential pass. Memory is bounded by
// workers × chunk size, never by the dataset.
//
// A stream's length is unknown up front, so its scanners come from
// mark.NewStreamScanner, which takes Options.BandwidthOverride (the
// embedding-time |wm_data|) and Options.Domain (the value catalog) —
// exactly the parameters that travel in a core.Record.

// StreamChunkRows is the default chunk size for streaming passes.
const StreamChunkRows = 8192

func (c Config) streamChunkRows() int {
	if c.ChunkRows > 0 {
		return c.ChunkRows
	}
	return StreamChunkRows
}

// ScanMany is the fan-out detection engine: it drives every prepared
// scanner over a SINGLE pass of src and returns one merged tally per
// scanner, in scanner order. Chunks are scanned on the worker pool
// block-at-a-time with the certificate loop INSIDE the block loop: each
// block's fitness digests are computed once per distinct lane
// (certificates sharing an owner secret replay each other's digests
// through the scratch memo), and the block's keys and digests stay
// cache-resident while every scanner sweeps it. Per-chunk tallies merge
// in stream order, so every tally — including its LastWriteWins column —
// is bit-identical to scanning the materialized stream with that scanner
// alone. The dataset is read, parsed and chunked exactly once no matter
// how many scanners ride the pass; this is what makes
// corpus-against-catalog verification (core.VerifyBatch) scale with the
// number of certificates.
//
// Scanners must have been prepared against src's schema (their key and
// attribute columns are resolved positions). With zero scanners the stream
// is not consumed. cfg.Progress ticks once per block, with suspect tuples
// covered (not multiplied by the number of scanners).
func ScanMany(ctx context.Context, src relation.BlockReader, scanners []*mark.Scanner, cfg Config) ([]*mark.Tally, error) {
	totals := make([]*mark.Tally, len(scanners))
	for i, sc := range scanners {
		totals[i] = sc.NewTally()
	}
	if len(scanners) == 0 {
		return totals, nil
	}
	return scanManyBlocks(ctx, src, scanners, totals, cfg)
}

// blockJob is one group of columnar blocks travelling through the pool,
// plus the rendezvous channel its per-scanner tallies come back on.
type blockJob struct {
	blks []*relation.Block
	res  chan blockTallies
}

type blockTallies struct {
	parts *partGroup
	err   error
}

// scanManyBlocks drives every scanner over a single pass of src,
// accumulating into totals (one per scanner, in scanner order). Tallies
// merge in stream order, the blocks buffered when a read error hits are
// discarded, and a cancelled ctx stops the reader between blocks.
func scanManyBlocks(ctx context.Context, src relation.BlockReader, scanners []*mark.Scanner, totals []*mark.Tally, cfg Config) ([]*mark.Tally, error) {
	workers := cfg.workers()
	blockRows := cfg.blockRows()
	groupBlocks := max(cfg.streamChunkRows()/blockRows, 1)

	jobs := make(chan *blockJob, workers)
	ordered := make(chan *blockJob, workers)
	freeJobs := make(chan *blockJob, 2*workers)
	freeParts := make(chan *partGroup, 2*workers)
	stop := make(chan struct{})
	var stopOnce sync.Once

	watcherDone := make(chan struct{})
	defer close(watcherDone)
	go func() {
		select {
		case <-ctx.Done():
			stopOnce.Do(func() { close(stop) })
		case <-watcherDone:
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bs := getScratch() // one scratch per worker, reused across jobs
			defer putScratch(bs)
			if cfg.Phases != nil {
				bs.EnableHashTiming()
			}
			for job := range jobs {
				var res blockTallies
				if err := ctx.Err(); err != nil {
					res.err = err
				} else if cfg.Phases == nil {
					res.parts, res.err = scanBlockGroup(ctx, scanners, job.blks, bs, freeParts, cfg)
				} else {
					// Phase clocks at job granularity: the scratch meters
					// kernel time, the remainder of the scan elapsed is the
					// fitness/vote walk.
					start := time.Now()
					res.parts, res.err = scanBlockGroup(ctx, scanners, job.blks, bs, freeParts, cfg)
					elapsed := time.Since(start)
					hash := time.Duration(bs.HashNanos())
					cfg.Phases.AddHash(hash)
					cfg.Phases.AddVote(elapsed - hash)
				}
				for _, blk := range job.blks {
					relation.PutBlock(blk)
				}
				job.blks = job.blks[:0]
				job.res <- res
			}
		}()
	}

	var readErr error
	go func() {
		defer close(jobs)
		defer close(ordered)
		getJob := func() *blockJob {
			select {
			case j := <-freeJobs:
				return j
			default:
				return &blockJob{res: make(chan blockTallies, 1)}
			}
		}
		putBlocks := func(blks []*relation.Block) {
			for _, blk := range blks {
				relation.PutBlock(blk)
			}
		}
		job := getJob()
		defer func() { putBlocks(job.blks) }()
		dispatch := func() bool {
			select {
			case <-stop:
				return false
			case jobs <- job:
			}
			ordered <- job
			job = getJob()
			return true
		}
		stopped := func() bool {
			select {
			case <-stop:
				return true
			default:
				return false
			}
		}
		for {
			if stopped() {
				return
			}
			blk := relation.GetBlock(src.Schema())
			var readStart time.Time
			if cfg.Phases != nil {
				readStart = time.Now()
			}
			n, err := src.ReadBlock(blk, blockRows)
			if cfg.Phases != nil {
				cfg.Phases.AddIngest(time.Since(readStart))
			}
			if err == io.EOF {
				relation.PutBlock(blk)
				break
			}
			if err != nil {
				// Discard the buffered group: the whole call errors out
				// anyway.
				relation.PutBlock(blk)
				readErr = err
				return
			}
			if n == 0 {
				relation.PutBlock(blk)
				continue
			}
			job.blks = append(job.blks, blk)
			if len(job.blks) >= groupBlocks {
				if !dispatch() {
					return
				}
			}
		}
		if len(job.blks) > 0 {
			dispatch()
		}
	}()

	var firstErr error
	for job := range ordered {
		r := <-job.res
		if firstErr == nil {
			if r.err != nil {
				firstErr = r.err
				stopOnce.Do(func() { close(stop) })
			} else {
				var mergeStart time.Time
				if cfg.Phases != nil {
					mergeStart = time.Now()
				}
				for i := range totals {
					totals[i].Merge(r.parts.tallies[i])
				}
				if cfg.Phases != nil {
					cfg.Phases.AddMerge(time.Since(mergeStart))
				}
			}
		}
		if r.parts != nil {
			select {
			case freeParts <- r.parts:
			default:
				putGroup(r.parts)
			}
		}
		select {
		case freeJobs <- job:
		default:
		}
	}
	wg.Wait()
	for drained := false; !drained; {
		select {
		case g := <-freeParts:
			putGroup(g)
		default:
			drained = true
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if readErr != nil && firstErr == nil {
		firstErr = readErr
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return totals, nil
}

// scanBlockGroup sweeps every scanner over one group of blocks,
// certificate loop inside the block loop, into a recycled tally group.
func scanBlockGroup(ctx context.Context, scanners []*mark.Scanner, blks []*relation.Block, bs *mark.BlockScratch, freeParts chan *partGroup, cfg Config) (*partGroup, error) {
	var parts *partGroup
	select {
	case parts = <-freeParts:
		for _, t := range parts.tallies {
			t.Reset()
		}
	default:
		parts = getGroup(scanners)
	}
	for _, blk := range blks {
		if err := ctx.Err(); err != nil {
			return parts, err
		}
		for i, sc := range scanners {
			if err := sc.ScanColumns(blk, parts.tallies[i], bs); err != nil {
				return parts, err
			}
		}
		cfg.report(blk.Rows())
	}
	return parts, nil
}

// partGroup is one part tally per scanner of a pass. Groups are pooled
// across passes as a unit, so a repeated scanner set — the same
// catalog audited again — gets back tallies of exactly its bandwidths;
// a different set reuses whatever arrays are large enough
// (Scanner.ReuseTally). A catalog audit's group is bandwidth ×
// certificates, so allocating groups afresh on every call spent most of
// the bytes the call allocated. Totals are never pooled: they are the
// caller's result.
type partGroup struct {
	tallies []*mark.Tally
}

var partPool sync.Pool // of *partGroup

// groupsOut counts groups taken from getGroup and not yet handed back
// through putGroup; every pass returns it to where it started, which
// the pool tests check.
var groupsOut atomic.Int64

// getGroup returns a group of empty tallies, one per scanner, reusing a
// pooled group.
func getGroup(scanners []*mark.Scanner) *partGroup {
	groupsOut.Add(1)
	g, _ := partPool.Get().(*partGroup)
	if g == nil {
		g = new(partGroup)
	}
	if c := cap(g.tallies); c < len(scanners) {
		g.tallies = slices.Grow(g.tallies[:c], len(scanners)-c)
	}
	// Tallies past len(scanners) stay in the backing array for the
	// next, larger set.
	g.tallies = g.tallies[:len(scanners)]
	for i, sc := range scanners {
		g.tallies[i] = sc.ReuseTally(g.tallies[i])
	}
	return g
}

// putGroup hands a group back to the pool.
func putGroup(g *partGroup) {
	groupsOut.Add(-1)
	partPool.Put(g)
}
