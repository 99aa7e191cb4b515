package pipeline

import (
	"context"
	"io"
	"time"

	"repro/internal/mark"
	"repro/internal/relation"
)

// Streaming detection: the pool's producer fills pooled columnar
// blocks straight from the input bytes (no per-row tuples, no per-field
// strings) and groups them into chunk-sized jobs, and the workers vote
// over each block's arena bytes through Scanner.ScanColumns. Blocks
// return to the relation block pool once scanned, so memory is bounded
// by workers × chunk size, never by the dataset, and a warm pass
// performs zero allocations per row. The collector merges tallies in
// stream order, so results (including LastWriteWins) are bit-identical
// to the sequential pass.
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
	blockRows := cfg.blockRows()
	groupBlocks := max(cfg.streamChunkRows()/blockRows, 1)
	err := runPool(ctx, cfg, cfg.workers(), scanners, func(p *pool) error {
		var j *job // the group being filled; nil once handed on
		defer func() {
			if j != nil {
				putBlocks(j.blks)
			}
		}()
		for {
			if p.ctx.Err() != nil {
				return nil
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
			if err != nil || n == 0 {
				// A read error discards the buffered group: the whole
				// call errors out anyway.
				relation.PutBlock(blk)
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				continue
			}
			if j == nil {
				j = p.next()
			}
			if j.blks = append(j.blks, blk); len(j.blks) == groupBlocks {
				if !p.emit(j) {
					return nil
				}
				j = nil
			}
		}
		if j != nil && p.emit(j) {
			j = nil
		}
		return nil
	}, func(p *pool, j *job, bs *mark.BlockScratch) error {
		j.parts = p.parts()
		return scanGroup(p.ctx, scanners, j.blks, j.parts.tallies, bs, cfg)
	}, func(j *job) {
		for i := range totals {
			totals[i].Merge(j.parts.tallies[i])
		}
	})
	if err != nil {
		return nil, err
	}
	return totals, nil
}

// scanGroup sweeps every scanner over one job's blocks into tallies,
// the certificate loop inside the block loop, with ctx checked and
// progress ticked between blocks. Its loops read only its arguments:
// reaching the tallies through the job shell once per certificate and
// block, beside fields other goroutines write, measured slower.
func scanGroup(ctx context.Context, scanners []*mark.Scanner, blks []*relation.Block, tallies []*mark.Tally, bs *mark.BlockScratch, cfg Config) error {
	for _, blk := range blks {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i, sc := range scanners {
			if err := sc.ScanColumns(blk, tallies[i], bs); err != nil {
				return err
			}
		}
		cfg.report(blk.Rows())
	}
	return nil
}
