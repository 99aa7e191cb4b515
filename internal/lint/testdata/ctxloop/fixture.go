// Package fixture exercises both ctxloop rules: block/row-crossing
// loops without a cancellation point, detached contexts, and the
// compliant loop shapes that must pass.
//
//wmlint:fixture repro/internal/pipeline
package fixture

import (
	"context"

	"repro/internal/mark"
	"repro/internal/relation"
)

func fillNoCancel(r *relation.Relation, blk *relation.Block, visit func(*relation.Block)) {
	for lo := 0; lo < r.Len(); lo += 128 { // want `loop crosses scan-block/row boundaries`
		r.FillBlock(blk, lo, min(lo+128, r.Len()))
		visit(blk)
	}
}

func fillWithCancel(ctx context.Context, r *relation.Relation, blk *relation.Block, visit func(*relation.Block)) error {
	for lo := 0; lo < r.Len(); lo += 128 {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.FillBlock(blk, lo, min(lo+128, r.Len()))
		visit(blk)
	}
	return nil
}

func readWithStopLatch(src relation.BlockReader, blk *relation.Block, stop chan struct{}) error {
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
			return nil
		}
		if _, err := src.ReadBlock(blk, 512); err != nil {
			return err
		}
	}
}

func detached() context.Context {
	return context.Background() // want `calls context.Background`
}

func readBlocksNoCancel(src relation.BlockReader, blk *relation.Block) error {
	for { // want `loop crosses scan-block/row boundaries`
		if _, err := src.ReadBlock(blk, 512); err != nil {
			return err
		}
	}
}

func skimNoCancel(src relation.RawShardSource) error {
	var buf []byte
	for { // want `loop crosses scan-block/row boundaries`
		var err error
		if buf, _, err = src.SkimRecords(buf[:0], 512); err != nil {
			return err
		}
	}
}

func skimSpanNoCancel(src *relation.JSONLPayloadReader) error {
	for { // want `loop crosses scan-block/row boundaries`
		if _, _, err := src.SkimSpan(512); err != nil {
			return err
		}
	}
}

func scanColumnsNoCancel(sc *mark.Scanner, blks []*relation.Block, t *mark.Tally) error {
	var bs mark.BlockScratch
	for _, blk := range blks { // want `loop crosses scan-block/row boundaries`
		if err := sc.ScanColumns(blk, t, &bs); err != nil {
			return err
		}
	}
	return nil
}

func readBlocksWithCancel(ctx context.Context, src relation.BlockReader, blk *relation.Block) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := src.ReadBlock(blk, 512); err != nil {
			return err
		}
	}
}
