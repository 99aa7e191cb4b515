package mark

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/quality"
	"repro/internal/relation"
)

// Block-at-a-time execution: the codec's per-tuple decisions (fitness,
// bit position, value index) all start from keyed hashes of the tuple's
// own key, so a block of tuples can batch those hashes through one
// keyhash.Kernel call and then replay the per-tuple logic over the
// precomputed digests. Every block is columnar: streams fill blocks
// straight from their bytes, and materialized relations fill them
// through Relation.FillBlock. ScanColumns is the one vote kernel and
// EmbedBlock its embedding counterpart, which rewrites the relation the
// block was filled from. Both are bit-identical to the tuple-at-a-time
// loops — the property tests drive them against ScanTuple, size-1
// blocks and a Figure 1(a) oracle — and ScanTuple remains the semantic
// definition of one tuple's vote.
//
// BlockScratch is where the batching pays twice: the per-block digest
// memo (keyhash.BlockMemo) hashes each key value once per lane —
// certificates sharing an owner secret, and therefore a fitness key,
// replay each other's digests instead of rehashing.

// DefaultBlockRows is the block size Scan, EmbedRange and the pipeline
// default to, and what every block-size setting of zero or below means:
// large enough to amortize a kernel call, small enough that a block's
// keys and digests stay cache-resident while every certificate of a
// batch audit sweeps it.
const DefaultBlockRows = 512

// BlockScratch carries the reusable state of a block-at-a-time pass:
// the per-block digest memo and the fit-row staging arrays. One scratch
// serves any number of scanners and embedders — sharing it across
// certificates is what enables digest reuse — but it is mutable state:
// one scratch per goroutine, never shared concurrently. The zero value
// is ready to use.
type BlockScratch struct {
	memo keyhash.BlockMemo

	// block identity: the pooled Block pointer plus its generation
	// counter, because pooling reuses pointers.
	blk    *relation.Block
	blkGen uint64

	// staging for the current EmbedBlock call (fitRows) and ScanColumns
	// call (fitBits). Both stage their fit keys as one contiguous byte
	// run with offsets (fitData, fitOffs), feeding Kernel.HashColumn
	// without materializing strings; d2 receives the position digests.
	fitRows []int32
	fitBits []uint8
	fitData []byte
	fitOffs []int32
	d2      []keyhash.Digest

	// hash-phase metering (EnableHashTiming): nanoseconds spent inside
	// the two kernel calls of ScanColumns, so a traced pass can split a
	// block's scan time into hash vs vote without touching the per-row
	// loops. Off by default — the untimed path pays one branch per
	// kernel call.
	timeHash  bool
	hashNanos int64
}

// EnableHashTiming makes this scratch's ScanColumns calls meter their
// kernel time. Per-goroutine like the scratch itself; enable once, read
// deltas with HashNanos.
func (bs *BlockScratch) EnableHashTiming() { bs.timeHash = true }

// HashNanos returns the kernel nanoseconds accumulated since the last
// call and resets the counter.
func (bs *BlockScratch) HashNanos() int64 {
	n := bs.hashNanos
	bs.hashNanos = 0
	return n
}

// Release drops every reference the scratch holds into a block — the
// block identity and the digest memo's lanes — and switches hash timing
// off, keeping the buffers. A pool puts scratches back through it, so a
// pooled scratch pins no block and its next user starts clean.
func (bs *BlockScratch) Release() {
	bs.blk, bs.blkGen = nil, 0
	bs.memo.Reset()
	bs.timeHash, bs.hashNanos = false, 0
}

// d2For sizes the position-digest scratch for n rows.
func (bs *BlockScratch) d2For(n int) []keyhash.Digest {
	if cap(bs.d2) < n {
		bs.d2 = make([]keyhash.Digest, n)
	}
	return bs.d2[:n]
}

// checkRange validates a block range against a relation.
func checkRange(r *relation.Relation, lo, hi int) error {
	if lo < 0 || hi > r.Len() || lo > hi {
		return fmt.Errorf("mark: row range [%d, %d) out of bounds (N=%d)", lo, hi, r.Len())
	}
	return nil
}

// checkArity validates that a block has the columns a pass reads.
func checkArity(blk *relation.Block, keyCol, attrCol int) error {
	if arity := blk.Schema().Arity(); keyCol >= arity || attrCol >= arity {
		return fmt.Errorf("mark: block arity %d lacks column %d", arity, max(keyCol, attrCol))
	}
	return nil
}

// setColumnBlock points the scratch at a columnar block, invalidating
// the memo when the block identity changed. Pooled blocks reuse
// pointers, so identity is the (pointer, generation) pair.
func (bs *BlockScratch) setColumnBlock(blk *relation.Block) {
	if bs.blk == blk && bs.blkGen == blk.Gen() {
		return
	}
	bs.blk, bs.blkGen = blk, blk.Gen()
	bs.memo.Reset()
}

// stageColumns resets the staging arrays for a fresh block walk.
// fitOffs keeps the leading 0 sentinel so fitOffs[i:i+2] brackets
// staged key i.
func (bs *BlockScratch) stageColumns() {
	bs.fitRows = bs.fitRows[:0]
	bs.fitBits = bs.fitBits[:0]
	bs.fitData = bs.fitData[:0]
	if cap(bs.fitOffs) == 0 {
		bs.fitOffs = make([]int32, 1, 64)
	}
	bs.fitOffs = bs.fitOffs[:1]
	bs.fitOffs[0] = 0
}

// stageKey appends row j of a key column (data, offs) to the staged
// key run.
func (bs *BlockScratch) stageKey(data []byte, offs []int32, j int) {
	bs.fitData = append(bs.fitData, data[offs[j]:offs[j+1]]...)
	bs.fitOffs = append(bs.fitOffs, int32(len(bs.fitData)))
}

// ScanColumns accumulates the votes of a columnar block into t — the
// batched, zero-allocation form of the ScanTuple loop, and the only vote
// kernel the detection paths run: the key column's arena bytes feed
// Kernel.HashColumn directly (replayed from the scratch memo when
// another scanner of the same lane got there first), the fitness and
// domain walk stages the voting keys as one contiguous byte run, and a
// second HashColumn call derives their positions. Every counter and
// vote, including the order-sensitive Last column, lands exactly as
// ScanTuple over the block's rows would have it.
//
// bs may be shared across scanners (that is the point) but not across
// goroutines; nil uses a throwaway scratch.
func (s *Scanner) ScanColumns(blk *relation.Block, t *Tally, bs *BlockScratch) error {
	_, err := s.scanColumns(blk, t, bs, 0, nil, false)
	return err
}

// ScanColumnsFit is ScanColumns that also appends base+j to fit for
// every row j of blk that passes fitness, voting or not, in row order,
// and returns the extended slice. A materialized pass passes the
// block's first relation row as base, so fit collects the pass's fit
// rows: the set a Section 4.5 remap retry re-votes, because fitness
// depends on the key alone and a value rewrite never changes it.
func (s *Scanner) ScanColumnsFit(blk *relation.Block, t *Tally, bs *BlockScratch, base int, fit []int) ([]int, error) {
	return s.scanColumns(blk, t, bs, base, fit, true)
}

func (s *Scanner) scanColumns(blk *relation.Block, t *Tally, bs *BlockScratch, base int, fit []int, capture bool) ([]int, error) {
	if err := checkArity(blk, s.keyCol, s.attrCol); err != nil {
		return fit, err
	}
	if bs == nil {
		bs = &BlockScratch{}
	}
	bs.setColumnBlock(blk)
	keyData, keyOffs := blk.Col(s.keyCol).Raw()
	var hashStart time.Time
	if bs.timeHash {
		//wmlint:ignore determinism hash-phase metering only — the nanos feed trace spans, never the tally
		hashStart = time.Now()
	}
	d1 := bs.memo.LaneColumn(s.keyCol, s.k1s, s.kern1, keyData, keyOffs)
	if bs.timeHash {
		//wmlint:ignore determinism hash-phase metering only — the nanos feed trace spans, never the tally
		bs.hashNanos += int64(time.Since(hashStart))
	}

	bs.stageColumns()
	n := blk.Rows()
	t.Rows += n
	attrCol := blk.Col(s.attrCol)
	for j := 0; j < n; j++ {
		if !s.fit.Fit(d1[j]) {
			continue
		}
		t.Fit++
		if capture {
			fit = append(fit, base+j)
		}
		idx, ok := s.dom.IndexBytes(attrCol.Value(j))
		if !ok {
			t.UnknownValues++
			continue
		}
		bs.fitBits = append(bs.fitBits, uint8(idx&1))
		bs.stageKey(keyData, keyOffs, j)
	}

	d2 := bs.d2For(len(bs.fitBits))
	if bs.timeHash {
		//wmlint:ignore determinism hash-phase metering only — the nanos feed trace spans, never the tally
		hashStart = time.Now()
	}
	s.kern2.HashColumn(bs.fitData, bs.fitOffs, d2)
	if bs.timeHash {
		//wmlint:ignore determinism hash-phase metering only — the nanos feed trace spans, never the tally
		bs.hashNanos += int64(time.Since(hashStart))
	}
	bw := uint64(s.bw)
	for i, bit := range bs.fitBits {
		pos := int(d2[i].Mod(bw))
		if bit == ecc.One {
			t.Votes[pos].Ones++
		} else {
			t.Votes[pos].Zeros++
		}
		t.Last[pos] = bit
	}
	return fit, nil
}

// EmbedBlock embeds the rows of blk into r, the Embedder's relation,
// accumulating into cs. blk holds rows [lo, lo+blk.Rows()) of r, filled
// by Relation.FillBlock.
// It is the batched form of the tuple-at-a-time embedding walk: fitness
// digests of the key column in one kernel call (replayed from the
// scratch memo when another pass of the same lane got there first), the
// in-order fitness walk staging the embeddable rows' keys as one byte
// run, their position digests in a second kernel call, then the value
// rewrites applied to r in row order (quality gating, alteration
// counters and the OnAlter hook all fire in the same order as the
// sequential pass). When Options.SkipRow is set the walk stays fully
// interleaved per row instead — the ledger hook may read state that
// OnAlter or the assessor writes for earlier rows, so batching the
// ledger decisions ahead of the rewrites would change what it observes;
// only the fitness digests (pure functions of the keys) stay batched
// there.
//
// A rewrite stores the new value's resolved slot in its row, so calls
// on disjoint rows of r may overlap when Options.Assessor, SkipRow and
// OnAlter are nil; bs follows the ScanColumns sharing rules.
func (e *Embedder) EmbedBlock(blk *relation.Block, lo int, cs *ChunkStats, bs *BlockScratch) error {
	cs.Bandwidth = e.bw
	if cs.Touched == nil {
		cs.Touched = make([]bool, e.bw)
	}
	n := blk.Rows()
	if err := checkRange(e.rel, lo, lo+n); err != nil {
		return err
	}
	if err := checkArity(blk, e.keyCol, e.attrCol); err != nil {
		return err
	}
	if bs == nil {
		bs = &BlockScratch{}
	}
	cs.Tuples += n
	bs.setColumnBlock(blk)
	keyData, keyOffs := blk.Col(e.keyCol).Raw()
	d1 := bs.memo.LaneColumn(e.keyCol, e.k1s, e.kern1, keyData, keyOffs)
	bw := uint64(e.bw)

	if e.opts.SkipRow != nil {
		// Ledger-gated walk: sequential-identical hook interleaving.
		d2 := bs.d2For(1)
		for j := 0; j < n; j++ {
			if !e.fit.Fit(d1[j]) {
				continue
			}
			cs.Fit++
			if e.opts.SkipRow(lo + j) {
				cs.SkippedLedger++
				continue
			}
			bs.stageColumns()
			bs.stageKey(keyData, keyOffs, j)
			e.kern2.HashColumn(bs.fitData, bs.fitOffs, d2)
			if err := e.embedRow(lo+j, d1[j], int(d2[0].Mod(bw)), cs); err != nil {
				return err
			}
		}
		return nil
	}

	bs.stageColumns()
	for j := 0; j < n; j++ {
		if !e.fit.Fit(d1[j]) {
			continue
		}
		cs.Fit++
		bs.fitRows = append(bs.fitRows, int32(j))
		bs.stageKey(keyData, keyOffs, j)
	}

	d2 := bs.d2For(len(bs.fitRows))
	e.kern2.HashColumn(bs.fitData, bs.fitOffs, d2)
	for i, j32 := range bs.fitRows {
		j := int(j32)
		if err := e.embedRow(lo+j, d1[j], int(d2[i].Mod(bw)), cs); err != nil {
			return err
		}
	}
	return nil
}

// embedRow applies one fit, non-skipped row's rewrite: derive the value
// index from the fitness digest and the wm_data bit at pos, rewrite
// through the quality gate, count, and fire OnAlter — the shared back
// half of both EmbedBlock walks.
func (e *Embedder) embedRow(row int, d1 keyhash.Digest, pos int, cs *ChunkStats) error {
	opts := &e.opts
	bit := uint64(e.wmData[pos])
	// Value-index selection: an independent digest word drives the
	// pseudorandom pair choice so the mod-e fitness constraint on
	// word 0 cannot bias it (DESIGN.md clarification 1).
	idx := keyhash.PairIndex(d1.Uint64At(1), e.dom.Size(), bit)
	if e.rel.Holds(row, e.attrCol, e.slots[idx]) {
		cs.Unchanged++
		cs.Touched[pos] = true
		return nil
	}
	if opts.Assessor != nil {
		if aerr := opts.Assessor.Apply(e.rel, row, opts.Attr, e.dom.Value(idx)); aerr != nil {
			var verr *quality.ViolationError
			if errors.As(aerr, &verr) {
				cs.SkippedQuality++
				return nil
			}
			return aerr
		}
	} else {
		e.rel.SetSlotAt(row, e.attrCol, e.slots[idx])
	}
	cs.Altered++
	cs.Touched[pos] = true
	if opts.OnAlter != nil {
		opts.OnAlter(row)
	}
	return nil
}
