package pipeline

import (
	"context"
	"errors"
	"sync"

	"repro/internal/mark"
	"repro/internal/relation"
)

// Fit-row retry: fitness is H(T(K);k1) mod e == 0, a function of the
// tuple key alone (Section 3.2.1), so a Section 4.5 bijective remap
// changes the values of the fit tuples but never which tuples are fit.
// A materialized detection pass can therefore keep its fit rows — about
// N/e of them — and a remap retry re-votes only those rows with their
// values rewritten, instead of rewriting a clone of the suspect and
// rescanning it in full.

// FitPass is what DetectFit keeps of a materialized detection pass for
// a later re-vote: the pass's scanner, the relation it scanned and the
// rows that passed fitness, in ascending row order. Release hands its
// buffer back to the pool; a FitPass is not safe for concurrent use.
type FitPass struct {
	sc   *mark.Scanner
	r    *relation.Relation
	rows *[]int
	cfg  Config
}

// rowsPool recycles fit-row buffers across passes (*[]int, so a put
// does not allocate).
var rowsPool = sync.Pool{New: func() any { return new([]int) }}

func getRows() *[]int {
	rows := rowsPool.Get().(*[]int)
	*rows = (*rows)[:0]
	return rows
}

func putRows(rows *[]int) { rowsPool.Put(rows) }

// DetectFit is Detect that also returns the pass's FitPass, at any
// worker count. The report is Detect's; the caller must Release the
// FitPass.
func DetectFit(ctx context.Context, r *relation.Relation, wmLen int, opts mark.Options, cfg Config) (mark.DetectReport, *FitPass, error) {
	return detect(ctx, r, wmLen, opts, cfg, true)
}

// errReleased reports a re-vote of a released FitPass.
var errReleased = errors.New("pipeline: FitPass used after Release")

// Revote re-votes the fit rows through the pass's scanner — so at the
// pass's bandwidth — with the watermarked attribute rewritten through
// mapping; values absent from mapping stay as they are, as in
// freq.ApplyMapping. The report equals Detect over a copy of the
// relation with every value rewritten at once: the votes land in the
// same row order, and the tally's row count is the relation's length,
// not the number of rows re-voted. The relation is never modified. A
// cancelled ctx stops the re-vote between blocks and returns ctx.Err().
func (f *FitPass) Revote(ctx context.Context, mapping map[string]string) (mark.DetectReport, error) {
	if f.rows == nil {
		return mark.DetectReport{}, errReleased
	}
	if err := ctx.Err(); err != nil {
		return mark.DetectReport{}, err
	}
	schema := f.r.Schema()
	t := f.sc.NewTally()
	bs := getScratch()
	defer putScratch(bs)
	blk := relation.GetBlock(schema)
	defer relation.PutBlock(blk)
	// The block carries only the two columns ScanColumns reads.
	keyCol, attrCol := f.sc.Columns()
	tup := make(relation.Tuple, schema.Arity())
	rows, br := *f.rows, f.cfg.blockRows()
	for lo := 0; lo < len(rows); lo += br {
		if err := ctx.Err(); err != nil {
			return mark.DetectReport{}, err
		}
		hi := min(lo+br, len(rows))
		blk.Reset(schema)
		for _, row := range rows[lo:hi] {
			tup[keyCol], tup[attrCol] = f.r.At(row, keyCol), f.r.At(row, attrCol)
			if v, ok := mapping[tup[attrCol]]; ok {
				tup[attrCol] = v
			}
			if err := blk.AppendTuple(tup, keyCol, attrCol); err != nil {
				return mark.DetectReport{}, err
			}
		}
		if err := f.sc.ScanColumns(blk, t, bs); err != nil {
			return mark.DetectReport{}, err
		}
		f.cfg.report(hi - lo)
	}
	t.Rows = f.r.Len()
	return f.sc.Report(t)
}

// Release hands the fit-row buffer back to the pool and drops the
// pass's references. Calling it again is a no-op.
func (f *FitPass) Release() {
	if f == nil || f.rows == nil {
		return
	}
	putRows(f.rows)
	f.rows, f.r, f.sc = nil, nil, nil
}
