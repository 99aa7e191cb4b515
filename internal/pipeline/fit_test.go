package pipeline

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/ecc"
	"repro/internal/freq"
	"repro/internal/mark"
	"repro/internal/relation"
)

// fitOracle lists the rows of r that pass sc's fitness test, in order,
// one ScanTuple call per row: a row is fit exactly when it bumps Fit.
func fitOracle(sc *mark.Scanner, r *relation.Relation) []int {
	var rows []int
	t := sc.NewTally()
	for i := 0; i < r.Len(); i++ {
		before := t.Fit
		sc.ScanTuple(r.Tuple(i), t)
		if t.Fit > before {
			rows = append(rows, i)
		}
	}
	return rows
}

// remapForTest maps every third domain value of dom to the next value,
// and values absent from the mapping stay put: a mapping that misses
// labels, so the re-vote sees both rewritten and untouched values.
func remapForTest(dom *relation.Domain) map[string]string {
	m := make(map[string]string)
	for i := 0; i+1 < dom.Size(); i += 3 {
		m[dom.Value(i)] = dom.Value(i + 1)
	}
	return m
}

// TestDetectFitRowsAndRevote is the fit-row differential: across worker
// counts, block sizes and chunk sizes — one of them cut so that a fit
// row closes chunk 0 — DetectFit reports exactly what Detect reports,
// its rows are the ScanTuple
// oracle's fit rows in ascending order, and Revote through a mapping
// (empty, partial, and one whose images fall outside the domain)
// reports exactly what Detect reports over a clone rewritten by
// freq.ApplyMapping — on the two-column data and on its widened form.
func TestDetectFitRowsAndRevote(t *testing.T) {
	narrow, dom := testData(t, 6007)
	for name, r := range map[string]*relation.Relation{"narrow": narrow, "wide": widen(narrow)} {
		t.Run(name, func(t *testing.T) { checkDetectFitRowsAndRevote(t, r, dom) })
	}
}

func checkDetectFitRowsAndRevote(t *testing.T, r *relation.Relation, dom *relation.Domain) {
	wm := ecc.MustParseBits("1011001110")
	opts := testOptions(dom)
	sc, err := mark.NewScanner(r, len(wm), opts)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := fitOracle(sc, r)
	if len(wantRows) < 10 {
		t.Fatalf("only %d fit rows", len(wantRows))
	}
	// A chunk size that ends chunk 0 on a fit row, so the capture's
	// concatenation is checked exactly at a boundary.
	edge := wantRows[len(wantRows)/4] + 1

	unknown := map[string]string{dom.Value(0): "not-in-domain", dom.Value(1): "also-not"}
	mappings := map[string]map[string]string{
		"empty":   {},
		"partial": remapForTest(dom),
		"unknown": unknown,
	}
	for _, workers := range []int{1, 2, 4} {
		for _, blockRows := range []int{1, 7, 512} {
			for _, chunkRows := range []int{0, 1000, edge} {
				cfg := Config{Workers: workers, BlockRows: blockRows, ChunkRows: chunkRows}
				want, err := Detect(context.Background(), r, len(wm), opts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, fit, err := DetectFit(context.Background(), r, len(wm), opts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v: DetectFit report %+v, Detect %+v", cfg, got, want)
				}
				if !reflect.DeepEqual(*fit.rows, wantRows) {
					t.Fatalf("%+v: %d fit rows captured, oracle has %d (or order differs)", cfg, len(*fit.rows), len(wantRows))
				}
				for name, m := range mappings {
					mapped := r.Clone()
					if _, err := freq.ApplyMapping(mapped, opts.Attr, m); err != nil {
						t.Fatal(err)
					}
					want, err := Detect(context.Background(), mapped, len(wm), opts, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := fit.Revote(context.Background(), m)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%+v mapping %s: Revote %+v, rescan %+v", cfg, name, got, want)
					}
				}
				fit.Release()
			}
		}
	}
}

// TestRevoteKeepsBandwidth: the re-vote reuses the first pass's scanner,
// so a pass sized from the relation (no BandwidthOverride) re-votes at
// that bandwidth, and a LastWriteWins pass keeps its row order.
func TestRevoteKeepsBandwidth(t *testing.T) {
	r, dom := testData(t, 4000)
	opts := testOptions(dom)
	opts.Aggregation = mark.LastWriteWins
	wm := ecc.MustParseBits("1011")
	_, fit, err := DetectFit(context.Background(), r, len(wm), opts, Config{Workers: 2, ChunkRows: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer fit.Release()
	m := remapForTest(dom)
	got, err := fit.Revote(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	mapped := r.Clone()
	if _, err := freq.ApplyMapping(mapped, opts.Attr, m); err != nil {
		t.Fatal(err)
	}
	want := tupleOracleReport(t, mapped, len(wm), opts)
	if got.Bandwidth != mark.Bandwidth(r.Len(), opts.E) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Revote %+v, ScanTuple oracle over the mapped copy %+v", got, want)
	}
}

// TestRevoteCancelled: a context cancelled before or during the re-vote
// fails it with ctx.Err(); a released FitPass refuses to re-vote.
func TestRevoteCancelled(t *testing.T) {
	r, dom := testData(t, 20000)
	opts := testOptions(dom)
	wm := ecc.MustParseBits("1011")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ticks int
	cfg := Config{Workers: 1, BlockRows: 16, Progress: func(n int) {
		ticks += n
		if ticks > r.Len() { // the first block of the re-vote
			cancel()
		}
	}}
	_, fit, err := DetectFit(ctx, r, len(wm), opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(*fit.rows) <= 16 {
		t.Fatalf("%d fit rows: the re-vote needs more than one block", len(*fit.rows))
	}
	if _, err := fit.Revote(ctx, remapForTest(dom)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Revote cancelled mid-pass: err = %v, want context.Canceled", err)
	}
	if _, err := fit.Revote(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Revote under a cancelled ctx: err = %v, want context.Canceled", err)
	}
	fit.Release()
	fit.Release() // idempotent
	if _, err := fit.Revote(context.Background(), nil); !errors.Is(err, errReleased) {
		t.Fatalf("Revote after Release: err = %v, want errReleased", err)
	}
}

// TestDetectFitCancelledReturnsBuffers: a cancelled DetectFit returns
// no FitPass, and its part group goes back like Detect's.
func TestDetectFitCancelledReturnsBuffers(t *testing.T) {
	before := groupsOut.Load()
	r, dom := testData(t, 20000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Workers: 2, ChunkRows: 1024, BlockRows: 256, Progress: func(int) { cancel() }}
	_, fit, err := DetectFit(ctx, r, 10, testOptions(dom), cfg)
	if !errors.Is(err, context.Canceled) || fit != nil {
		t.Fatalf("DetectFit: fit %v, err = %v, want nil and context.Canceled", fit, err)
	}
	if out := groupsOut.Load(); out != before {
		t.Fatalf("cancelled DetectFit kept %d part groups", out-before)
	}
}
