package mark

import (
	"reflect"
	"testing"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/relation"
)

// TestScanColumnsFitCapturesFitRows: ScanColumnsFit tallies exactly what
// ScanColumns tallies and appends base+j for every fit row j, voting or
// not (the relation carries values outside the domain), in row order.
func TestScanColumnsFitCapturesFitRows(t *testing.T) {
	r := blockTestRelation(t, 1500, 3)
	opts := Options{
		Attr: "cat", K1: keyhash.NewKey("fit-k1"), K2: keyhash.NewKey("fit-k2"),
		E: 4, Domain: blockTestDomain(t), BandwidthOverride: 40,
	}
	sc, err := NewScanner(r, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wantRows []int
	oracle := sc.NewTally()
	for i := 0; i < r.Len(); i++ {
		fit := oracle.Fit
		sc.ScanTuple(r.Tuple(i), oracle)
		if oracle.Fit > fit {
			wantRows = append(wantRows, i)
		}
	}
	got := sc.NewTally()
	var bs BlockScratch
	blk := relation.NewBlock(r.Schema())
	var rows []int
	for lo := 0; lo < r.Len(); lo += 97 {
		hi := min(lo+97, r.Len())
		r.FillBlock(blk, lo, hi)
		if rows, err = sc.ScanColumnsFit(blk, got, &bs, lo, rows); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, oracle) {
		t.Fatal("ScanColumnsFit tally diverged from the ScanTuple loop")
	}
	if oracle.UnknownValues == 0 || !reflect.DeepEqual(rows, wantRows) {
		t.Fatalf("captured %d fit rows, oracle %d (unknown values %d)", len(rows), len(wantRows), oracle.UnknownValues)
	}
}

// TestBlockScratchReleasePinsNothing: after EmbedBlock and ScanColumns
// have filled a scratch, Release leaves no block identity or memo lane
// behind and switches hash timing off, and the released scratch still
// scans exactly like a fresh one.
func TestBlockScratchReleasePinsNothing(t *testing.T) {
	r := blockTestRelation(t, 600, 5)
	opts := Options{
		Attr: "cat", K1: keyhash.NewKey("rel-k1"), K2: keyhash.NewKey("rel-k2"),
		E: 3, Domain: blockTestDomain(t),
	}
	em, err := NewEmbedder(r, ecc.MustParseBits("1011"), opts)
	if err != nil {
		t.Fatal(err)
	}
	var bs BlockScratch
	bs.EnableHashTiming()
	var cs ChunkStats
	blk := relation.NewBlock(r.Schema())
	for lo := 0; lo < r.Len(); lo += 128 {
		embedRows(t, em, r, blk, lo, min(lo+128, r.Len()), &cs, &bs)
	}
	sc, err := NewScanner(r, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.FillBlock(blk, 0, 200)
	if err := sc.ScanColumns(blk, sc.NewTally(), &bs); err != nil {
		t.Fatal(err)
	}

	bs.Release()
	if bs.blk != nil || bs.blkGen != 0 || bs.timeHash || bs.hashNanos != 0 {
		t.Fatalf("Release kept block state: blk %v gen %d timing %v nanos %d", bs.blk != nil, bs.blkGen, bs.timeHash, bs.hashNanos)
	}
	if n := reflect.ValueOf(&bs.memo).Elem().FieldByName("lanes").Len(); n != 0 {
		t.Fatalf("Release kept %d memo lanes", n)
	}

	fresh, reused := sc.NewTally(), sc.NewTally()
	if err := sc.ScanColumns(blk, fresh, nil); err != nil {
		t.Fatal(err)
	}
	if err := sc.ScanColumns(blk, reused, &bs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatal("a released scratch scans differently from a fresh one")
	}
}
