package mark

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/relation"
)

// TestScanColumnsMatchesScanTuple is the kernel-level equivalence
// property: for random relations — the key beside the attribute, and
// at arity 4 with them apart — cut into random blocks (size-1 blocks
// and ragged tails included) and filled into one pooled block, by turns
// in full and with only the scanner's two columns, the ScanColumns
// sweep through one scratch accumulates exactly the tally — and exactly
// the report, under both vote aggregations and both hash backends —
// that the ScanTuple loop produces.
func TestScanColumnsMatchesScanTuple(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(700 + trial)))
		n := 1 + rng.Intn(3000)
		shape := testRelations[trial%len(testRelations)]
		r := shape.build(t, n, int64(50+trial))
		for _, agg := range []VoteAggregation{MajorityVote, LastWriteWins} {
			for _, kind := range []keyhash.KernelKind{keyhash.KernelAuto, keyhash.KernelPortable} {
				opts := Options{
					Attr: "cat", K1: keyhash.NewKey("col-k1"), K2: keyhash.NewKey("col-k2"),
					E: 3, Aggregation: agg, Domain: blockTestDomain(t),
					BandwidthOverride: 40, HashKernel: kind,
				}
				sc, err := NewScanner(r, 10, opts)
				if err != nil {
					t.Fatal(err)
				}

				want := tupleLoopTally(sc, r, 0, r.Len())
				got := sc.NewTally()
				var bs BlockScratch
				blk := relation.GetBlock(r.Schema())
				key, attr := sc.Columns()
				for i, p := range randomPartition(rng, r.Len()) {
					if i%2 == 0 {
						r.FillBlock(blk, p[0], p[1])
					} else {
						r.FillBlock(blk, p[0], p[1], key, attr)
					}
					if err := sc.ScanColumns(blk, got, &bs); err != nil {
						t.Fatal(err)
					}
				}
				relation.PutBlock(blk)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("trial %d (%s) agg %v kernel %q: ScanColumns tally diverged from ScanTuple loop", trial, shape.name, agg, kind)
				}

				wantRep, err1 := sc.Report(want)
				gotRep, err2 := sc.Report(got)
				if (err1 == nil) != (err2 == nil) || !reflect.DeepEqual(wantRep, gotRep) {
					t.Fatalf("trial %d (%s) agg %v kernel %q: report diverged", trial, shape.name, agg, kind)
				}
			}
		}
	}
}

// TestScanColumnsInterleavedWithEmbedBlock alternates the scan and the
// embedding walk, each over its own block, through ONE scratch, with
// the embedder on the scanner's fitness key (the same memo lane) —
// proving the identity tracking invalidates across blocks instead of
// replaying digests of another block's keys.
func TestScanColumnsInterleavedWithEmbedBlock(t *testing.T) {
	r := blockTestRelation(t, 2000, 31)
	opts := Options{
		Attr: "cat", K1: keyhash.NewKey("mix-k1"), K2: keyhash.NewKey("mix-k2"),
		E: 3, Domain: blockTestDomain(t), BandwidthOverride: 32,
	}
	sc, err := NewScanner(r, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	marked := r.Clone() // the embedder rewrites this copy, never r
	em, err := NewEmbedder(marked, ecc.MustParseBits("10110011"), opts)
	if err != nil {
		t.Fatal(err)
	}

	got := sc.NewTally()
	var cs ChunkStats
	var bs BlockScratch
	blk := relation.GetBlock(r.Schema())
	defer relation.PutBlock(blk)
	eblk := relation.GetBlock(r.Schema())
	defer relation.PutBlock(eblk)
	rng := rand.New(rand.NewSource(33))
	parts := randomPartition(rng, r.Len())
	for i, p := range parts {
		// Embed the NEXT range first, so the scratch memo holds another
		// block's digests on the scan's lane when ScanColumns runs.
		if i+1 < len(parts) {
			q := parts[i+1]
			embedRows(t, em, marked, eblk, q[0], q[1], &cs, &bs)
		}
		r.FillBlock(blk, p[0], p[1])
		if err := sc.ScanColumns(blk, got, &bs); err != nil {
			t.Fatal(err)
		}
	}
	if cs.Fit == 0 {
		t.Fatal("embedder never touched the scratch lane — test is vacuous")
	}
	if !reflect.DeepEqual(tupleLoopTally(sc, r, 0, r.Len()), got) {
		t.Fatal("ScanColumns interleaved with EmbedBlock diverged from the ScanTuple loop")
	}
}

// TestScanColumnsSharedScratchAcrossScanners proves lane sharing holds
// on the columnar path too: scanners sharing a fitness key replay each
// other's HashColumn digests through one scratch, and a block refilled
// in place (same pointer, bumped generation) is re-hashed, not replayed.
func TestScanColumnsSharedScratchAcrossScanners(t *testing.T) {
	r := blockTestRelation(t, 1500, 13)
	dom := blockTestDomain(t)
	newOpts := func(k1, k2 string) Options {
		return Options{
			Attr: "cat", K1: keyhash.NewKey(k1), K2: keyhash.NewKey(k2),
			E: 3, Domain: dom, BandwidthOverride: 32,
		}
	}
	optsList := []Options{
		newOpts("colowner-a", "colowner-a2"),
		newOpts("colowner-a", "colother-k2"), // shares the k1 memo lane with the first
		newOpts("colowner-b", "colowner-b2"),
	}
	scanners := make([]*Scanner, len(optsList))
	for i, o := range optsList {
		sc, err := NewScanner(r, 8, o)
		if err != nil {
			t.Fatal(err)
		}
		scanners[i] = sc
	}

	got := make([]*Tally, len(scanners))
	for i, sc := range scanners {
		got[i] = sc.NewTally()
	}
	var bs BlockScratch
	blk := relation.GetBlock(r.Schema()) // one block, refilled per partition
	rng := rand.New(rand.NewSource(14))
	for _, p := range randomPartition(rng, r.Len()) {
		r.FillBlock(blk, p[0], p[1])
		for i, sc := range scanners {
			if err := sc.ScanColumns(blk, got[i], &bs); err != nil {
				t.Fatal(err)
			}
		}
	}
	relation.PutBlock(blk)
	for i, sc := range scanners {
		if !reflect.DeepEqual(tupleLoopTally(sc, r, 0, r.Len()), got[i]) {
			t.Fatalf("scanner %d: shared-scratch columnar tally diverged from the ScanTuple loop", i)
		}
	}
}

// TestScanColumnsSteadyStateAllocs pins the tentpole invariant at the
// codec layer: once the scratch is warm, scanning pooled columnar
// blocks performs zero allocations per block, and therefore per row.
func TestScanColumnsSteadyStateAllocs(t *testing.T) {
	r := blockTestRelation(t, 1024, 17)
	opts := Options{
		Attr: "cat", K1: keyhash.NewKey("al-k1"), K2: keyhash.NewKey("al-k2"),
		E: 2, Domain: blockTestDomain(t), BandwidthOverride: 32,
	}
	sc, err := NewScanner(r, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Two distinct blocks so every scan re-keys the memo (pointer or
	// generation changes) instead of replaying the previous call.
	blkA := relation.GetBlock(r.Schema())
	blkB := relation.GetBlock(r.Schema())
	r.FillBlock(blkA, 0, 512)
	r.FillBlock(blkB, 512, 1024)
	tally := sc.NewTally()
	var bs BlockScratch
	scanBoth := func() {
		if err := sc.ScanColumns(blkA, tally, &bs); err != nil {
			t.Fatal(err)
		}
		if err := sc.ScanColumns(blkB, tally, &bs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // warm the scratch, memo lanes and staging
		scanBoth()
	}
	if allocs := testing.AllocsPerRun(50, scanBoth); allocs != 0 {
		t.Fatalf("steady-state ScanColumns allocates: %.1f allocs per 2-block scan", allocs)
	}
	relation.PutBlock(blkA)
	relation.PutBlock(blkB)
}

// TestScanColumnsArityGuard pins the error for a block missing the
// scanner's or the embedder's columns.
func TestScanColumnsArityGuard(t *testing.T) {
	r := blockTestRelation(t, 10, 3)
	opts := Options{
		Attr: "cat", K1: keyhash.NewKey("ag-k1"), K2: keyhash.NewKey("ag-k2"),
		E: 2, Domain: blockTestDomain(t), BandwidthOverride: 16,
	}
	sc, err := NewScanner(r, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	narrow := relation.MustSchema([]relation.Attribute{
		{Name: "id", Type: relation.TypeString},
	}, "id")
	blk := relation.GetBlock(narrow)
	if err := sc.ScanColumns(blk, sc.NewTally(), nil); err == nil {
		t.Fatal("expected arity error for a block lacking the attribute column")
	}
	em, err := NewEmbedder(r, ecc.MustParseBits("1011"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := em.EmbedBlock(blk, 0, &ChunkStats{}, nil); err == nil {
		t.Fatal("EmbedBlock: expected arity error for a block lacking the attribute column")
	}
	relation.PutBlock(blk)
}
