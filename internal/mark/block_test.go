package mark

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/relation"
)

// blockTestRelation builds a relation with a mix of in-domain, unknown
// and repeated categorical values so every ScanColumns branch (vote,
// unknown value, unfit) is exercised.
func blockTestRelation(t testing.TB, n int, seed int64) *relation.Relation {
	t.Helper()
	schema := relation.MustSchema([]relation.Attribute{
		{Name: "id", Type: relation.TypeString},
		{Name: "cat", Type: relation.TypeString, Categorical: true},
	}, "id")
	r := relation.New(schema)
	rng := rand.New(rand.NewSource(seed))
	values := []string{"a", "b", "c", "d", "e", "f", "zz-unknown"}
	for i := 0; i < n; i++ {
		id := strconv.FormatInt(seed, 10) + "-" + strconv.Itoa(rng.Intn(1<<30)) + "-" + strconv.Itoa(i)
		r.MustAppend(relation.Tuple{id, values[rng.Intn(len(values))]})
	}
	return r
}

// wideBlockTestRelation is blockTestRelation widened to arity 4 with
// the attribute before the key and a column between them: note, cat,
// pad, id (the key). A pass that reads a column other than the key and
// the attribute, or reads them at the wrong positions, diverges on it.
func wideBlockTestRelation(t testing.TB, n int, seed int64) *relation.Relation {
	t.Helper()
	narrow := blockTestRelation(t, n, seed)
	r := relation.New(relation.MustSchema([]relation.Attribute{
		{Name: "note", Type: relation.TypeString},
		{Name: "cat", Type: relation.TypeString, Categorical: true},
		{Name: "pad", Type: relation.TypeString},
		{Name: "id", Type: relation.TypeString},
	}, "id"))
	for i := 0; i < narrow.Len(); i++ {
		tup := narrow.Tuple(i)
		r.MustAppend(relation.Tuple{"note-" + strconv.Itoa(i), tup[1], "a", tup[0]})
	}
	return r
}

// testRelations are the two shapes the kernel equivalence tests run
// over: the key beside the attribute, and wideBlockTestRelation.
var testRelations = []struct {
	name  string
	build func(testing.TB, int, int64) *relation.Relation
}{
	{"narrow", blockTestRelation},
	{"wide", wideBlockTestRelation},
}

// blockTestDomain is the scan-side catalog; "zz-unknown" stays outside
// it so some fit tuples cast no vote.
func blockTestDomain(t testing.TB) *relation.Domain {
	t.Helper()
	dom, err := relation.NewDomain([]string{"a", "b", "c", "d", "e", "f"})
	if err != nil {
		t.Fatal(err)
	}
	return dom
}

// randomPartition splits [0, n) into contiguous ranges of random sizes,
// always including some size-1 blocks and a ragged tail.
func randomPartition(rng *rand.Rand, n int) [][2]int {
	var parts [][2]int
	lo := 0
	for lo < n {
		var size int
		switch rng.Intn(4) {
		case 0:
			size = 1
		case 1:
			size = 1 + rng.Intn(7)
		default:
			size = 1 + rng.Intn(200)
		}
		hi := min(lo+size, n)
		parts = append(parts, [2]int{lo, hi})
		lo = hi
	}
	return parts
}

// tupleLoopTally is the reference tally: the ScanTuple loop over rows
// [lo, hi) of r. Every block-at-a-time scan is compared against it.
func tupleLoopTally(sc *Scanner, r *relation.Relation, lo, hi int) *Tally {
	t := sc.NewTally()
	for j := lo; j < hi; j++ {
		sc.ScanTuple(r.Tuple(j), t)
	}
	return t
}

// TestScanBlockMatchesScanTuple is the block-walk equivalence property
// for materialized relations: for random relations cut into random row
// ranges (size 1, ragged tails and ranges spanning several
// DefaultBlockRows blocks), Scanner.Scan — FillBlock into a pooled
// block, then ScanColumns — accumulates exactly the tally, and
// therefore exactly the report under both vote aggregations, that the
// ScanTuple loop produces.
func TestScanBlockMatchesScanTuple(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		n := 1 + rng.Intn(3000)
		shape := testRelations[trial%len(testRelations)]
		r := shape.build(t, n, int64(trial))
		for _, agg := range []VoteAggregation{MajorityVote, LastWriteWins} {
			for _, kind := range []keyhash.KernelKind{keyhash.KernelAuto, keyhash.KernelPortable} {
				opts := Options{
					Attr: "cat", K1: keyhash.NewKey("bk-k1"), K2: keyhash.NewKey("bk-k2"),
					E: 3, Aggregation: agg, Domain: blockTestDomain(t),
					BandwidthOverride: 40, HashKernel: kind,
				}
				sc, err := NewScanner(r, 10, opts)
				if err != nil {
					t.Fatal(err)
				}

				want := tupleLoopTally(sc, r, 0, r.Len())
				got := sc.NewTally()
				for lo := 0; lo < r.Len(); {
					hi := min(lo+1+rng.Intn(3*DefaultBlockRows), r.Len())
					if rng.Intn(3) == 0 {
						hi = min(lo+1+rng.Intn(8), r.Len())
					}
					if err := sc.Scan(r, lo, hi, DefaultBlockRows, got, nil, nil, nil); err != nil {
						t.Fatal(err)
					}
					lo = hi
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("trial %d (%s) agg %v kernel %q: Scan tally diverged from ScanTuple loop", trial, shape.name, agg, kind)
				}

				wantRep, err1 := sc.Report(want)
				gotRep, err2 := sc.Report(got)
				if (err1 == nil) != (err2 == nil) || !reflect.DeepEqual(wantRep, gotRep) {
					t.Fatalf("trial %d agg %v kernel %q: report diverged", trial, agg, kind)
				}
			}
		}
	}
}

// TestScanBlockSizeOneIsScanTuple pins the degenerate block: a size-1
// block filled from a relation and voted through ScanColumns is exactly
// one ScanTuple call.
func TestScanBlockSizeOneIsScanTuple(t *testing.T) {
	r := blockTestRelation(t, 200, 7)
	opts := Options{
		Attr: "cat", K1: keyhash.NewKey("bk1-k1"), K2: keyhash.NewKey("bk1-k2"),
		E: 2, Domain: blockTestDomain(t), BandwidthOverride: 16,
	}
	sc, err := NewScanner(r, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, got := sc.NewTally(), sc.NewTally()
	var bs BlockScratch
	blk := relation.GetBlock(r.Schema())
	defer relation.PutBlock(blk)
	for j := 0; j < r.Len(); j++ {
		sc.ScanTuple(r.Tuple(j), want)
		r.FillBlock(blk, j, j+1)
		if err := sc.ScanColumns(blk, got, &bs); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("row %d: size-1 block diverged from ScanTuple", j)
		}
	}
}

// TestScanBlockSharedScratchAcrossScanners proves scratch sharing is
// sound when the block pointer changes as well as its generation: many
// scanners — some sharing a fitness key (same memo lane), some not —
// sweeping blocks drawn alternately from two pooled blocks through ONE
// scratch produce the same tallies as each scanner's ScanTuple loop.
func TestScanBlockSharedScratchAcrossScanners(t *testing.T) {
	r := blockTestRelation(t, 1500, 11)
	dom := blockTestDomain(t)
	newOpts := func(k1, k2 string) Options {
		return Options{
			Attr: "cat", K1: keyhash.NewKey(k1), K2: keyhash.NewKey(k2),
			E: 3, Domain: dom, BandwidthOverride: 32,
		}
	}
	optsList := []Options{
		newOpts("owner-a", "owner-a2"),
		newOpts("owner-a", "other-k2"), // shares the k1 memo lane with the first
		newOpts("owner-b", "owner-b2"),
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
	blks := [2]*relation.Block{relation.GetBlock(r.Schema()), relation.GetBlock(r.Schema())}
	defer relation.PutBlock(blks[0])
	defer relation.PutBlock(blks[1])
	rng := rand.New(rand.NewSource(12))
	for _, p := range randomPartition(rng, r.Len()) {
		blk := blks[rng.Intn(2)]
		r.FillBlock(blk, p[0], p[1])
		for i, sc := range scanners {
			if err := sc.ScanColumns(blk, got[i], &bs); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, sc := range scanners {
		if !reflect.DeepEqual(tupleLoopTally(sc, r, 0, r.Len()), got[i]) {
			t.Fatalf("scanner %d: shared-scratch tally diverged from the ScanTuple loop", i)
		}
	}
}

// embedRows fills blk with rows [lo, hi) of r and embeds them through
// EmbedBlock, the way EmbedRange and the pipeline drive it.
func embedRows(t *testing.T, em *Embedder, r *relation.Relation, blk *relation.Block, lo, hi int, cs *ChunkStats, bs *BlockScratch) {
	t.Helper()
	r.FillBlock(blk, lo, hi)
	if err := em.EmbedBlock(blk, lo, cs, bs); err != nil {
		t.Fatal(err)
	}
}

// TestEmbedBlockMatchesSizeOne is the embedding-side property: embedding
// through random block partitions yields the same relation bytes and the
// same merged statistics as the block-size-1 walk (the tuple-at-a-time
// special case), for both plain and ledger-gated embeddings.
func TestEmbedBlockMatchesSizeOne(t *testing.T) {
	wm := ecc.MustParseBits("1011001110")
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		n := 50 + rng.Intn(2500)
		base := blockTestRelation(t, n, int64(40+trial))
		skip := func(row int) bool { return row%7 == 3 }
		for _, withLedger := range []bool{false, true} {
			opts := Options{
				Attr: "cat", K1: keyhash.NewKey("eb-k1"), K2: keyhash.NewKey("eb-k2"),
				E: 3, Domain: blockTestDomain(t), BandwidthOverride: 30,
			}
			if withLedger {
				opts.SkipRow = skip
			}

			// Oracle: block-size-1 walk.
			r1 := base.Clone()
			em1, err := NewEmbedder(r1, wm, opts)
			if err != nil {
				t.Fatal(err)
			}
			var cs1 ChunkStats
			var bs1 BlockScratch
			blk := relation.NewBlock(base.Schema())
			for j := 0; j < r1.Len(); j++ {
				embedRows(t, em1, r1, blk, j, j+1, &cs1, &bs1)
			}

			// Random partition through a shared scratch.
			r2 := base.Clone()
			em2, err := NewEmbedder(r2, wm, opts)
			if err != nil {
				t.Fatal(err)
			}
			var cs2 ChunkStats
			var bs2 BlockScratch
			for _, p := range randomPartition(rng, r2.Len()) {
				embedRows(t, em2, r2, blk, p[0], p[1], &cs2, &bs2)
			}

			if !r1.Equal(r2) {
				t.Fatalf("trial %d ledger=%v: block embedding altered different tuples", trial, withLedger)
			}
			if !reflect.DeepEqual(MergeChunks(cs1), MergeChunks(cs2)) {
				t.Fatalf("trial %d ledger=%v: stats diverged:\n one-row %+v\n blocks  %+v",
					trial, withLedger, MergeChunks(cs1), MergeChunks(cs2))
			}
		}
	}
}

// TestEmbedBlockOrderDependentLedger pins the hook-interleaving
// contract: a SkipRow that reads state OnAlter writes (here, an
// alteration budget that closes mid-pass) must observe exactly the
// sequential interleaving — SkipRow(j) after every earlier row's
// OnAlter — no matter how the rows are blocked.
func TestEmbedBlockOrderDependentLedger(t *testing.T) {
	wm := ecc.MustParseBits("1011001110")
	base := blockTestRelation(t, 2000, 21)
	embed := func(partitionSeed int64) (*relation.Relation, ChunkStats) {
		altered := 0
		opts := Options{
			Attr: "cat", K1: keyhash.NewKey("ol-k1"), K2: keyhash.NewKey("ol-k2"),
			E: 3, Domain: blockTestDomain(t), BandwidthOverride: 30,
			SkipRow: func(int) bool { return altered >= 25 }, // budget ledger
			OnAlter: func(int) { altered++ },
		}
		r := base.Clone()
		em, err := NewEmbedder(r, wm, opts)
		if err != nil {
			t.Fatal(err)
		}
		var cs ChunkStats
		var bs BlockScratch
		blk := relation.NewBlock(r.Schema())
		if partitionSeed < 0 { // the size-1 oracle
			for j := 0; j < r.Len(); j++ {
				embedRows(t, em, r, blk, j, j+1, &cs, &bs)
			}
			return r, cs
		}
		for _, p := range randomPartition(rand.New(rand.NewSource(partitionSeed)), r.Len()) {
			embedRows(t, em, r, blk, p[0], p[1], &cs, &bs)
		}
		return r, cs
	}

	wantRel, wantStats := embed(-1)
	if wantStats.SkippedLedger == 0 || wantStats.Altered != 25 {
		t.Fatalf("ledger never closed — test is vacuous: %+v", wantStats)
	}
	for seed := int64(0); seed < 4; seed++ {
		gotRel, gotStats := embed(seed)
		if !gotRel.Equal(wantRel) {
			t.Fatalf("seed %d: blocked embedding diverged from sequential under order-dependent ledger", seed)
		}
		if !reflect.DeepEqual(MergeChunks(gotStats), MergeChunks(wantStats)) {
			t.Fatalf("seed %d: stats diverged: %+v vs %+v", seed, MergeChunks(gotStats), MergeChunks(wantStats))
		}
	}
}

// FuzzScanColumnsEquivalence lets the fuzzer pick the relation size,
// seed, fitness parameter and block partition seed, and re-checks that
// ScanColumns over relation-filled blocks (one scratch, one pooled block
// refilled per range) tallies exactly like the ScanTuple loop.
func FuzzScanColumnsEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(500), uint8(3), int64(2))
	f.Add(int64(9), uint16(1), uint8(1), int64(4))
	f.Add(int64(17), uint16(1024), uint8(60), int64(8))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, e uint8, partSeed int64) {
		if n == 0 || e == 0 {
			t.Skip()
		}
		r := blockTestRelation(t, int(n), seed)
		opts := Options{
			Attr: "cat", K1: keyhash.NewKey("fz-k1"), K2: keyhash.NewKey("fz-k2"),
			E: uint64(e), Domain: blockTestDomain(t), BandwidthOverride: 24,
		}
		sc, err := NewScanner(r, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := sc.NewTally()
		var bs BlockScratch
		blk := relation.GetBlock(r.Schema())
		defer relation.PutBlock(blk)
		for _, p := range randomPartition(rand.New(rand.NewSource(partSeed)), r.Len()) {
			r.FillBlock(blk, p[0], p[1])
			if err := sc.ScanColumns(blk, got, &bs); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(tupleLoopTally(sc, r, 0, r.Len()), got) {
			t.Fatalf("n=%d e=%d: ScanColumns diverged from ScanTuple loop", n, e)
		}
	})
}

// BenchmarkScanColumns compares the tuple-at-a-time reference kernel
// (ScanTuple) against the ScanColumns block kernel across block sizes:
// over pre-filled blocks (the streaming engine's steady state, zero
// allocations once the tally exists), and with the FillBlock copy the
// materialized paths pay per block (Scanner.Scan). The CI bench job
// tracks it.
func BenchmarkScanColumns(b *testing.B) {
	r := blockTestRelation(b, 100000, 1)
	opts := Options{
		Attr: "cat", K1: keyhash.NewKey("bench-k1"), K2: keyhash.NewKey("bench-k2"),
		E: 65, Domain: blockTestDomain(b), BandwidthOverride: 1500,
	}
	sc, err := NewScanner(r, 10, opts)
	if err != nil {
		b.Fatal(err)
	}
	n := r.Len()
	b.Run("tuple-loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tupleLoopTally(sc, r, 0, n)
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
	})
	for _, block := range []int{64, 512, 4096} {
		var blks []*relation.Block
		for lo := 0; lo < n; lo += block {
			blk := relation.NewBlock(r.Schema())
			r.FillBlock(blk, lo, min(lo+block, n))
			blks = append(blks, blk)
		}
		b.Run(fmt.Sprintf("columns=%d", block), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tally := sc.NewTally()
				var bs BlockScratch
				for _, blk := range blks {
					if err := sc.ScanColumns(blk, tally, &bs); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
	b.Run(fmt.Sprintf("fill+columns=%d", DefaultBlockRows), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := sc.Scan(r, 0, n, DefaultBlockRows, sc.NewTally(), nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
	})
}

// TestEmbedBlockAllocsIndependentOfRows: EmbedBlock compares each fit
// row's value in place (Relation.At) before rewriting it, so embedding
// a materialized relation again — every value already in place, none
// rewritten — allocates no more at 36k rows than at 9k. Skipped under
// -race, like the pool-backed allocation tests.
func TestEmbedBlockAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	wm := ecc.MustParseBits("1011001110")
	allocs := make(map[int]float64)
	for _, n := range []int{9000, 36000} {
		r := blockTestRelation(t, n, 7)
		opts := Options{
			Attr: "cat", K1: keyhash.NewKey("alloc-k1"), K2: keyhash.NewKey("alloc-k2"),
			E: 3, Domain: blockTestDomain(t),
		}
		em, err := NewEmbedder(r, wm, opts)
		if err != nil {
			t.Fatal(err)
		}
		blk := relation.NewBlock(r.Schema())
		var bs BlockScratch
		var cs ChunkStats
		pass := func() {
			for lo := 0; lo < r.Len(); lo += DefaultBlockRows {
				r.FillBlock(blk, lo, min(lo+DefaultBlockRows, r.Len()), em.keyCol)
				if err := em.EmbedBlock(blk, lo, &cs, &bs); err != nil {
					t.Fatal(err)
				}
			}
		}
		pass() // rewrite the values once; later passes find them in place
		cs = ChunkStats{}
		pass()
		if cs.Altered != 0 || cs.Unchanged == 0 {
			t.Fatalf("n=%d: second pass altered %d, left %d unchanged", n, cs.Altered, cs.Unchanged)
		}
		allocs[n] = testing.AllocsPerRun(5, pass)
	}
	t.Logf("EmbedBlock: %.0f allocs at 9k rows, %.0f at 36k", allocs[9000], allocs[36000])
	if allocs[36000] > allocs[9000] {
		t.Fatalf("EmbedBlock allocations grow with the row count: %.0f at 9k rows, %.0f at 36k", allocs[9000], allocs[36000])
	}
}
