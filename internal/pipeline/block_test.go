package pipeline

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/relation"
)

// blockEngineRelation builds a marked relation plus its CSV form for the
// streaming path.
func blockEngineRelation(t *testing.T, n int) (*relation.Relation, *relation.Domain, string, mark.Options, ecc.Bits) {
	t.Helper()
	schema := relation.MustSchema([]relation.Attribute{
		{Name: "id", Type: relation.TypeString},
		{Name: "cat", Type: relation.TypeString, Categorical: true},
	}, "id")
	r := relation.New(schema)
	values := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{"row-" + strconv.Itoa(i), values[(i*7)%len(values)]})
	}
	dom, err := relation.NewDomain(values)
	if err != nil {
		t.Fatal(err)
	}
	wm := ecc.MustParseBits("1011001110")
	opts := mark.Options{
		Attr: "cat", K1: keyhash.NewKey("pb-k1"), K2: keyhash.NewKey("pb-k2"),
		E: 5, Domain: dom,
	}
	st, err := mark.Embed(r, wm, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.BandwidthOverride = st.Bandwidth
	var csv strings.Builder
	if err := relation.WriteCSV(&csv, r); err != nil {
		t.Fatal(err)
	}
	return r, dom, csv.String(), opts, wm
}

// tupleOracle is the reference detection: sc's ScanTuple loop over
// every row of r, in order.
func tupleOracle(sc *mark.Scanner, r *relation.Relation) *mark.Tally {
	t := sc.NewTally()
	for j := 0; j < r.Len(); j++ {
		sc.ScanTuple(r.Tuple(j), t)
	}
	return t
}

// tupleOracleReport is the report of tupleOracle under opts.
func tupleOracleReport(t *testing.T, r *relation.Relation, wmLen int, opts mark.Options) mark.DetectReport {
	t.Helper()
	sc, err := mark.NewScanner(r, wmLen, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Report(tupleOracle(sc, r))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// detectStream recovers a wmLen-bit watermark from src through the
// streaming engine: one stream scanner, ScanMany, Report. opts must
// carry Domain and BandwidthOverride.
func detectStream(src relation.BlockReader, wmLen int, opts mark.Options, cfg Config) (mark.DetectReport, error) {
	sc, err := mark.NewStreamScanner(src.Schema(), wmLen, opts)
	if err != nil {
		return mark.DetectReport{}, err
	}
	tallies, err := ScanMany(context.Background(), src, []*mark.Scanner{sc}, cfg)
	if err != nil {
		return mark.DetectReport{}, err
	}
	return sc.Report(tallies[0])
}

// TestDetectMatchesScanTupleOracle is the one-engine differential:
// pipeline.Detect and mark.Detect both vote through ScanColumns over
// relation-filled blocks, and both must report exactly what the
// ScanTuple loop reports — across worker counts, block sizes (size 1,
// odd sizes with ragged tails, the default), chunk sizes that do not
// divide the relation, both vote aggregations, a suspect carrying
// values outside the domain, and the data widened to arity 4 with the
// key and the attribute apart.
func TestDetectMatchesScanTupleOracle(t *testing.T) {
	narrow, dom := testData(t, 5003)
	wm := ecc.MustParseBits("1011001110")
	opts := testOptions(dom)
	if _, err := mark.Embed(narrow, wm, opts); err != nil {
		t.Fatal(err)
	}
	// Unknown values: every 13th row leaves the catalog, the way an
	// un-reversed remap or noise would.
	for j := 0; j < narrow.Len(); j += 13 {
		if err := narrow.SetValue(j, "Item_Nbr", "not-in-domain"); err != nil {
			t.Fatal(err)
		}
	}
	for name, r := range map[string]*relation.Relation{"narrow": narrow, "wide": widen(narrow)} {
		t.Run(name, func(t *testing.T) { checkDetectMatchesScanTupleOracle(t, r, wm, opts) })
	}
}

func checkDetectMatchesScanTupleOracle(t *testing.T, r *relation.Relation, wm ecc.Bits, opts mark.Options) {
	for _, agg := range []mark.VoteAggregation{mark.MajorityVote, mark.LastWriteWins} {
		opts := opts
		opts.Aggregation = agg
		want := tupleOracleReport(t, r, len(wm), opts)
		if want.UnknownValues == 0 {
			t.Fatal("no unknown values reached the vote — test is vacuous")
		}
		seq, err := mark.Detect(r, len(wm), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, want) {
			t.Fatalf("agg %v: mark.Detect diverged from the ScanTuple oracle:\n got %+v\nwant %+v", agg, seq, want)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, blockRows := range []int{1, 7, 512} {
				cfg := Config{Workers: workers, ChunkRows: 1111, BlockRows: blockRows}
				got, err := Detect(context.Background(), r, len(wm), opts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("agg %v workers %d blockRows %d: pipeline.Detect diverged from the ScanTuple oracle:\n got %+v\nwant %+v",
						agg, workers, blockRows, got, want)
				}
			}
		}
	}
}

// TestDetectBlockRowsEquivalence proves the detection paths are
// bit-identical to the ScanTuple oracle across block sizes — 1, odd
// sizes that leave ragged tails, one block for everything, and 0 and -1,
// which both mean mark.DefaultBlockRows — for both vote aggregations and
// both the materialized and streaming entry points.
func TestDetectBlockRowsEquivalence(t *testing.T) {
	r, _, csv, opts, wm := blockEngineRelation(t, 5000)
	for _, agg := range []mark.VoteAggregation{mark.MajorityVote, mark.LastWriteWins} {
		opts := opts
		opts.Aggregation = agg
		want := tupleOracleReport(t, r, len(wm), opts)
		if want.WM.String() != wm.String() {
			t.Fatalf("agg %v: oracle lost the watermark: %s", agg, want.WM)
		}
		for _, blockRows := range []int{0, -1, 1, 3, 511, 512, 4096, 1 << 20} {
			cfg := Config{Workers: 3, ChunkRows: 700, BlockRows: blockRows}
			got, err := Detect(context.Background(), r, len(wm), opts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			src, err := relation.NewCSVBlockReader(strings.NewReader(csv), r.Schema())
			if err != nil {
				t.Fatal(err)
			}
			stream, err := detectStream(src, len(wm), opts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("agg %v blockRows %d: Detect diverged from the ScanTuple oracle", agg, blockRows)
			}
			if !reflect.DeepEqual(stream, want) {
				t.Fatalf("agg %v blockRows %d: streaming detection diverged from the ScanTuple oracle", agg, blockRows)
			}
		}
	}
}

// TestEmbedBlockRowsEquivalence proves embedding emits identical
// relations and statistics across block sizes.
func TestEmbedBlockRowsEquivalence(t *testing.T) {
	schema := relation.MustSchema([]relation.Attribute{
		{Name: "id", Type: relation.TypeString},
		{Name: "cat", Type: relation.TypeString, Categorical: true},
	}, "id")
	base := relation.New(schema)
	values := []string{"a", "b", "c", "d"}
	for i := 0; i < 4000; i++ {
		base.MustAppend(relation.Tuple{"r" + strconv.Itoa(i), values[(i*3)%len(values)]})
	}
	dom, err := relation.NewDomain(values)
	if err != nil {
		t.Fatal(err)
	}
	wm := ecc.MustParseBits("101101")
	opts := mark.Options{
		Attr: "cat", K1: keyhash.NewKey("pe-k1"), K2: keyhash.NewKey("pe-k2"),
		E: 4, Domain: dom, BandwidthOverride: 900,
	}

	var wantRel *relation.Relation
	var wantStats mark.EmbedStats
	for i, blockRows := range []int{0, -1, 1, 7, 512, 1 << 20} {
		cfg := Config{Workers: 4, ChunkRows: 600, BlockRows: blockRows}
		r := base.Clone()
		st, err := Embed(context.Background(), r, wm, opts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantRel, wantStats = r, st
			continue
		}
		if !r.Equal(wantRel) {
			t.Fatalf("blockRows %d: embedded relation diverged", blockRows)
		}
		if st != wantStats {
			t.Fatalf("blockRows %d: stats diverged: %+v vs %+v", blockRows, st, wantStats)
		}
	}
}

// TestScanManyMemoEquivalence proves the per-block digest memo changes
// nothing: a scanner fleet where several certificates share a fitness
// key (one owner, many certificates — the memo's fast path) tallies
// exactly like each scanner scanning the stream alone, and exactly like
// each scanner's memo-less ScanTuple loop.
func TestScanManyMemoEquivalence(t *testing.T) {
	r, _, csv, opts, _ := blockEngineRelation(t, 6000)
	mkScanner := func(k1, k2 string) *mark.Scanner {
		o := opts
		o.K1, o.K2 = keyhash.NewKey(k1), keyhash.NewKey(k2)
		sc, err := mark.NewStreamScanner(r.Schema(), 10, o)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	// Owner A holds three certificates (same k1 lane), owner B two, C one.
	scanners := []*mark.Scanner{
		mkScanner("owner-a|k1", "owner-a|k2"),
		mkScanner("owner-a|k1", "owner-a|k2-bis"),
		mkScanner("owner-a|k1", "owner-a|k2-ter"),
		mkScanner("owner-b|k1", "owner-b|k2"),
		mkScanner("owner-b|k1", "owner-b|k2-bis"),
		mkScanner("owner-c|k1", "owner-c|k2"),
	}

	scan := func(scs []*mark.Scanner, cfg Config) []*mark.Tally {
		src, err := relation.NewCSVBlockReader(strings.NewReader(csv), r.Schema())
		if err != nil {
			t.Fatal(err)
		}
		tallies, err := ScanMany(context.Background(), src, scs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tallies
	}

	together := scan(scanners, Config{Workers: 3, ChunkRows: 900})
	for i, sc := range scanners {
		alone := scan([]*mark.Scanner{sc}, Config{Workers: 1})
		if !reflect.DeepEqual(together[i], alone[0]) {
			t.Fatalf("scanner %d: memo-shared tally diverged from solo scan", i)
		}
		if !reflect.DeepEqual(together[i], tupleOracle(sc, r)) {
			t.Fatalf("scanner %d: block tally diverged from the ScanTuple loop", i)
		}
	}
}

// TestProgressCountsTuples proves the progress hook ticks every suspect
// tuple exactly once per pass — on the materialized, streaming and
// fan-out paths, at every block size, regardless of certificate count.
func TestProgressCountsTuples(t *testing.T) {
	r, _, csv, opts, wm := blockEngineRelation(t, 3000)
	for _, blockRows := range []int{0, -1, 17, 512} {
		var n atomic.Int64
		cfg := Config{Workers: 3, ChunkRows: 500, BlockRows: blockRows,
			Progress: func(tuples int) { n.Add(int64(tuples)) }}

		if _, err := Detect(context.Background(), r, len(wm), opts, cfg); err != nil {
			t.Fatal(err)
		}
		if got := n.Load(); got != int64(r.Len()) {
			t.Fatalf("blockRows %d: Detect progress %d, want %d", blockRows, got, r.Len())
		}

		n.Store(0)
		src, err := relation.NewCSVBlockReader(strings.NewReader(csv), r.Schema())
		if err != nil {
			t.Fatal(err)
		}
		scanners := make([]*mark.Scanner, 4)
		for i := range scanners {
			o := opts
			o.K1 = keyhash.NewKey("prog-" + strconv.Itoa(i))
			sc, err := mark.NewStreamScanner(r.Schema(), 10, o)
			if err != nil {
				t.Fatal(err)
			}
			scanners[i] = sc
		}
		if _, err := ScanMany(context.Background(), src, scanners, cfg); err != nil {
			t.Fatal(err)
		}
		if got := n.Load(); got != int64(r.Len()) {
			t.Fatalf("blockRows %d: ScanMany progress %d, want %d (once per tuple, not per certificate)",
				blockRows, got, r.Len())
		}
	}

	// Embedding ticks too (block engine only).
	var n atomic.Int64
	cfg := Config{Workers: 2, ChunkRows: 800,
		Progress: func(tuples int) { n.Add(int64(tuples)) }}
	clone := r.Clone()
	if _, err := Embed(context.Background(), clone, wm, opts, cfg); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != int64(r.Len()) {
		t.Fatalf("Embed progress %d, want %d", got, r.Len())
	}
}

// TestDetectAllocsIndependentOfRows pins the materialized detection path
// at a fixed allocation budget per pass: filling pooled blocks from the
// relation and voting through ScanColumns allocates per chunk (a tally)
// but nothing per row, so a 36k-row pass allocates no more than a
// 9k-row pass cut into the same number of chunks. The fit-row capture
// of DetectFit rides the same budget: its buffers are pooled. Skipped
// under -race, where sync.Pool drops a random share of its items and
// pool-backed allocation counts vary from run to run.
func TestDetectAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	wm := ecc.MustParseBits("1011001110")
	for _, workers := range []int{1, 2} {
		allocs := make(map[int]float64)
		fitAllocs := make(map[int]float64)
		for _, n := range []int{9000, 36000} {
			r, dom := testData(t, n)
			opts := testOptions(dom)
			cfg := Config{Workers: workers}
			pass := func() {
				if _, err := Detect(context.Background(), r, len(wm), opts, cfg); err != nil {
					t.Fatal(err)
				}
			}
			fitPass := func() {
				_, fit, err := DetectFit(context.Background(), r, len(wm), opts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				fit.Release()
			}
			pass() // warm the block pool
			fitPass()
			allocs[n] = testing.AllocsPerRun(5, pass)
			fitAllocs[n] = testing.AllocsPerRun(5, fitPass)
		}
		t.Logf("workers %d: DetectFit %.0f allocs at 9k rows, %.0f at 36k", workers, fitAllocs[9000], fitAllocs[36000])
		if fitAllocs[36000] > fitAllocs[9000]+16 {
			t.Fatalf("workers %d: DetectFit allocations grow with the row count: %.0f at 9k rows, %.0f at 36k",
				workers, fitAllocs[9000], fitAllocs[36000])
		}
		t.Logf("workers %d: %.0f allocs at 9k rows, %.0f at 36k", workers, allocs[9000], allocs[36000])
		if allocs[36000] > allocs[9000]+16 {
			t.Fatalf("workers %d: allocations grow with the row count: %.0f at 9k rows, %.0f at 36k",
				workers, allocs[9000], allocs[36000])
		}
	}
}

// TestRevoteAllocsIndependentOfRows: FitPass.Revote reads each fit
// row's key and value in place (Relation.At), so re-voting the fit rows
// of a 36k-row pass allocates no more than for a 9k-row one. Skipped
// under -race, where sync.Pool drops a random share of its items.
func TestRevoteAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	wm := ecc.MustParseBits("1011001110")
	allocs := make(map[int]float64)
	for _, n := range []int{9000, 36000} {
		r, dom := testData(t, n)
		_, fit, err := DetectFit(context.Background(), r, len(wm), testOptions(dom), Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		mapping := remapForTest(dom)
		revote := func() {
			if _, err := fit.Revote(context.Background(), mapping); err != nil {
				t.Fatal(err)
			}
		}
		revote() // warm the block and scratch pools
		allocs[n] = testing.AllocsPerRun(5, revote)
		fit.Release()
	}
	t.Logf("Revote: %.0f allocs at 9k rows, %.0f at 36k", allocs[9000], allocs[36000])
	if allocs[36000] > allocs[9000] {
		t.Fatalf("Revote allocations grow with the row count: %.0f at 9k rows, %.0f at 36k", allocs[9000], allocs[36000])
	}
}
