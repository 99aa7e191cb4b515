package pipeline

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ecc"
	"repro/internal/keyhash"
	"repro/internal/mark"
	"repro/internal/relation"
)

// poolScanners prepares stream scanners of one bandwidth against r's
// schema, named by tag so each set has its own keys.
func poolScanners(t testing.TB, r *relation.Relation, dom *relation.Domain, tag string, n, bw int) []*mark.Scanner {
	t.Helper()
	scanners := make([]*mark.Scanner, n)
	for i := range scanners {
		sc, err := mark.NewStreamScanner(r.Schema(), 10, mark.Options{
			Attr: "Item_Nbr", K1: keyhash.NewKey(tag + "-k1"), K2: keyhash.NewKey(tag + "-k2-" + itoa(i)),
			E: 20, Domain: dom, BandwidthOverride: bw,
		})
		if err != nil {
			t.Fatal(err)
		}
		scanners[i] = sc
	}
	return scanners
}

func csvSource(t testing.TB, r *relation.Relation, data string) relation.BlockReader {
	t.Helper()
	src, err := relation.NewCSVBlockReader(strings.NewReader(data), r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestScanManyPooledPartsAcrossScannerSets runs back-to-back passes
// whose scanner sets differ in count and bandwidth, so pooled part
// tallies are reused by scanners both larger and smaller than the ones
// that last held them. Every pass must equal the ScanTuple oracle, and
// every part must be back in the pool when the pass returns.
func TestScanManyPooledPartsAcrossScannerSets(t *testing.T) {
	r, dom := testData(t, 6000)
	var csvData strings.Builder
	if err := relation.WriteCSV(&csvData, r); err != nil {
		t.Fatal(err)
	}
	sets := [][]*mark.Scanner{
		poolScanners(t, r, dom, "small", 2, 150),
		poolScanners(t, r, dom, "large", 4, 900),
		poolScanners(t, r, dom, "small-again", 3, 120),
		poolScanners(t, r, dom, "mid", 1, 400),
	}
	before := groupsOut.Load()
	for si, scanners := range sets {
		got, err := ScanMany(context.Background(), csvSource(t, r, csvData.String()), scanners,
			Config{Workers: 2, ChunkRows: 512, BlockRows: 128})
		if err != nil {
			t.Fatal(err)
		}
		for i, sc := range scanners {
			if want := tupleOracle(sc, r); !reflect.DeepEqual(got[i], want) {
				t.Fatalf("set %d scanner %d: pooled-part tally differs from the ScanTuple oracle", si, i)
			}
		}
		if out := groupsOut.Load(); out != before {
			t.Fatalf("set %d: %d part groups not returned to the pool", si, out-before)
		}
	}
}

// TestCancelledPassesReturnParts cancels a streaming ScanMany and a
// materialized Detect mid-pass: both must hand every part tally they
// took back to the pool.
func TestCancelledPassesReturnParts(t *testing.T) {
	schema := cancelTestSchema(t)
	before := groupsOut.Load()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &gatedReader{
		schema: schema, total: 200_000, gateAt: 20_000, cancel: cancel,
		tupleFn: func(i int) relation.Tuple { return relation.Tuple{itoa(i), itoa(i % 4)} },
	}
	scanners := []*mark.Scanner{cancelTestScanner(t, schema), cancelTestScanner(t, schema)}
	if _, err := ScanMany(ctx, src, scanners, Config{Workers: 2, ChunkRows: 1024}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScanMany: err = %v, want context.Canceled", err)
	}
	if out := groupsOut.Load(); out != before {
		t.Fatalf("cancelled ScanMany kept %d part groups", out-before)
	}

	r, dom := testData(t, 40_000)
	dctx, dcancel := context.WithCancel(context.Background())
	defer dcancel()
	var once sync.Once
	cfg := Config{Workers: 2, ChunkRows: 1024, BlockRows: 256, Progress: func(int) {
		once.Do(dcancel) // cancel on the first block, chunks still in flight
	}}
	if _, err := Detect(dctx, r, 10, testOptions(dom), cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("Detect: err = %v, want context.Canceled", err)
	}
	if out := groupsOut.Load(); out != before {
		t.Fatalf("cancelled Detect kept %d part groups", out-before)
	}
}

// TestScanManyWarmPassAllocatesNoParts pins the pool: once warm, a
// repeated ScanMany allocates its totals and nothing bandwidth-sized
// besides. The bandwidth is large enough that one more tally's arrays
// would dwarf everything else a pass allocates.
//
// The pools are warmed under the one processor AllocsPerRun measures
// with: sync.Pool keeps an item per processor that no other processor
// can take, so a group pooled on processor 1 during a warm-up at full
// GOMAXPROCS is out of reach once AllocsPerRun drops to one, and its
// first pass (inside the measured window) allocates a group afresh.
func TestScanManyWarmPassAllocatesNoParts(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const bw = 1 << 15
	r, dom := testData(t, 8000)
	var csvData strings.Builder
	if err := relation.WriteCSV(&csvData, r); err != nil {
		t.Fatal(err)
	}
	data := csvData.String()
	scanners := poolScanners(t, r, dom, "warm", 3, bw)
	pass := func() {
		if _, err := ScanMany(context.Background(), csvSource(t, r, data), scanners,
			Config{Workers: 1, ChunkRows: 1024}); err != nil {
			t.Fatal(err)
		}
	}
	pass() // warm the block and part pools
	const runs = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(runs, pass) // runs+1 passes, counting its own warm-up
	runtime.ReadMemStats(&m1)
	perPass := float64(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1)
	tallyBytes := float64(bw) * float64(reflect.TypeFor[ecc.VoteTally]().Size()+1)
	totals := float64(len(scanners)) * tallyBytes
	t.Logf("%.0f allocs, %.0f B per pass; totals %.0f B, one tally %.0f B", allocs, perPass, totals, tallyBytes)
	if perPass > totals+tallyBytes/2 {
		t.Fatalf("warm ScanMany allocates %.0f B per pass, want at most its totals (%.0f B) plus less than half a tally",
			perPass, totals)
	}
}

// TestHugeWorkerCountMatchesOne: a worker count far past any chunk
// count must neither overflow the derived chunk size nor change a
// result. Materialized passes cap their workers at the chunk count, so
// Detect, DetectFit and Embed at Workers 1<<62 equal the same passes
// at one worker.
func TestHugeWorkerCountMatchesOne(t *testing.T) {
	r, dom := testData(t, 5000)
	wm := ecc.MustParseBits("1011001110")
	opts := testOptions(dom)
	ctx := context.Background()
	one, huge := Config{Workers: 1}, Config{Workers: 1 << 62}

	wantEmbed, wantStats := r.Clone(), mark.EmbedStats{}
	var err error
	if wantStats, err = Embed(ctx, wantEmbed, wm, opts, one); err != nil {
		t.Fatal(err)
	}
	gotEmbed := r.Clone()
	gotStats, err := Embed(ctx, gotEmbed, wm, opts, huge)
	if err != nil {
		t.Fatal(err)
	}
	if !gotEmbed.Equal(wantEmbed) || gotStats != wantStats {
		t.Fatalf("Embed at 1<<62 workers diverged from one worker:\n got %+v\nwant %+v", gotStats, wantStats)
	}

	want, err := Detect(ctx, wantEmbed, len(wm), opts, one)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Detect(ctx, wantEmbed, len(wm), opts, huge)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || want.WM.String() != wm.String() {
		t.Fatalf("Detect at 1<<62 workers diverged from one worker:\n got %+v\nwant %+v", got, want)
	}

	_, wantFit, err := DetectFit(ctx, wantEmbed, len(wm), opts, one)
	if err != nil {
		t.Fatal(err)
	}
	defer wantFit.Release()
	gotRep, gotFit, err := DetectFit(ctx, wantEmbed, len(wm), opts, huge)
	if err != nil {
		t.Fatal(err)
	}
	defer gotFit.Release()
	if !reflect.DeepEqual(gotRep, want) || !slices.Equal(*gotFit.rows, *wantFit.rows) {
		t.Fatalf("DetectFit at 1<<62 workers diverged from one worker")
	}
}

// FuzzPipelineEquivalence lets the fuzzer pick the data, the row count,
// the worker count (1 to 8), the chunk and block sizes and the vote
// aggregation, and holds every pass of the pool to its oracle: Detect,
// DetectFit (and its fit rows) and ScanMany over relation.Rows to the
// ScanTuple loop, and Embed, with and without an OnAlter hook, to
// mark.Embed.
func FuzzPipelineEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(3000), uint8(2), uint16(0), uint16(0), false)
	f.Add(int64(2), uint16(777), uint8(7), uint16(100), uint16(17), true)
	f.Add(int64(3), uint16(40), uint8(0), uint16(1), uint16(1), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, workers uint8, chunkRows, blockRows uint16, lww bool) {
		rows := 40 + int(n)%4000
		src, dom, err := datagen.ItemScan(datagen.ItemScanConfig{
			N: rows, CatalogSize: 50, ZipfS: 1.0, Seed: strconv.FormatInt(seed, 10),
		})
		if err != nil {
			t.Fatal(err)
		}
		wm := ecc.MustParseBits("1011")
		opts := testOptions(dom)
		opts.E = 5
		if lww {
			opts.Aggregation = mark.LastWriteWins
		}
		cfg := Config{Workers: 1 + int(workers)%8, ChunkRows: int(chunkRows) % 3000, BlockRows: int(blockRows) % 1000}
		ctx := context.Background()

		// Embed, without and with an OnAlter hook, against mark.Embed.
		var wantAltered, gotAltered []int
		for _, hook := range []bool{false, true} {
			want, got := src.Clone(), src.Clone()
			wantOpts, gotOpts := opts, opts
			if hook {
				wantOpts.OnAlter = func(row int) { wantAltered = append(wantAltered, row) }
				gotOpts.OnAlter = func(row int) { gotAltered = append(gotAltered, row) }
			}
			wantStats, err := mark.Embed(want, wm, wantOpts)
			if err != nil {
				t.Fatal(err)
			}
			gotStats, err := Embed(ctx, got, wm, gotOpts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) || gotStats != wantStats || !slices.Equal(gotAltered, wantAltered) {
				t.Fatalf("cfg %+v hook %v: Embed diverged from mark.Embed:\n got %+v\nwant %+v", cfg, hook, gotStats, wantStats)
			}
		}

		// Detection against the ScanTuple loop, over the marked relation
		// and over the pristine one, whose fit tuples cast conflicting
		// votes, so LastWriteWins reports depend on the merge order.
		marked := src.Clone()
		st, err := mark.Embed(marked, wm, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*relation.Relation{marked, src} {
			sc, err := mark.NewScanner(r, len(wm), opts)
			if err != nil {
				t.Fatal(err)
			}
			wantTally := tupleOracle(sc, r)
			want, err := sc.Report(wantTally)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Detect(ctx, r, len(wm), opts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cfg %+v: Detect diverged from the ScanTuple oracle:\n got %+v\nwant %+v", cfg, got, want)
			}
			fitRep, fit, err := DetectFit(ctx, r, len(wm), opts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fitOK := reflect.DeepEqual(fitRep, want) && slices.Equal(*fit.rows, fitOracle(sc, r))
			fit.Release()
			if !fitOK {
				t.Fatalf("cfg %+v: DetectFit diverged from the ScanTuple oracle", cfg)
			}
			sOpts := opts
			sOpts.BandwidthOverride = st.Bandwidth
			stream, err := mark.NewStreamScanner(r.Schema(), len(wm), sOpts)
			if err != nil {
				t.Fatal(err)
			}
			tallies, err := ScanMany(ctx, relation.Rows(r), []*mark.Scanner{stream, sc}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, tally := range tallies {
				if !reflect.DeepEqual(tally, wantTally) {
					t.Fatalf("cfg %+v: ScanMany tally %d diverged from the ScanTuple oracle", cfg, i)
				}
			}
		}
	})
}
