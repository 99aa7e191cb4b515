package pipeline

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

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
